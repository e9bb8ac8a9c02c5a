"""End-to-end and per-layer benchmark of lomlab.

    python3 perfbench/run.py --workload type_sweep --seed 1 --seconds 40 --trace 0

Each workload runs in this one process as a closed loop with one client: an
op starts when the previous one returns.  The loop runs whole cycles of the
workload's fixed type/size mix and stops before a cycle would end past
``--seconds``.  Every verdict is checked; an op fails on a wrong verdict, a
failed check or any exception other than the expected one, and the run goes
on.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of ``spans.py``, from passes over the first cycle that
alternate untraced and traced.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The lines before
it give the environment, the failures by type, the sample counts, and the
metrics that the JSON leaves out: ``fail_rate`` always, and ``latency_p90_s``
where a run has at least 100 ops.  ``--out FILE`` appends all of it as one
JSON line, which ``compare.py`` reads.

The benchmark imports lomlab from the ``src`` directory next to this one and
stops with an error when it is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("type_sweep", "classify_full", "corpus_suite", "reducible",
                  "corpus_algebra", "corpus_operators")
# Fresh processes timed from spawn to inputs ready; setup_s is their median.
SETUP_PROBES = 9
# goodput_ops_s and latency_p50_s use the quickest 1/QUICK_SHARE of the cycles.
QUICK_SHARE = 10
P90_MIN_OPS = 100


def import_lomlab():
    """Put the checkout's ``src`` first on the path and import lomlab from it."""
    src = ROOT / "src"
    if not (src / "lomlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: lomlab sources not found under {src}")
    sys.path.insert(0, str(src))
    import lomlab
    if Path(lomlab.__file__).resolve().parent != src / "lomlab":
        sys.exit(f"perfbench: imported lomlab from {lomlab.__file__}, not {src}")


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if it cannot tell."""
    import numpy
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                            if k in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def run_cycle(cycle, outcomes, tracer=None):
    """Run each op of ``cycle`` in turn, appending ``(label, latency_s, failure or None)``."""
    for op in cycle:
        start = time.perf_counter()
        try:
            if tracer is None:
                failure = op.check(op.run(), op.expect)
            else:
                with tracer.op_span(len(outcomes)):
                    failure = op.check(op.run(), op.expect)
        except Exception as exc:  # an op's unexpected exception is a counted failure
            failure = type(exc).__name__
        outcomes.append((op.label, time.perf_counter() - start, failure))


def closed_loop(pool, seconds, probe=None):
    """Whole cycles of ``pool`` in order until the next would end past ``seconds``
    of cycle time.

    ``probe()`` runs between cycles, untimed, ``SETUP_PROBES`` times spread
    evenly over the run, so that its samples see the same phases of host load
    as the cycles do.  Returns the outcomes of all ops, the index of each
    cycle's first outcome, each cycle's wall time and the probes' results.
    """
    outcomes = []
    starts = []
    cycle_s = []
    probes = []
    while True:
        starts.append(len(outcomes))
        cycle_start = time.perf_counter()
        run_cycle(pool[len(cycle_s) % len(pool)], outcomes)
        cycle_s.append(time.perf_counter() - cycle_start)
        spent = sum(cycle_s)
        if probe is not None and spent >= len(probes) * seconds / SETUP_PROBES:
            probes.append(probe())
        if spent + cycle_s[-1] > seconds:
            break
    while probe is not None and len(probes) < SETUP_PROBES:
        probes.append(probe())
    return outcomes, starts, cycle_s, probes


def setup_probe(workload, seed):
    """Seconds from spawning a fresh process until its inputs are ready."""
    spawned = time.monotonic()
    probe = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(probe.stdout.split()[-1]) - spawned


def quickest_cycles(cycle_s):
    """Indices of the quickest ``1 / QUICK_SHARE`` of the cycles, at least one."""
    order = sorted(range(len(cycle_s)), key=cycle_s.__getitem__)
    return sorted(order[:max(1, len(cycle_s) // QUICK_SHARE)])


def summarize(outcomes):
    failures = Counter(f for _, _, f in outcomes if f is not None)
    return len(outcomes), sum(failures.values()), dict(sorted(failures.items()))


def end_to_end(workload, seed, seconds, pool):
    outcomes, starts, cycle_s, probes = closed_loop(
        pool, seconds, lambda: setup_probe(workload, seed))
    attempted, failed, failures = summarize(outcomes)
    # Goodput and p50 come from the quickest cycles only.  Every cycle of a
    # corpus workload runs the same ops, and the host runs in phases of load,
    # seconds to a minute long, that slow a whole cycle by up to 1.7x; the
    # quickest cycles are the ones such a phase left alone.
    quick = quickest_cycles(cycle_s)
    ends = starts[1:] + [len(outcomes)]
    quick_ops = [outcomes[i] for c in quick for i in range(starts[c], ends[c])]
    by_label = {}
    for label, lat, _ in quick_ops:
        by_label.setdefault(label, []).append(lat)
    passed = sum(1 for _, _, failure in quick_ops if failure is None)
    metrics = {
        "goodput_ops_s": (passed / sum(cycle_s[c] for c in quick), "ops/s"),
        # The median over op types of each type's median.  Every type is
        # equally frequent, and the pooled median would sit between two types'
        # latencies and jump with their tails.
        "latency_p50_s": (statistics.median(statistics.median(v) for v in by_label.values()),
                          "s"),
        "setup_s": (statistics.median(probes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    extra = {"fail_rate": (failed / attempted, "ratio")}
    if attempted >= P90_MIN_OPS:
        extra["latency_p90_s"] = (
            statistics.quantiles([lat for _, lat, _ in outcomes], n=10)[8], "s")
    info = {"cycles": len(cycle_s), "quick_cycles": len(quick), "cycle_s": cycle_s,
            "latency_samples": len(quick_ops), "setup_probes_s": probes,
            "failures": failures}
    return attempted, failed, metrics, extra, info


def per_layer(workload, seed, seconds, pool):
    cycle = pool[0]
    tracer = spans.Tracer()
    outcomes = []
    untraced = traced = 0.0
    passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        run_cycle(cycle, [])
        mid = time.perf_counter()
        with tracer.installed():
            run_cycle(cycle, outcomes, tracer)
        end = time.perf_counter()
        untraced += mid - pass_start
        traced += end - mid
        passes += 1
        if end - start + (end - pass_start) > seconds:
            break

    attempted, failed, failures = summarize(outcomes)
    totals = tracer.self_times()
    values = {}
    for name in spans.SELF_AND_CALLS + spans.SELF_ONLY:
        values[f"{name}.self_s"] = totals[name][0] / attempted
    for name in spans.SELF_AND_CALLS:
        values[f"{name}.calls"] = totals[name][1] / attempted
    reducible = [i for i in range(attempted) if cycle[i % len(cycle)].reducible]
    verified = sum(1 for i in reducible if outcomes[i][2] is None)
    values["engine.is_transitive.false_pass"] = (
        len(tracer.false_pass_ops(set(reducible))) / passes)
    values["engine.is_transitive.witness_ratio"] = verified / len(reducible) if reducible else 0.0
    values["numeric.svd.calls"] = tracer.svd["calls"] / attempted
    values["numeric.svd.flops_computed"] = tracer.svd["flops"] / attempted
    values["numeric.svd.bytes_computed"] = tracer.svd["bytes"] / attempted
    values["bench.trace_overhead"] = traced / untraced
    metrics = {name: (values[name], unit) for name, unit, _ in spans.PER_LAYER}

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(spans_path)
    info = {"passes": passes, "ops_per_pass": len(cycle), "failures": failures,
            "untraced_s": untraced, "traced_s": traced, "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT))}
    return attempted, failed, metrics, {}, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append the full result as a JSON line")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_lomlab()
    import workloads
    pool = workloads.build_pool(args.workload, args.seed)
    if args.setup_probe:
        print(time.monotonic())
        return 0

    measure = per_layer if args.trace else end_to_end
    attempted, failed, metrics, extra, info = measure(args.workload, args.seed, args.seconds, pool)
    env = environment()
    print(f"lomlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))
    print("run " + json.dumps(info))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "run": info, "result": result,
                  "extra": {name: {"value": v, "unit": u} for name, (v, u) in extra.items()}}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
