"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/smoke.py

The file name keeps these tests out of the repository's default test run.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_lomlab()

import compare  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from lomlab.cli import corpus_paths  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

TINY = {
    "type_sweep": {"sizes": {"Real": (2, 3), "Complex": (2,), "Quaternion": (4,)}},
    "classify_full": {"sizes": (4,)},
    "corpus_suite": {"paths": [p for p in corpus_paths()
                               if Path(p).stem in ("pcs_unit", "rep_untwisted",
                                                   "ranges_identical", "triangular")]},
    "reducible": {"sizes": (4,)},
    "corpus_algebra": {"paths": [p for p in corpus_paths()
                                 if Path(p).stem in ("full_m3_plain", "triangular")]},
    "corpus_operators": {"paths": [p for p in corpus_paths()
                                   if Path(p).stem in ("pcs_unit", "ranges_identical")]},
}


def tiny_pool(name, seed=0):
    return workloads.build_pool(name, seed, cycles=2, **TINY[name])


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_end_to_end_metrics_at_tiny_size(name):
    attempted, failed, metrics, extra, info = run.end_to_end(name, 0, 0.0, tiny_pool(name))
    assert set(metrics) == END_TO_END
    assert "fail_rate" in extra
    assert ("latency_p90_s" in extra) == (attempted >= run.P90_MIN_OPS)
    assert attempted == len(tiny_pool(name)[0]) and info["cycles"] == 1
    assert all(value > 0 for value, _ in metrics.values())
    if name != "reducible":
        assert failed == 0, info["failures"]


def test_p90_reported_from_100_ops():
    attempted, _, _, extra, _ = run.end_to_end("type_sweep", 0, 0.5, tiny_pool("type_sweep"))
    assert attempted >= run.P90_MIN_OPS
    assert extra["latency_p90_s"][0] > 0


def test_quickest_tenth_of_cycles():
    cycle_s = [5.0, 1.0, 3.0] + [2.0] * 17
    assert run.quickest_cycles(cycle_s) == [1, 3]
    assert run.quickest_cycles([4.0, 2.0]) == [1]


def test_setup_probes_run_between_cycles(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 3)
    pool = tiny_pool("corpus_operators")
    outcomes, starts, cycle_s, probes = run.closed_loop(pool, 0.3, lambda: 1.0)
    assert probes == [1.0] * 3 and len(starts) == len(cycle_s)
    assert len(outcomes) == len(cycle_s) * len(pool[0])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_per_layer_metrics_repeat_exactly(name):
    first = run.per_layer(name, 0, 0.0, tiny_pool(name))[2]
    second = run.per_layer(name, 0, 0.0, tiny_pool(name))[2]
    assert set(first) == PER_LAYER
    for metric, (value, unit) in first.items():
        if unit in ("calls/op", "flop/op", "B/op", "count"):
            assert second[metric][0] == value, metric


def test_reducible_witnesses_are_leak_checked():
    pool = tiny_pool("reducible")
    metrics = run.per_layer("reducible", 0, 0.0, pool)[2]
    ratio = metrics["engine.is_transitive.witness_ratio"][0]
    false_pass = metrics["engine.is_transitive.false_pass"][0]
    assert ratio > 0
    # A false pass carries no witness, so the two shares add up to at most 1.
    assert false_pass / len(pool[0]) + ratio <= 1


def test_wrong_expectation_counts_as_failed():
    pool = tiny_pool("type_sweep")
    wrong = dataclasses.replace(pool[0][0], expect="Quaternion")
    attempted, failed, _, extra, info = run.end_to_end("type_sweep", 0, 0.0,
                                                       [[wrong] + pool[0][1:]])
    assert failed == 1 and info["failures"] == {"WrongType": 1}
    assert extra["fail_rate"][0] == 1 / attempted


def test_exception_counts_as_failed_and_run_goes_on():
    def boom():
        raise ArithmeticError("planted")

    pool = tiny_pool("classify_full")
    broken = dataclasses.replace(pool[0][0], run=boom)
    attempted, failed, _, _, info = run.end_to_end("classify_full", 0, 0.0,
                                                   [[broken] + pool[0][1:]])
    assert attempted == len(pool[0])
    assert failed == 1 and info["failures"] == {"ArithmeticError": 1}


def test_tracer_patches_every_binding_and_restores():
    # lomlab.classify names the re-exported function, so look the modules up.
    engine, classify, cli = (sys.modules[f"lomlab.{m}"] for m in ("engine", "classify", "cli"))
    original = engine.commutant
    original_classify_type = workloads.classify_type
    with spans.Tracer().installed():
        wrapped = engine.commutant
        assert wrapped is not original
        assert classify.commutant is wrapped and cli.commutant is wrapped
        assert workloads.classify_type is not original_classify_type
    assert engine.commutant is classify.commutant is cli.commutant is original
    assert workloads.classify_type is original_classify_type


def test_svd_cost_model():
    assert spans.svd_cost((4, 2), compute_uv=False) == (4 * 4 * 4 - 4 * 8 / 3, 8 * (8 + 2))
    assert spans.svd_cost((2, 4), full_matrices=False) == (14 * 4 * 4 + 8 * 8, 8 * (8 + 2 + 16))
    flops, nbytes = spans.svd_cost((3, 4, 2))
    assert flops == 3 * (4 * 16 * 2 + 8 * 4 * 4 + 9 * 8)
    assert nbytes == 3 * 8 * (8 + 2 + 16 + 4)


def test_cli_prints_contract_line():
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "corpus_suite",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert set(result["metrics"]) == END_TO_END
    assert result["correct"] is True and result["failed"] == 0


def test_fails_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "type_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_flags_spread_and_regressions(tmp_path, capsys):
    def write(path, values):
        with open(path, "w", encoding="utf-8") as fh:
            for v in values:
                metrics = {"goodput_ops_s": {"value": v, "unit": "ops/s"},
                           "latency_p50_s": {"value": 1.0, "unit": "s"}}
                fh.write(json.dumps({"workload": "type_sweep", "trace": 0,
                                     "result": {"metrics": metrics}}) + "\n")

    write(tmp_path / "base.jsonl", [10.0, 10.1, 9.9, 10.0])
    write(tmp_path / "slow.jsonl", [5.0, 5.1, 4.9, 5.0])
    write(tmp_path / "noisy.jsonl", [5.0, 15.0, 2.0, 20.0])
    compare.main([str(tmp_path / "base.jsonl"), str(tmp_path / "slow.jsonl")])
    rows = capsys.readouterr().out.splitlines()
    assert any("goodput_ops_s" in r and r.endswith("worse") for r in rows)
    assert any("latency_p50_s" in r and r.endswith("ok") for r in rows)
    compare.main([str(tmp_path / "base.jsonl"), str(tmp_path / "noisy.jsonl")])
    rows = capsys.readouterr().out.splitlines()
    assert any("goodput_ops_s" in r and r.endswith("unresolved") for r in rows)
