"""Compare two sets of lomlab benchmark results.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the JSON lines that ``run.py --out FILE`` appends, one per
run.  For each workload and each metric present on both sides this prints
both medians, the relative delta (new / base - 1), the bound that
BENCHMARK.json fixes for the metric, and a verdict:

- ``unresolved``: a side's spread, the distance between its first and third
  quartiles over its median, exceeds the bound, or a side has fewer than two
  runs;
- ``worse``: the new median is worse than the base median by more than the
  bound;
- ``ok``: otherwise.

Metrics without a bound (per-layer metrics, ``fail_rate``, ``latency_p90_s``)
get their medians and delta only.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOWER_IS_BETTER = {"fail_rate", "latency_p90_s"}


def load(path):
    """{(workload, trace): {metric: [values]}} from a results file."""
    runs = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            key = (record["workload"], record["trace"])
            metrics = {**record["result"]["metrics"], **record.get("extra", {})}
            for name, entry in metrics.items():
                runs[key][name].append(entry["value"])
    return runs


def metric_rules():
    """{metric: (better, bound or None)} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    rules.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    rules.update({name: ("lower", None) for name in LOWER_IS_BETTER})
    return rules


def spread(values):
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else None


def verdict(base, new, better, bound):
    if bound is None:
        return ""
    spreads = [spread(base), spread(new)]
    if any(s is None or s > bound for s in spreads):
        return "unresolved"
    b, n = statistics.median(base), statistics.median(new)
    worse = (n - b) / abs(b) if better == "lower" else (b - n) / abs(b)
    return "worse" if worse > bound else "ok"


def fmt(x, spec=".3f"):
    return "-" if x is None else format(x, spec)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit("usage: compare.py BASE.jsonl NEW.jsonl")
    base, new = load(argv[0]), load(argv[1])
    rules = metric_rules()
    print(f"{'workload':<14} {'metric':<40} {'base':>10} {'new':>10} {'delta':>8} "
          f"{'bound':>6} {'spread':>13}  verdict")
    for key in sorted(set(base) & set(new)):
        workload = key[0] + (" (trace)" if key[1] else "")
        for name in sorted(set(base[key]) & set(new[key])):
            b, n = base[key][name], new[key][name]
            better, bound = rules.get(name, ("lower", None))
            mb, mn = statistics.median(b), statistics.median(n)
            delta = mn / mb - 1 if mb else None
            spreads = f"{fmt(spread(b))}/{fmt(spread(n))}"
            print(f"{workload:<14} {name:<40} {mb:>10.4g} {mn:>10.4g} {fmt(delta, '+.3f'):>8} "
                  f"{fmt(bound, 'g'):>6} {spreads:>13}  {verdict(b, n, better, bound)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
