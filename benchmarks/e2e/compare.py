"""``compare A.json B.json``: is B worse than A, by BENCHMARK.json's bounds?

One row per (workload, end-to-end metric) with both medians, the ratio
B/A, and a verdict:

* ``unresolved`` — the run-to-run spread of either side is wider than the
  metric's bound, so neither a difference nor its absence is evidence;
  unless every run of B reads better than every run of A, which is
  ``better`` whatever the spread;
* ``worse`` / ``better`` — B's median is beyond the bound in that direction;
* ``within bound`` — it is not.

The spread is the distance between the quartiles of a side's runs (between
the extremes for fewer than 4 runs) over their median.  It is known only
for result files written with ``run --repeat N`` (N >= 2); for any other
file compare says so, and its verdicts rest on single samples.

Exit status is non-zero on any ``worse`` and on any rise in
``failed_share``.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Optional

from .harness import load_spec


def spread(values: List[float]) -> Optional[float]:
    """Run-to-run spread of one metric as a share of its median."""
    if len(values) < 2:
        return None
    median = statistics.median(values)
    if not median:
        return None
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> str:
    base, new = a["value"], b["value"]
    if not base:
        return "no base"
    sign = -1.0 if better == "lower" else 1.0
    spreads = [s for s in (spread(a["values"]), spread(b["values"])) if s is not None]
    if spreads and max(spreads) > bound:
        # signed so that larger is better on both sides
        clear = min(sign * v for v in b["values"]) > max(sign * v for v in a["values"])
        return "better" if clear else "unresolved"
    # change > 0: B is better by that share of A
    change = sign * (new - base) / abs(base)
    if abs(change) <= bound:
        return "within bound"
    return "better" if change > 0 else "worse"


def main(args: Any) -> int:
    spec = load_spec()
    with open(args.a, encoding="utf-8") as f:
        a = json.load(f)
    with open(args.b, encoding="utf-8") as f:
        b = json.load(f)
    status = 0
    print(f"A = {args.a} (seed {a['seed']}, {a['seconds']} s windows, "
          f"{a['repeat']} run(s))")
    print(f"B = {args.b} (seed {b['seed']}, {b['seconds']} s windows, "
          f"{b['repeat']} run(s))")
    if min(a["repeat"], b["repeat"]) < 2:
        print("run-to-run spread unknown (a file holds one run per workload): the "
              "verdicts below rest on single samples; write both files with "
              "run --repeat N, N >= 2")
    header = f"{'workload':<14}{'metric':<24}{'A':>12}{'B':>12}  {'B/A':<22}{'bound':>6}  verdict"
    print(header)
    print("-" * len(header))
    for workload in (w["name"] for w in spec["workloads"]):
        wa, wb = a["workloads"].get(workload), b["workloads"].get(workload)
        if wa is None or wb is None:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ma, mb = wa["end_to_end"].get(name), wb["end_to_end"].get(name)
            if ma is None or mb is None:
                print(f"{workload:<14}{name:<24}{'missing':>12}")
                status = 1
                continue
            word = verdict(ma, mb, metric["better"], metric["bound"])
            if word == "worse":
                status = 1
            ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
            based = f"{ratio:.3f}x of {ma['value']:.4g} {metric['unit']}"
            print(f"{workload:<14}{name:<24}{ma['value']:>12.5g}{mb['value']:>12.5g}  "
                  f"{based:<22}{metric['bound']:>6.2f}  {word}")
        fa, fb = wa["failed_share"], wb["failed_share"]
        word = "worse" if fb > fa else "within bound"
        if fb > fa:
            status = 1
        print(f"{workload:<14}{'failed_share':<24}{fa:>12.5g}{fb:>12.5g}  "
              f"{'':<22}{0:>6.2f}  {word}")

    return status
