"""The parent side of ``run``: one fresh subprocess per measurement.

The harness imports neither numpy nor ``repro``; it starts children, reads
the one JSON line each prints, takes medians, prints every metric by name
with the unit ``BENCHMARK.json`` fixes for it, and writes the result file.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: Cold set-ups per timed run (the timed child's own, plus probes that stop
#: after the first correct result); ``setup_s`` is their median.
SETUP_SAMPLES = 5
QUICK_SECONDS = 2
CHILD_TIMEOUT_S = 150


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as f:
        return json.load(f)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    # one BLAS thread: the container has two cores and the generator, the
    # server and the kernels share them
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(workload: str, seed: int, seconds: float, mode: str, quick: bool,
          trace_out: Optional[str] = None) -> Dict[str, Any]:
    """Run one child to completion and return the result it printed; a child
    that dies, hangs or prints nothing is one failed operation."""
    # journals and spill stores: a directory of this spawn's own, inside the
    # checkout (a driver lets the benchmark write nowhere else)
    work = tempfile.mkdtemp(prefix=".e2e-", dir=ROOT)
    argv = [
        sys.executable, "-m", "benchmarks.e2e", "child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--work", work,
    ]
    if quick:
        argv.append("--quick")
    if trace_out:
        argv += ["--trace-out", trace_out]
    try:
        argv += ["--t0", repr(time.monotonic())]
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        problem = f"exit status {proc.returncode}"
    except subprocess.TimeoutExpired:
        problem = f"no result within {CHILD_TIMEOUT_S} s"
    except json.JSONDecodeError as error:
        problem = f"unreadable result: {error}"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{workload} ({mode}): child failed: {problem}", file=sys.stderr)
    return {"workload": workload, "mode": mode, "attempted": 1, "failed": 1,
            "problem": problem}


def run_timed(workload: str, seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
    """The untraced pass: end-to-end metrics, ``setup_s`` over cold starts."""
    probes = [] if quick else [
        spawn(workload, seed, seconds, "setup", quick)
        for _ in range(SETUP_SAMPLES - 1)
    ]
    result = spawn(workload, seed, seconds, "timed", quick)
    setups = [r["setup_s"] for r in probes + [result] if "setup_s" in r]
    for probe in probes:
        result["attempted"] += probe["attempted"]
        result["failed"] += probe["failed"]
    if "end_to_end" in result:
        result["end_to_end"]["setup_s"] = {
            "value": statistics.median(setups), "n": len(setups),
            "q1": min(setups), "q3": max(setups),
        }
    return result


def run_traced(workload: str, seed: int, seconds: float, quick: bool,
               out_dir: str) -> Dict[str, Any]:
    """The traced pass: per-layer metrics, spans written beside the result."""
    trace_out = os.path.join(out_dir, f"TRACE_e2e_{workload}.json")
    return spawn(workload, seed, seconds, "traced", quick, trace_out=trace_out)


def contract_line(spec: Dict[str, Any], result: Dict[str, Any], traced: bool) -> str:
    """The one JSON object a driver reads from the last line of stdout."""
    if traced:
        values = result.get("per_layer", {})
        # a layer this workload never enters did no work: report 0
        metrics = {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        complete = "per_layer" in result
    else:
        values = result.get("end_to_end", {})
        metrics = {
            m["name"]: {"value": values[m["name"]]["value"], "unit": m["unit"]}
            for m in spec["end_to_end"] if m["name"] in values
        }
        complete = len(metrics) == len(spec["end_to_end"])
    return json.dumps({
        "correct": complete and result["failed"] == 0,
        "attempted": max(1, int(result["attempted"])),
        "failed": int(result["failed"]),
        "metrics": metrics,
    })


def units(spec: Dict[str, Any]) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def print_result(spec: Dict[str, Any], result: Dict[str, Any]) -> None:
    unit = units(spec)
    share = result["failed"] / max(1, result["attempted"])
    print(f"\n== {result['workload']} ({result['mode']}, seed {result.get('seed')}) ==")
    for name, row in result.get("end_to_end", {}).items():
        extra = "".join(
            f"  {key} {value:.6g}" for key, value in row.items()
            if key not in ("value", "n")
        )
        print(f"  {name:<28}{row['value']:>14.6g} {unit[name]:<6} n={row['n']}{extra}")
    for name, value in result.get("per_layer", {}).items():
        print(f"  {name:<34}{value:>14.6g} {unit.get(name, '')}")
    print(f"  {'failed_share':<28}{share:>14.6g}        "
          f"({result['failed']} of {result['attempted']})")
    for key, value in result.get("info", {}).items():
        print(f"  ({key}: {value:.6g})" if isinstance(value, float) else f"  ({key}: {value})")


def merge(runs: List[Dict[str, Any]], spec: Dict[str, Any]) -> Dict[str, Any]:
    """One workload's repeats folded into the result file's entry: every
    metric keeps all its values, and reports their median."""
    unit = units(spec)
    entry: Dict[str, Any] = {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "end_to_end": {}, "per_layer": {},
    }
    entry["failed_share"] = entry["failed"] / max(1, entry["attempted"])
    for run in runs:
        for name, row in run.get("end_to_end", {}).items():
            kept = entry["end_to_end"].setdefault(name, {"values": [], "unit": unit[name]})
            kept["values"].append(row["value"])
            kept.update({k: v for k, v in row.items() if k != "value"})
        for name, value in run.get("per_layer", {}).items():
            kept = entry["per_layer"].setdefault(name, {"values": [], "unit": unit.get(name, "")})
            kept["values"].append(value)
        if "info" in run:
            entry["info"] = run["info"]
    for section in ("end_to_end", "per_layer"):
        for kept in entry[section].values():
            kept["value"] = statistics.median(kept["values"])
    return entry


def main(args: Any) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"benchmarks.e2e: no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"unknown workload {args.workload!r}; BENCHMARK.json names {names}",
              file=sys.stderr)
        return 2
    selected = names if args.workload is None else [args.workload]
    passes = [False, True] if args.trace is None else [bool(args.trace)]
    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else spec["run_seconds"]
    os.makedirs(args.out, exist_ok=True)

    collected: Dict[str, List[Dict[str, Any]]] = {name: [] for name in selected}
    last = None
    for _ in range(args.repeat):
        for name in selected:
            for traced in passes:
                if traced:
                    last = run_traced(name, args.seed, seconds, args.quick, args.out)
                else:
                    last = run_timed(name, args.seed, seconds, args.quick)
                print_result(spec, last)
                collected[name].append(last)
    failed = sum(r["failed"] for runs in collected.values() for r in runs)

    single = args.workload is not None and args.trace is not None and args.repeat == 1
    if single:
        # what a driver invokes: the last line of stdout is the result
        print(contract_line(spec, last, traced=passes[0]))
        return 0 if failed == 0 else 1
    path = os.path.join(args.out, "BENCH_e2e.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(
            {
                "schema": 1, "seed": args.seed, "seconds": seconds,
                "quick": args.quick, "repeat": args.repeat,
                "workloads": {n: merge(runs, spec) for n, runs in collected.items()},
            },
            f, indent=1, sort_keys=True,
        )
    print(f"\nwrote {path}")
    return 0 if failed == 0 else 1
