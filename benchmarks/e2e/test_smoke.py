"""Smoke test of the benchmark itself: the spec is well formed and a quick
run emits what it declares.  Two workloads, run side by side, ~10 s."""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_is_well_formed():
    spec = load_spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["benchmarks/e2e"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = spec["end_to_end"] + spec["per_layer"]
    for metric in metrics:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    names = [x["name"] for x in spec["workloads"] + metrics]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_compare_reads_the_spread_before_the_medians():
    from .compare import verdict

    def side(*values):
        return {"value": sorted(values)[len(values) // 2], "values": list(values)}

    steady, same = side(100, 101, 102), side(101, 102, 103)
    assert verdict(steady, same, "lower", 0.10) == "within bound"
    assert verdict(steady, side(120, 121, 122), "lower", 0.10) == "worse"
    assert verdict(steady, side(80, 81, 82), "lower", 0.10) == "better"
    # a side whose runs disagree by more than the bound proves nothing,
    # equal medians included; unless every run of B beats every run of A
    noisy = side(90, 101, 112)
    assert verdict(steady, noisy, "lower", 0.10) == "unresolved"
    assert verdict(noisy, side(120, 121, 122), "lower", 0.10) == "unresolved"
    assert verdict(noisy, side(70, 80, 89), "lower", 0.10) == "better"
    assert verdict(side(70, 80, 89), noisy, "higher", 0.10) == "better"


def start(*args):
    return subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--quick", *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )


def finish(proc):
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0, out
    return out


def test_quick_run_emits_every_declared_metric(tmp_path):
    spec = load_spec()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    # fib_narrow as a person runs it (both passes, result file); serve_bare
    # as a driver runs it (one pass per call, the result on the last line)
    narrow = start("--workload", "fib_narrow", "--seed", "5", "--out", str(tmp_path))
    driver_args = ("--workload", "serve_bare", "--seed", "5", "--out", str(tmp_path))
    timed = json.loads(finish(start(*driver_args, "--trace", "0")).splitlines()[-1])
    traced = json.loads(finish(start(*driver_args, "--trace", "1")).splitlines()[-1])
    finish(narrow)

    for line, declared in ((timed, end_to_end), (traced, per_layer)):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in timed["metrics"].values())
    served = {name for name, m in traced["metrics"].items() if m["value"]}
    assert {"engine.ticks", "engine.self_us_per_tick", "queue.depth_p95",
            "vm.step_us", "kernels.busy_s", "ladder.engine_bare_us"} <= served
    assert (tmp_path / "TRACE_e2e_serve_bare.json").exists()

    with open(tmp_path / "BENCH_e2e.json", encoding="utf-8") as f:
        result = json.load(f)["workloads"]["fib_narrow"]
    assert result["failed"] == 0 and result["failed_share"] == 0
    assert set(result["end_to_end"]) == set(end_to_end)
    assert all(m["value"] > 0 for m in result["end_to_end"].values())
    emitted = set(result["per_layer"])
    assert emitted <= set(per_layer)  # nothing undeclared
    assert {n for n in per_layer if n.split(".")[0] in
            ("python", "frontend", "lowering", "stackcheck", "ir", "vm",
             "executors", "local_static", "bench")} <= emitted
