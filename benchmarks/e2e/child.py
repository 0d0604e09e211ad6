"""The workload subprocess: set up cold, run one pass, print one JSON line.

``python -m benchmarks.e2e child`` is started by the harness with the
parent's ``time.monotonic()`` reading in ``--t0`` (CLOCK_MONOTONIC is
shared between processes), so set-up time counts the interpreter's own
start.  Heavy imports happen inside :func:`run`, in the order they are
timed.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from .spans import Spans

#: Fixed work of the traced pass, ``(full, quick)``: untraced and traced
#: rounds per batch workload, requests of the closed-loop slice, herds of
#: the open-loop slice.  Counts must repeat exactly for a fixed seed, so
#: none of these is a wall-clock window.
TRACED_ROUNDS = {"fib_narrow": (4, 1), "fib_wide": (3, 1), "nuts_logistic": (2, 1)}
TRACED_REQUESTS = (300, 100)
TRACED_HERDS = (2, 1)
TIER_ROUNDS = (2, 1)
#: The plain-Python loop serves a round's requests this many times over, so
#: one reference sample is milliseconds, not a few hundred microseconds.
REFERENCE_REPEATS = 4
REFERENCE_SAMPLES_PER_HERD = 5


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and count of a timing sample."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return {"median": only, "q1": only, "q3": only, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: List[float], q: float) -> float:
    import numpy as np  # imported (and timed) by set_up long before this

    return float(np.percentile(values, q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up: the compile path, one first call at a time ----------------------


def set_up(workload_name: str, seed: int, t0: float, work_dir: str) -> Dict[str, Any]:
    """Fresh interpreter to first correct result; returns the live objects
    and the per-phase seconds."""
    import numpy as np  # noqa: F401  (timed: first import)
    import repro  # noqa: F401

    from . import workloads

    phases: Dict[str, float] = {"python.import_s": time.monotonic() - t0}
    w = workloads.make_workload(workload_name)

    mark = perf_counter()
    fn = w.compile()
    fn.program
    phases["frontend.compile_s"] = perf_counter() - mark

    mark = perf_counter()
    program = fn.stack_program()
    phases["lowering.lower_s"] = perf_counter() - mark

    mark = perf_counter()
    fn.program_facts()
    phases["stackcheck.verify_s"] = perf_counter() - mark

    mark = perf_counter()
    plan = fn.execution_plan(workloads.EXECUTOR)
    server = None
    if w.kind == "batch":
        w.bind(plan)
    else:
        server = w.make_server(work_dir)
    phases["executors.plan_s"] = perf_counter() - mark

    w.prepare(seed)
    attempted = failed = 0
    try:
        if w.kind == "batch":
            out = w.run()
            setup_s = time.monotonic() - t0
            w.run_reference(0)
            attempted, failed = w.lanes, w.failed(out)
        else:
            n = w.requests(1)[0][0] if w.kind == "closed" else w.schedule(1)[1][0][0]
            handle = first_request(w, server, n)
            setup_s = time.monotonic() - t0
            attempted, failed = 1, int(workloads.request_failed(n, handle))
    except Exception:  # a broken set-up is a failed operation, not a crash
        traceback.print_exc()
        setup_s = time.monotonic() - t0
        attempted, failed = 1, 1

    return {
        "workload": w, "fn": fn, "server": server, "phases": phases,
        "setup_s": setup_s, "attempted": attempted, "failed": failed,
        "ir": {
            "ir.blocks": len(program.blocks),
            "ir.instructions": sum(len(b.ops) + 1 for b in program.blocks),
        },
    }


def first_request(w: Any, server: Any, n: int) -> Any:
    """Serve one request through the workload's own front door."""
    import numpy as np

    if w.kind == "closed":
        handle = server.submit(np.int64(n))
        server.run_until_idle()
        return handle

    async def one() -> Any:
        from repro.serve.aio import AsyncServer

        async with AsyncServer(server) as front:
            handle = await front.submit(np.int64(n))
            await handle.wait()
            return handle.handle

    return asyncio.run(one())


# -- the timed pass ----------------------------------------------------------


def timed_batch(w: Any, seconds: float) -> Dict[str, Any]:
    """Fixed-work rounds until the window closes; after each round the
    reference runs the next slice of the same inputs."""
    rounds: List[float] = []
    ref_rates: List[float] = []
    attempted = failed = items = 0
    k = cycles = 0
    start = perf_counter()
    cycle = 0.0
    while cycles < 3 or perf_counter() - start + cycle <= seconds:
        cycles += 1
        cycle_start = perf_counter()
        attempted += w.lanes
        gc.collect()  # every round starts from a collected heap
        try:
            mark = perf_counter()
            out = w.run()
            spent = perf_counter() - mark
            mark = perf_counter()
            ref = w.run_reference(k)
            ref_rates.append(w.items(ref) / (perf_counter() - mark))
            rounds.append(spent)
            items = w.items(out)
            failed += w.failed(out)
        except Exception:
            traceback.print_exc()
            failed += w.lanes
        k = (k + 1) % w.ref_slices
        cycle = perf_counter() - cycle_start
    return {
        "attempted": attempted, "failed": failed,
        "op_s": rounds, "items_per_op": items, "ref_rates": ref_rates,
        "latencies": rounds,
        "info": {"rounds": len(rounds), "items_per_round": items},
    }


def reference_rate(ns: List[int]) -> float:
    """Requests per second of a plain-Python loop over the same requests."""
    from .workloads import fib_plain

    mark = perf_counter()
    for _ in range(REFERENCE_REPEATS):
        for n in ns:
            fib_plain(n)
    return REFERENCE_REPEATS * len(ns) / (perf_counter() - mark)


def closed_loop(
    server: Any,
    requests: List[Tuple[int, int]],
    clients: int,
    round_requests: int,
    seconds: Optional[float] = None,
    total: Optional[int] = None,
    spans: Optional[Spans] = None,
) -> Dict[str, Any]:
    """``clients`` synchronous clients, each submitting its next request
    when its previous one resolves, until ``seconds`` have passed (stopping
    on a round boundary) or ``total`` requests were submitted; then drain.

    Completions are polled after every tick in which the server's own
    completion counter moved, so the schedule is a function of the logical
    clock alone.  After each round of ``round_requests`` completions the
    plain-Python reference serves the same requests; that pause is taken
    out of every latency and round time it falls into.
    """
    import numpy as np

    from .workloads import request_failed

    tel = server.telemetry
    limit = len(requests) if total is None else min(total, len(requests))
    slots: List[Optional[list]] = [None] * clients
    latencies: List[float] = []
    rounds: List[float] = []
    ref_rates: List[float] = []
    round_ns: List[int] = []
    ids = set()
    state = {"next": 0, "failed": 0, "paused": 0.0, "live": 0}

    def submit(slot: int) -> None:
        while state["next"] < limit:
            index = state["next"]
            state["next"] += 1
            n = requests[index][0]
            try:
                if spans is not None:
                    spans.op = index
                handle = server.submit(np.int64(n))
            except Exception:
                traceback.print_exc()
                state["failed"] += 1
                continue
            if handle.request_id in ids:
                state["failed"] += 1  # a duplicated handle
            ids.add(handle.request_id)
            slots[slot] = [handle, n, perf_counter(), state["paused"]]
            state["live"] += 1
            return
        slots[slot] = None

    start = perf_counter()
    round_start = start
    for slot in range(clients):
        submit(slot)
    measured = None  # latencies[:measured] fall inside the window
    end = start
    seen = 0
    stalled = 0
    while state["live"]:
        server.tick()
        done = tel.completed + tel.failed
        if done == seen:
            stalled += 1
            if stalled > 200_000:  # a lost handle: nothing resolves any more
                break
            continue
        seen = done
        stalled = 0
        now = perf_counter()
        for slot in range(clients):
            entry = slots[slot]
            if entry is None or not entry[0].done():
                continue
            handle, n, submitted, paused_then = entry
            latencies.append(now - submitted - (state["paused"] - paused_then))
            state["failed"] += int(request_failed(n, handle))
            state["live"] -= 1
            end = now
            round_ns.append(n)
            if len(round_ns) == round_requests and measured is None:
                rounds.append(now - round_start)
                ref_rates.append(reference_rate(round_ns))
                round_ns.clear()
                after = perf_counter()
                state["paused"] += after - now
                now = round_start = after
                if seconds is not None and now - start >= seconds:
                    measured = len(latencies)
                    limit = state["next"]  # stop submitting, drain
            submit(slot)
    lost = state["live"]
    return {
        "attempted": state["next"], "failed": state["failed"] + lost,
        "op_s": rounds, "items_per_op": round_requests, "ref_rates": ref_rates,
        "latencies": latencies[:measured],
        "wall_s": end - start - state["paused"], "ticks": server.now,
        "info": {"rounds": len(rounds), "requests": state["next"], "lost": lost},
    }


async def closed_loop_async(
    engine: Any, requests: List[Tuple[int, int]], clients: int, total: int
) -> Dict[str, Any]:
    """The closed loop through ``AsyncServer`` (the ladder's top rung)."""
    import numpy as np

    from repro.serve.aio import AsyncServer

    from .workloads import request_failed

    state = {"next": 0, "failed": 0}

    async def client(front: Any) -> None:
        while state["next"] < total:
            n = requests[state["next"]][0]
            state["next"] += 1
            handle = await front.submit(np.int64(n))
            await handle.wait()
            state["failed"] += int(request_failed(n, handle.handle))

    async with AsyncServer(engine) as front:
        start = perf_counter()
        await asyncio.gather(*(client(front) for _ in range(clients)))
        wall = perf_counter() - start
    return {"attempted": total, "failed": state["failed"], "wall_s": wall,
            "ticks": engine.now}


async def open_loop(w: Any, cluster: Any, herds: int,
                    spans: Optional[Spans] = None) -> Dict[str, Any]:
    """Submit every herd at its due time whatever the fleet is doing; a
    request's latency runs from the instant it was *due*."""
    import numpy as np

    from repro.serve.aio import AsyncServer

    from .workloads import request_failed

    due, requests = w.schedule(herds)
    resolved: List[Optional[float]] = [None] * len(requests)
    lag: List[float] = []
    ref_rates: List[float] = []
    drains: List[float] = []
    backlog: List[int] = []
    ids = set()
    state = {"failed": 0, "outstanding": 0}

    async def waiter(index: int, handle: Any) -> None:
        await handle.wait()
        resolved[index] = perf_counter()
        state["outstanding"] -= 1
        state["failed"] += int(request_failed(requests[index][0], handle.handle))

    async def herd_done(first: int, tasks: List[Any], due_at: float) -> None:
        await asyncio.gather(*tasks)
        last = max(resolved[first:first + w.herd])
        drains.append(last - due_at)
        # a window holds only six herds: sample the reference a few times
        # per herd (the fleet is idle now), or its fast decile is one sample
        ns = [n for n, _ in requests[first:first + w.herd]]
        ref_rates.extend(reference_rate(ns) for _ in range(REFERENCE_SAMPLES_PER_HERD))

    async with AsyncServer(cluster) as front:
        start = perf_counter()
        herd_tasks = []
        tasks: List[Any] = []
        for index, (n, priority) in enumerate(requests):
            due_at = start + due[index]
            delay = due_at - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if index % w.herd == 0:
                backlog.append(state["outstanding"])
            lag.append(perf_counter() - due_at)
            if spans is not None:
                spans.op = index
            try:
                handle = await front.submit(np.int64(n), priority=priority)
            except Exception:
                traceback.print_exc()
                state["failed"] += 1
                resolved[index] = perf_counter()
            else:
                if handle.request_id in ids:
                    state["failed"] += 1  # a duplicated handle
                ids.add(handle.request_id)
                state["outstanding"] += 1
                tasks.append(asyncio.ensure_future(waiter(index, handle)))
            if (index + 1) % w.herd == 0:
                first = index + 1 - w.herd
                herd_tasks.append(
                    asyncio.ensure_future(herd_done(first, tasks, start + due[first]))
                )
                tasks = []
        await asyncio.gather(*herd_tasks)
        wall = perf_counter() - start
    latencies = [resolved[i] - (start + due[i]) for i in range(len(requests))]
    if spans is not None:
        for i, spent in enumerate(latencies):
            spans.add("request", start + due[i], start + due[i] + spent, i)
    return {
        "attempted": len(requests), "failed": state["failed"],
        # one operation of the fleet is draining one herd
        "op_s": drains, "items_per_op": w.herd, "ref_rates": ref_rates,
        "latencies": latencies, "wall_s": wall, "lag": lag,
        "info": {
            "herds": herds, "requests": len(requests),
            "offered_per_s": w.rate,
            "completed_per_s": len(requests) / wall,
            "backlog_at_epoch_max": max(backlog),
            "generator_lag_ms_p95": percentile(lag, 95) * 1e3,
        },
    }


def end_to_end(run: Dict[str, Any], setup_s: float,
               tail: float) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of one timed pass (units are BENCHMARK.json's;
    the harness attaches them).  ``tail`` is the workload's fixed
    ``tail_percentile``, reported as ``latency_p95_ms``.

    Rates are read off the *fast decile* of their samples: the 10th
    percentile of the operation times, the 90th of the reference's rates.
    The noise of this shared VM is one-sided — bursts of a few seconds in
    which everything runs 10-40 % slower, covering anything from a tenth to
    most of a window — so from run to run the fast decile spreads no
    further than the median does, and about half as far on the workloads
    with many short rounds (README.md has the numbers).  The median and the
    slow quartile are printed beside it.  Latency percentiles are what they
    say.
    """
    ops = quartiles(run["op_s"])
    refs = quartiles(run["ref_rates"])
    lat = quartiles(run["latencies"])
    items = run["items_per_op"]
    fast_op = percentile(run["op_s"], 10) if ops["n"] else 0.0
    fast_ref = percentile(run["ref_rates"], 90) if refs["n"] else 0.0
    throughput = items / fast_op if fast_op else 0.0
    return {
        "setup_s": {"value": setup_s, "n": 1},
        "throughput_per_s": {
            "value": throughput, "n": ops["n"],
            "median": items / ops["median"] if ops["median"] else 0.0,
            "slow_quartile": items / ops["q3"] if ops["q3"] else 0.0,
        },
        "speedup_vs_reference": {
            "value": throughput / fast_ref if fast_ref else 0.0, "n": refs["n"],
            "reference_per_s": fast_ref,
        },
        "latency_p50_ms": {
            "value": lat["median"] * 1e3, "n": lat["n"],
            "q1": lat["q1"] * 1e3, "q3": lat["q3"] * 1e3,
        },
        "latency_p95_ms": {
            "value": percentile(run["latencies"], tail) * 1e3 if lat["n"] else 0.0,
            "n": lat["n"], "percentile": tail,
        },
        "peak_rss_mb": {"value": peak_rss_mb(), "n": 1},
    }


# -- the traced pass ---------------------------------------------------------


def traced_batch(w: Any, fn: Any, spans: Spans, quick: bool) -> Dict[str, Any]:
    """Alternate untraced and traced rounds of the same inputs, then time
    the other executor tiers and Algorithm 1 on them."""
    from repro.vm.instrumentation import Instrumentation

    from .workloads import KernelClock

    n_rounds = TRACED_ROUNDS[w.name][quick]
    clock = KernelClock()
    registry = clock.registry(fn.registry)
    plain: List[float] = []
    traced: List[float] = []
    busy: List[float] = []
    counts: List[Tuple[int, ...]] = []
    failed = 0
    instr = None
    for r in range(n_rounds):
        mark = perf_counter()
        expected = w.run()
        plain.append(perf_counter() - mark)

        instr = Instrumentation()
        busy_before, grad_before = clock.busy, clock.gradient_busy
        spans.op = r
        spans.begin("round")
        spans.begin("vm.run_pc")
        mark = perf_counter()
        out = w.run(registry=registry, instrumentation=instr)
        traced.append(perf_counter() - mark)
        spans.end()
        spans.end()
        busy.append(clock.busy - busy_before)
        counts.append((instr.steps, instr.kernel_calls, instr.host_dispatches,
                       instr.push_lanes, instr.pop_lanes))
        failed += w.failed(out) + (0 if w.same(out, expected) else w.lanes)
    if len(set(counts)) != 1:
        print(f"counts differ between rounds: {counts}", file=sys.stderr)
        failed += w.lanes
    items = w.items(out)
    round_s = statistics.median(plain)
    traced_s = statistics.median(traced)
    busy_s = statistics.median(busy)
    steps, kernel_calls, dispatches, push_lanes, pop_lanes = counts[-1]
    layers = {
        "vm.steps": steps, "vm.kernel_calls": kernel_calls,
        "vm.dispatches": dispatches, "vm.push_lanes": push_lanes,
        "vm.pop_lanes": pop_lanes,
        # useful primitive lane-slots over the lane-slots the machine ran
        "vm.lane_utilization": instr.utilization(),
        "vm.step_us": round_s / steps * 1e6,
        "kernels.busy_s": busy_s,
        "kernels.calls": clock.calls // n_rounds,
        "kernels.us_per_call": clock.busy / clock.calls * 1e6,
        "kernels.gradient_busy_s": clock.gradient_busy / n_rounds,
        "vm.self_s": traced_s - busy_s,
        "vm.self_share": (traced_s - busy_s) / traced_s,
        "bench.trace_overhead_share": 1.0 - round_s / traced_s,
    }
    tier_rounds = TIER_ROUNDS[quick]
    for tier in w.tiers:
        best = min(timed_call(lambda: w.run(executor=tier)) for _ in range(tier_rounds))
        layers[f"executors.{tier}_over_fused"] = round_s / best
    if w.has_local:
        best = min(timed_call(w.run_local) for _ in range(tier_rounds))
        layers["local_static.throughput_per_s"] = items / best
    return {"attempted": n_rounds * w.lanes, "failed": failed, "layers": layers}


def timed_call(call: Callable[[], Any]) -> float:
    mark = perf_counter()
    call()
    return perf_counter() - mark


def instrument_server(w: Any, server: Any, spans: Spans, depths: List[int]) -> None:
    """Install the instance-level span wrappers on one server."""
    engines = w.engines(server)
    for engine in engines:
        spans.wrap(engine.vm, "step_lanes", "vm.step_lanes")
    ticks = {"n": 0}

    def before_tick() -> None:
        spans.op = ticks["n"]
        ticks["n"] += 1
        depths.append(sum(e.queue.depth() for e in engines))

    if w.kind == "open":
        for engine in engines:
            spans.wrap(engine, "tick", "engine.tick")
        spans.wrap(server, "tick", "cluster.tick", before=before_tick)
        journal = server.journal
        spans.wrap(journal, "record_submit", "journal.append")
        spans.wrap(journal, "record_complete", "journal.append")
        spans.wrap(engines[0].spill_store, "put", "spill.put")
    else:
        spans.wrap(server, "tick", "engine.tick", before=before_tick)
    spans.wrap(server, "submit", "submit")


def serve_layers(w: Any, server: Any, spans: Spans, clock: Any,
                 depths: List[int]) -> Dict[str, float]:
    """Per-layer numbers of one traced serve slice, from the benchmark's
    spans and the server's public telemetry."""
    totals = spans.totals()
    tel = server.telemetry
    engines = w.engines(server)

    def mean_us(name: str, field: str = "total_s") -> float:
        row = totals.get(name)
        return row[field] / row["count"] * 1e6 if row else 0.0

    instrs = [e.vm.instr for e in engines]
    step_s = totals["vm.step_lanes"]["total_s"]
    layers = {
        "vm.steps": sum(i.steps for i in instrs),
        "vm.kernel_calls": sum(i.kernel_calls for i in instrs),
        "vm.dispatches": sum(i.host_dispatches for i in instrs),
        "vm.push_lanes": sum(i.push_lanes for i in instrs),
        "vm.pop_lanes": sum(i.pop_lanes for i in instrs),
        "vm.lane_utilization": (
            sum(i.lane_live for i in instrs) / max(1, sum(i.lane_slots for i in instrs))
        ),
        "vm.step_us": mean_us("vm.step_lanes"),
        "kernels.busy_s": clock.busy, "kernels.calls": clock.calls,
        "kernels.us_per_call": clock.busy / clock.calls * 1e6,
        "kernels.gradient_busy_s": clock.gradient_busy,
        "vm.self_s": step_s - clock.busy,
        "vm.self_share": (step_s - clock.busy) / step_s,
        "engine.ticks": totals["engine.tick"]["count"],
        "engine.tick_us": mean_us("engine.tick"),
        "engine.self_us_per_tick": mean_us("engine.tick", "self_s"),
        "engine.submit_us": mean_us("submit"),
        "engine.lane_utilization": (
            tel.fleet_utilization() if w.kind == "open" else tel.lane_utilization()
        ),
        "engine.preemptions": tel.preemptions, "engine.resumes": tel.resumes,
        "engine.spills": tel.spills, "engine.rehydrations": tel.rehydrations,
        "queue.wait_ticks_mean": tel.mean_queue_wait(),
        "queue.depth_p95": percentile([float(d) for d in depths], 95),
    }
    if w.kind == "open":
        layers.update({
            "cluster.tick_us": mean_us("cluster.tick"),
            "cluster.self_us_per_tick": mean_us("cluster.tick", "self_s"),
            "cluster.steals": tel.steals,
            "cluster.completion_skew": tel.completion_skew(),
            # what AsyncServer does between two ticks of a busy fleet; the
            # median skips the few gaps in which the fleet sat idle
            "aio.overhead_us_per_tick": statistics.median(spans.gaps("cluster.tick")) * 1e6,
            "durability.journal_append_us": mean_us("journal.append"),
            "durability.journal_bytes": os.path.getsize(server.journal.path),
            "durability.spill_put_us": mean_us("spill.put"),
        })
    return layers


def codec_layers(fn: Any) -> Dict[str, float]:
    """Snapshot a mid-flight lane and round-trip it through the wire format."""
    import numpy as np

    from repro.serve.engine import Engine
    from repro.vm.program_counter import LaneSnapshot

    from .workloads import EXECUTOR

    engine = Engine(fn, 4, executor=EXECUTOR)
    handle = engine.submit(np.int64(12))
    for _ in range(200):
        engine.tick()
    vm = engine.vm
    samples = []
    size = 0
    for _ in range(50):
        mark = perf_counter()
        data = vm.snapshot_lane(handle.lane).to_bytes()
        LaneSnapshot.from_bytes(
            data, vm.program, facts=engine.plan.facts,
            max_stack_depth=vm.max_stack_depth,
        )
        samples.append(perf_counter() - mark)
        size = len(data)
    return {
        "snapshot_codec.roundtrip_us": statistics.median(samples) * 1e6,
        "snapshot_codec.bytes": size,
    }


def ladder_layers(w: Any, work_dir: str, quick: bool) -> Tuple[Dict[str, float], int]:
    """Wall microseconds per (fleet) tick of each feature-ladder rung on one
    fixed slice of the serve_bare mix; returns the layers and the number of
    failed requests.

    The whole ladder is climbed ``LADDER_PASSES`` times and each rung keeps
    its fastest pass: this machine drifts by more between two single passes
    than the trace and journal rungs cost.
    """
    from .workloads import LADDER_PASSES, LADDER_REQUESTS, ladder_rungs

    total = TRACED_REQUESTS[1] if quick else LADDER_REQUESTS
    requests = w.requests(total)
    layers: Dict[str, float] = {}
    failed = 0
    for climb in range(1 if quick else LADDER_PASSES):
        for metric, make_server, is_async in ladder_rungs(work_dir, climb):
            server = make_server()
            if is_async:
                run = asyncio.run(closed_loop_async(server, requests, w.clients, total))
            else:
                run = closed_loop(server, requests, w.clients, w.round_requests, total=total)
            failed += run["failed"]
            us_per_tick = run["wall_s"] / run["ticks"] * 1e6
            layers[metric] = min(us_per_tick, layers.get(metric, us_per_tick))
            if quick:
                break
    if "ladder.engine_trace_us" in layers:
        layers["observe.trace_overhead_share"] = (
            1.0 - layers["ladder.engine_bare_us"] / layers["ladder.engine_trace_us"]
        )
    return layers, failed


def traced_serve(w: Any, fn: Any, spans: Spans, work_dir: str,
                 quick: bool) -> Dict[str, Any]:
    """One untraced and one traced slice of the same requests on fresh
    servers; then the ladder (closed loop) or the codec (open loop)."""
    from .workloads import KernelClock

    def fresh_dir(name: str) -> str:
        path = os.path.join(work_dir, name)
        os.makedirs(path)
        return path

    def slice_of(server: Any, traced_spans: Optional[Spans]) -> Dict[str, Any]:
        if w.kind == "open":
            return asyncio.run(
                open_loop(w, server, TRACED_HERDS[quick], spans=traced_spans)
            )
        total = TRACED_REQUESTS[quick]
        return closed_loop(server, w.requests(total), w.clients, w.round_requests,
                           total=total, spans=traced_spans)

    plain = slice_of(w.make_server(fresh_dir("plain")), None)

    clock = KernelClock()
    depths: List[int] = []
    server = w.make_server(fresh_dir("traced"), registry=clock.registry(fn.registry))
    instrument_server(w, server, spans, depths)
    traced = slice_of(server, spans)

    layers = serve_layers(w, server, spans, clock, depths)
    layers["bench.trace_overhead_share"] = 1.0 - plain["wall_s"] / traced["wall_s"]
    failed = plain["failed"] + traced["failed"]
    if w.kind == "open":
        layers["aio.generator_lag_ms_p95"] = percentile(traced["lag"], 95) * 1e3
        layers.update(codec_layers(fn))
    else:
        rungs, ladder_failed = ladder_layers(w, work_dir, quick)
        layers.update(rungs)
        failed += ladder_failed
    return {
        "attempted": plain["attempted"] + traced["attempted"], "failed": failed,
        "layers": layers,
    }


# -- entry -------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, mode: str, t0: float,
        work_dir: str, trace_path: Optional[str], quick: bool) -> Dict[str, Any]:
    setup = set_up(workload, seed, t0, work_dir)
    w, fn, server = setup["workload"], setup["fn"], setup["server"]
    result: Dict[str, Any] = {
        "workload": workload, "mode": mode, "seed": seed,
        "setup_s": setup["setup_s"],
        "attempted": setup["attempted"], "failed": setup["failed"],
    }
    if mode == "setup" or setup["failed"]:
        return result

    if mode == "timed":
        if w.kind == "batch":
            out = timed_batch(w, seconds)
        elif w.kind == "closed":
            requests = w.requests(int(seconds * 1000) + 1000)
            out = closed_loop(server, requests, w.clients, w.round_requests,
                              seconds=seconds)
        else:
            herds = max(2, int(seconds // w.period))
            out = asyncio.run(open_loop(w, server, herds))
        result["end_to_end"] = end_to_end(out, setup["setup_s"], w.tail_percentile)
        result["info"] = out["info"]
    else:
        spans = Spans()
        if w.kind == "batch":
            out = traced_batch(w, fn, spans, quick)
        else:
            out = traced_serve(w, fn, spans, work_dir, quick)
        layers = dict(setup["phases"])
        layers.update(setup["ir"])
        layers.update(out["layers"])
        result["per_layer"] = layers
        if trace_path:
            spans.write(trace_path, workload)
    result["attempted"] += out["attempted"]
    result["failed"] += out["failed"]
    return result


def main(args: Any) -> int:
    result = run(
        args.workload, args.seed, args.seconds, args.mode, args.t0,
        args.work, args.trace_out, args.quick,
    )
    print(json.dumps(result))
    return 0
