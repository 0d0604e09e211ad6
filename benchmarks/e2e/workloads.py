"""Seeded generators, the plain-Python oracle, and the five workloads.

Importing this module compiles nothing: ``@autobatch`` is lazy, and every
workload builds its program, inputs and servers in methods the child
process calls (and times) one at a time.

Inputs are *balanced*: a seed shuffles a fixed multiset instead of drawing
it, so two seeds do the same amount of work in a different lane or arrival
order.  The benchmark compares commits, not seeds; with iid draws the
16-lane batch's work would swing by 2x on whether a ``fib(15)`` was drawn,
and NUTS throughput by 10% on how the chains' tree depths happen to align.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro import autobatch
from repro.frontend.registry import Primitive, PrimitiveRegistry

#: Executor, masking mode and scheduler of every workload: the documented
#: serving defaults (``mode``/``scheduler`` are the library defaults and are
#: left unspelled at the call sites below).
EXECUTOR = "fused"


@autobatch
def fib(n):
    if n <= 1:
        return 1
    return fib(n - 2) + fib(n - 1)


def fib_plain(n: int) -> int:
    """The oracle: the same recursion in plain Python, never compiled."""
    if n <= 1:
        return 1
    return fib_plain(n - 2) + fib_plain(n - 1)


#: ``fib_plain`` of every argument any generator below can produce.
FIB_MAX = 15
FIB_TABLE = np.array([fib_plain(n) for n in range(FIB_MAX + 1)], dtype=np.int64)


# -- seeded generators -------------------------------------------------------


def balanced(rng: np.random.RandomState, kinds: Sequence[Any], count: int) -> List[Any]:
    """``count`` draws from ``kinds`` as shuffled whole copies of ``kinds``.

    Every block of ``len(kinds)`` consecutive draws holds each kind once, so
    any prefix longer than a few blocks carries the same work whatever the
    seed; only the order is random.
    """
    out: List[Any] = []
    while len(out) < count:
        out.extend(kinds[i] for i in rng.permutation(len(kinds)))
    return out[:count]


def balanced_lanes(seed: int, values: Sequence[int], lanes: int) -> np.ndarray:
    """A ``lanes``-wide batch over ``values``: equal shares, seeded lane order.

    The ``lanes % len(values)`` left-over lanes take evenly spaced values, so
    the multiset — and with it the batched step count and the reference's
    work — is the same for every seed.
    """
    values = list(values)
    reps, extra = divmod(lanes, len(values))
    pool = values * reps + [
        values[(2 * i + 1) * len(values) // (2 * extra)] for i in range(extra)
    ]
    rng = np.random.RandomState(seed)
    return np.asarray(pool, dtype=np.int64)[rng.permutation(lanes)]


#: The serving request mix: n ~ {4..12}, one request in five at priority 5.
REQUEST_KINDS = [(n, p) for n in range(4, 13) for p in (5, 0, 0, 0, 0)]


def request_stream(seed: int, count: int) -> List[Tuple[int, int]]:
    """``count`` ``(n, priority)`` requests of the serving mix, seeded order."""
    return balanced(np.random.RandomState(seed), REQUEST_KINDS, count)


def herd_epochs(seed: int, herds: int, period: float) -> np.ndarray:
    """Due times of ``herds`` arrival bursts: one per period, seeded jitter.

    The jitter is a quarter period either way, so two herds never arrive
    closer than half a period and the schedule's length does not depend on
    the seed by more than that.
    """
    rng = np.random.RandomState(seed + 1)
    jitter = rng.uniform(-0.25, 0.25, size=herds) * period
    return (np.arange(herds) + 0.5) * period + jitter


# -- kernel timing -----------------------------------------------------------


class KernelClock:
    """Busy time and call count of every registry primitive (traced pass)."""

    def __init__(self) -> None:
        self.busy = 0.0
        self.gradient_busy = 0.0
        self.calls = 0

    def registry(self, parent: PrimitiveRegistry) -> PrimitiveRegistry:
        """A child of ``parent`` whose primitives are timing wrappers."""
        child = parent.child()
        for name in parent.names():
            prim = parent.get(name)
            child.register(
                Primitive(
                    name=prim.name,
                    fn=self._timed(prim.fn, "gradient" in prim.tags),
                    n_inputs=prim.n_inputs,
                    n_outputs=prim.n_outputs,
                    cost_weight=prim.cost_weight,
                    tags=prim.tags,
                )
            )
        return child

    def _timed(self, fn, is_gradient: bool):
        def timed(*args):
            start = perf_counter()
            out = fn(*args)
            spent = perf_counter() - start
            self.busy += spent
            self.calls += 1
            if is_gradient:
                self.gradient_busy += spent
            return out

        return timed


# -- batch workloads ---------------------------------------------------------


class Batch:
    """What the batch workloads share: one machine-wide batch of ``lanes``
    members, of which the reference runs one of ``ref_slices`` equal slices
    per round."""

    kind = "batch"
    #: a window holds 14-100 rounds, too few for a tail: ``latency_p95_ms``
    #: repeats the median here (a driver wants every metric from every
    #: workload), and is a true 95th percentile on the serve workloads
    tail_percentile = 50.0
    lanes: int
    ref_slices: int
    max_stack_depth: int

    def bind(self, plan: Any) -> Any:
        """The first machine bound to ``plan`` (this is where fused blocks
        are generated)."""
        from repro.vm.program_counter import ProgramCounterVM

        return ProgramCounterVM(
            plan, batch_size=self.lanes, max_stack_depth=self.max_stack_depth
        )

    def _slice(self, k: int) -> slice:
        width = self.lanes // self.ref_slices
        return slice(k * width, (k + 1) * width)


class FibBatch(Batch):
    """``fib.run_pc`` over one balanced batch of ``lanes`` arguments."""

    tiers = ("eager", "superblock")

    def __init__(self, name: str, lanes: int, ref_slices: int, local: bool):
        self.name = name
        self.lanes = lanes
        self.ref_slices = ref_slices
        self.has_local = local
        self.max_stack_depth = 32

    def compile(self) -> Any:
        return fib

    def prepare(self, seed: int) -> None:
        self.ns = balanced_lanes(seed, range(6, FIB_MAX + 1), self.lanes)

    def run(self, executor: str = EXECUTOR, **options: Any) -> np.ndarray:
        return fib.run_pc(
            self.ns, executor=executor, max_stack_depth=self.max_stack_depth,
            **options,
        )

    def run_local(self) -> np.ndarray:
        return fib.run_local(self.ns)

    def run_reference(self, k: int) -> np.ndarray:
        return fib.run_reference(self.ns[self._slice(k)])

    def items(self, outputs: np.ndarray) -> int:
        return int(outputs.shape[0])

    def failed(self, outputs: np.ndarray) -> int:
        """Lanes of ``outputs`` that differ from the oracle."""
        outputs = np.asarray(outputs)
        if outputs.dtype != np.int64 or outputs.shape != self.ns.shape:
            return self.lanes
        return int(np.count_nonzero(outputs != FIB_TABLE[self.ns]))

    def same(self, a: np.ndarray, b: np.ndarray) -> bool:
        return a.dtype == b.dtype and np.array_equal(a, b)


class NutsLogistic(Batch):
    """The paper's workload: batched NUTS on Bayesian logistic regression,
    one chain per lane."""

    name = "nuts_logistic"
    tiers = ()
    has_local = True
    lanes = 128
    ref_slices = 4
    args = dict(step_size=0.05, n_trajectories=4, max_depth=6, n_leapfrog=4)
    max_stack_depth = args["max_depth"] + 8  # NutsKernel.run's own default
    #: positions are float sums of 1000-term dot products, which BLAS orders
    #: differently for a (20,) vector and a (Z, 20) matrix; set from the
    #: dtype (float64, ~1e4 accumulated operations), before any run.  The
    #: integer outputs (RNG counters, gradient counts) pin every branch the
    #: sampler took and are compared bitwise.
    position_rtol = 1e-9

    def compile(self) -> Any:
        from repro.nuts.kernel import NutsKernel
        from repro.targets.logistic import BayesianLogisticRegression

        self.target = BayesianLogisticRegression(n_data=1000, n_features=20, seed=0)
        self.kernel = NutsKernel(self.target)
        return self.kernel.functions.nuts_chain

    def prepare(self, seed: int) -> None:
        order = np.random.RandomState(seed).permutation(self.lanes)
        self.q0 = self.target.initial_state(self.lanes, seed=0)[order]
        self.ctr = self.kernel.initial_rng(self.lanes, seed=0)[order]
        self._reference: Dict[int, Any] = {}

    def _unpack(self, result: Any) -> Tuple[np.ndarray, ...]:
        return (result.positions, result.grad_evals, result.rng)

    def run(self, executor: str = EXECUTOR, **options: Any) -> Tuple[np.ndarray, ...]:
        if not options and executor == EXECUTOR:
            return self._unpack(
                self.kernel.run(self.q0, strategy="pc_fused", rng=self.ctr, **self.args)
            )
        # NutsKernel.run takes neither registry= nor instrumentation=, so the
        # traced pass calls the program it would call, with its inputs.
        z = self.lanes
        a = self.args
        inputs = (
            self.q0,
            np.full(z, a["step_size"]),
            np.full(z, float(a["max_depth"])),
            np.full(z, float(a["n_leapfrog"])),
            np.full(z, float(a["n_trajectories"])),
            np.zeros(z),
            self.ctr,
        )
        out = self.kernel.functions.nuts_chain.run_pc(
            *inputs, executor=executor, max_stack_depth=self.max_stack_depth,
            **options,
        )
        return tuple(np.asarray(x) for x in out)

    def run_local(self) -> Tuple[np.ndarray, ...]:
        return self._unpack(
            self.kernel.run(self.q0, strategy="local", rng=self.ctr, **self.args)
        )

    def run_reference(self, k: int) -> Tuple[np.ndarray, ...]:
        sl = self._slice(k)
        out = self._unpack(
            self.kernel.run(
                self.q0[sl], strategy="reference", rng=self.ctr[sl], **self.args
            )
        )
        self._reference[k] = out
        return out

    def items(self, outputs: Tuple[np.ndarray, ...]) -> int:
        return int(np.sum(outputs[1]))

    def failed(self, outputs: Tuple[np.ndarray, ...]) -> int:
        """Chains that differ from the reference, over every slice the
        reference has run so far."""
        bad = 0
        for k, (ref_q, ref_ng, ref_ctr) in self._reference.items():
            q, ng, ctr = (np.asarray(x)[self._slice(k)] for x in outputs)
            if q.shape != ref_q.shape:
                bad += int(ref_q.shape[0])
                continue
            close = np.isclose(q, ref_q, rtol=self.position_rtol, atol=0.0)
            bad += int(np.count_nonzero(
                (ng != ref_ng) | (ctr != ref_ctr) | ~np.all(close, axis=-1)
            ))
        return bad

    def same(self, a: Tuple[np.ndarray, ...], b: Tuple[np.ndarray, ...]) -> bool:
        return all(np.array_equal(x, y) for x, y in zip(a, b))


# -- serve workloads ---------------------------------------------------------


class ServeBare:
    """A 16-lane engine with every optional feature off, closed loop; a
    round is 90 completions, two whole copies of the request mix."""

    kind = "closed"
    name = "serve_bare"
    tail_percentile = 95.0
    lanes = 16
    clients = 32
    round_requests = 90

    def compile(self) -> Any:
        return fib

    def prepare(self, seed: int) -> None:
        self.seed = seed

    def requests(self, count: int) -> List[Tuple[int, int]]:
        return [(n, 0) for n, _ in request_stream(self.seed, count)]

    def make_server(self, work_dir: str, registry: Any = None) -> Any:
        from repro.serve.engine import Engine

        return Engine(fib, self.lanes, executor=EXECUTOR, registry=registry)

    def engines(self, server: Any) -> List[Any]:
        return [server]


class ServeFleet:
    """A 4x4 cluster with every feature armed, behind the asyncio front door.

    Open loop: requests arrive in *herds* of 90 — two whole copies of the
    request mix, so every herd carries the same work — one herd per
    ``period`` seconds with seeded jitter; the offered rate is ``herd /
    period``.  A herd's priority-0 requests are all due at its epoch and its
    priority-5 fifth ``urgent_delay`` seconds later, when every lane is
    running priority-0 work: each shard then evicts its lanes for them and
    the evicted snapshots overflow the resident cap.  Independent Poisson
    arrivals at a rate this fleet sustains (20-55 requests/s here) never
    fill its 16 lanes, and a herd that is due all at once seats its urgent
    requests first; either way preemption and spilling stay armed but idle,
    which is not the path this workload exists to time.
    """

    kind = "open"
    name = "serve_fleet"
    tail_percentile = 95.0
    shards = 4
    lanes = 4
    herd = 90
    period = 3.2
    urgent_delay = 0.1

    def compile(self) -> Any:
        return fib

    def prepare(self, seed: int) -> None:
        self.seed = seed

    @property
    def rate(self) -> float:
        return self.herd / self.period

    def schedule(self, herds: int) -> Tuple[List[float], List[Tuple[int, int]]]:
        """Due time (seconds from the start) and ``(n, priority)`` of every
        request of ``herds`` herds, in submission order."""
        stream = request_stream(self.seed, herds * self.herd)
        due: List[float] = []
        requests: List[Tuple[int, int]] = []
        for h, epoch in enumerate(herd_epochs(self.seed, herds, self.period)):
            members = stream[h * self.herd:(h + 1) * self.herd]
            members.sort(key=lambda request: request[1])  # stable: urgent last
            requests.extend(members)
            due.extend(
                float(epoch) + (self.urgent_delay if priority else 0.0)
                for _, priority in members
            )
        return due, requests

    def make_server(self, work_dir: str, registry: Any = None) -> Any:
        from repro.serve.cluster import Cluster
        from repro.serve.durability import Journal

        return Cluster(
            fib, self.shards, self.lanes, executor=EXECUTOR, registry=registry,
            steal=True, preempt=True,
            journal=Journal(os.path.join(work_dir, "journal.jsonl")),
            max_resident_snapshots=2,
            spill_store=os.path.join(work_dir, "spill"),
        )

    def engines(self, server: Any) -> List[Any]:
        return list(server.engines)


def request_failed(n: int, handle: Any) -> bool:
    """Whether a resolved request's output differs from the oracle."""
    if handle.exception() is not None:
        return True
    value = np.asarray(handle.result())
    return value.dtype != np.int64 or value.shape != () or int(value) != int(FIB_TABLE[n])


# -- the feature ladder ------------------------------------------------------

#: Requests of the serve_bare mix every ladder rung serves, and how many
#: times the ladder is climbed (each rung reports its fastest climb).
LADDER_REQUESTS = 200
LADDER_PASSES = 2


def ladder_rungs(work_dir: str, climb: int) -> Iterator[Tuple[str, Any, bool]]:
    """``(metric, make_server, is_async)`` per rung, cheapest first; each
    rung's difference from the one below it is that layer's cost."""
    from repro.serve.cluster import Cluster
    from repro.serve.durability import Journal
    from repro.serve.engine import Engine

    def engine(**features: Any) -> Any:
        return lambda: Engine(fib, ServeBare.lanes, executor=EXECUTOR, **features)

    yield "ladder.engine_bare_us", engine(), False
    yield "ladder.engine_preempt_idle_us", engine(preempt=True), False
    yield "ladder.engine_trace_us", engine(trace=True), False
    yield "ladder.engine_journal_us", engine(
        journal=Journal(os.path.join(work_dir, f"ladder{climb}.jsonl"))
    ), False
    yield "ladder.cluster_4x4_us", (
        lambda: Cluster(fib, ServeFleet.shards, ServeFleet.lanes, executor=EXECUTOR)
    ), False
    yield "ladder.aio_us", engine(), True


def make_workload(name: str) -> Any:
    """A fresh workload object (it holds the prepared inputs of one run)."""
    factories = {
        "fib_narrow": lambda: FibBatch(name, lanes=16, ref_slices=1, local=True),
        "fib_wide": lambda: FibBatch(name, lanes=4096, ref_slices=4, local=False),
        "nuts_logistic": NutsLogistic,
        "serve_bare": ServeBare,
        "serve_fleet": ServeFleet,
    }
    if name not in factories:
        raise ValueError(f"unknown workload {name!r}; known: {sorted(factories)}")
    return factories[name]()
