"""User-facing autobatching API.

::

    from repro import autobatch

    @autobatch
    def fib(n):
        if n <= 1:
            return 1
        return fib(n - 2) + fib(n - 1)

    fib.run_local(np.array([3, 7, 4, 5]))   # Algorithm 1
    fib.run_pc(np.array([6, 7, 8, 9]))      # Algorithm 2
    fib(10)                                  # plain single-example Python

Compilation is lazy (triggered by the first use of ``.ir`` or a run method)
so that recursive and mutually recursive references resolve against fully
populated module globals.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.frontend.cfg_builder import CompiledFunction, lower_function
from repro.frontend.parser import function_namespace, get_function_ast
from repro.frontend.registry import PrimitiveRegistry, default_registry
from repro.ir.builder import ProgramBuilder
from repro.ir.instructions import Function, Program, StackProgram
from repro.ir.validate import validate_program
from repro.lowering.pipeline import LoweringOptions, normalize_lowering_options


class AutobatchFunction:
    """A Python function plus its compiled autobatchable forms."""

    def __init__(
        self,
        pyfunc: Callable[..., Any],
        registry: Optional[PrimitiveRegistry] = None,
        name: Optional[str] = None,
    ):
        self.pyfunc = pyfunc
        self.name = name or pyfunc.__name__
        self.registry = registry or default_registry
        self._compiled: Optional[CompiledFunction] = None
        self._program: Optional[Program] = None
        self._callee_objects: Dict[str, "AutobatchFunction"] = {}
        self._stack_programs: Dict[LoweringOptions, StackProgram] = {}
        self._execution_plans: Dict[Tuple, Any] = {}
        self._program_facts: Dict[LoweringOptions, Any] = {}
        functools.update_wrapper(self, pyfunc, updated=())

    # -- plain Python execution (the reference semantics) --------------------

    def __call__(self, *args: Any) -> Any:
        return self.pyfunc(*args)

    def run_reference(self, *inputs: np.ndarray) -> Any:
        """Run each batch member through plain Python, one at a time.

        This is the paper's "Eager mode without autobatching" baseline and
        the differential-testing oracle.
        """
        from repro.vm.local_static import batch_arrays

        batch = batch_arrays(inputs)
        z = batch[0].shape[0]
        results = [self.pyfunc(*(x[b] for x in batch)) for b in range(z)]
        if isinstance(results[0], tuple):
            n = len(results[0])
            return tuple(np.stack([np.asarray(r[i]) for r in results]) for i in range(n))
        return np.stack([np.asarray(r) for r in results])

    # -- compilation ---------------------------------------------------------

    def _compile(self) -> CompiledFunction:
        if self._compiled is None:
            node = get_function_ast(self.pyfunc)
            namespace = function_namespace(self.pyfunc)
            self._compiled = lower_function(
                self.name, node, namespace, self.registry, self_object=self
            )
        return self._compiled

    @property
    def ir(self) -> Function:
        """This function's callable-IR control flow graph."""
        return self._compile().ir

    @property
    def program(self) -> Program:
        """The whole callable-IR program: this function plus its transitive callees."""
        if self._program is None:
            builder = ProgramBuilder(main=self.name)
            seen: Dict[str, AutobatchFunction] = {}
            frontier = [self]
            while frontier:
                fn = frontier.pop()
                if fn.name in seen:
                    if seen[fn.name] is not fn:
                        raise ValueError(
                            f"two distinct autobatched functions share the name "
                            f"{fn.name!r}; rename one of them"
                        )
                    continue
                seen[fn.name] = fn
                compiled = fn._compile()
                builder.add(compiled.ir)
                frontier.extend(compiled.callees.values())
            program = builder.build()
            validate_program(program)
            self._program = program
            self._callee_objects = seen
        return self._program

    def stack_program(self, optimize: Any = True) -> StackProgram:
        """The lowered stack-dialect program for the program-counter machine.

        ``optimize`` may be a bool (all lowering optimizations on/off) or a
        :class:`~repro.lowering.pipeline.LoweringOptions` instance for
        per-optimization toggles; each distinct configuration is lowered
        once and cached.
        """
        key = normalize_lowering_options(optimize)
        if key not in self._stack_programs:
            from repro.lowering.pipeline import lower_program

            self._stack_programs[key] = lower_program(self.program, optimize=key)
        return self._stack_programs[key]

    def program_facts(self, optimize: Any = True) -> Any:
        """Statically verified :class:`~repro.analysis.stackcheck.ProgramFacts`.

        The lowered program is verified once per lowering configuration —
        every executor's plan shares the same facts object — and the result
        (per-pc entry depths, the proven max stack depth or the ``unbounded``
        verdict for recursive programs) is what machines start their stacks
        at.
        """
        key = normalize_lowering_options(optimize)
        if key not in self._program_facts:
            from repro.analysis.stackcheck import verify_stack_program

            self._program_facts[key] = verify_stack_program(
                self.stack_program(key), context=f"stack program of {self.name!r}"
            )
        return self._program_facts[key]

    def execution_plan(
        self, executor: Any = "eager", optimize: Any = True, verify: bool = True
    ) -> Any:
        """A cached :class:`~repro.vm.executors.ExecutionPlan` for this function.

        The plan pairs the lowered program with a block-executor choice
        (``"eager"`` per-op dispatch or ``"fused"`` one-call-per-block);
        one plan per (executor, lowering options) pair is compiled, then
        shared by every machine ``run_pc`` or ``serve`` creates.  With
        ``verify=True`` (the default) the plan carries the statically
        verified :meth:`program_facts`; ``verify=False`` skips the check
        (the plan is still cached, and a later verifying call upgrades it
        in place).
        """
        from repro.vm.executors import ExecutionPlan, resolve_executor

        opts = normalize_lowering_options(optimize)
        ex = resolve_executor(executor)
        if not (executor is None or isinstance(executor, str)):
            # A caller-supplied executor instance/class may carry its own
            # state or share a name with an unrelated class; only specs
            # resolved through the name registry go through the cache.
            plan = ExecutionPlan(
                program=self.stack_program(opts), executor=ex, options=opts
            )
        else:
            key = (ex.name, opts)
            if key not in self._execution_plans:
                self._execution_plans[key] = ExecutionPlan(
                    program=self.stack_program(opts), executor=ex, options=opts
                )
            plan = self._execution_plans[key]
        if verify and plan.facts is None:
            plan.verify(self.program_facts(opts))
        return plan

    # -- batched execution ----------------------------------------------------

    def run_local(self, *inputs: np.ndarray, **options: Any) -> Any:
        """Run under local static autobatching (paper Algorithm 1)."""
        from repro.vm.local_static import run_local_static

        registry = options.pop("registry", self.registry)
        return run_local_static(
            self.program, list(inputs), registry=registry, **options
        )

    def run_pc(self, *inputs: np.ndarray, **options: Any) -> Any:
        """Run under program-counter autobatching (paper Algorithm 2).

        ``executor="eager"`` (default) interprets blocks op-at-a-time;
        ``executor="fused"`` runs each block as one pre-compiled callable
        (bit-identical results, one dispatch per block).  ``optimize``
        accepts a bool or a :class:`~repro.lowering.pipeline.LoweringOptions`.
        """
        from repro.vm.program_counter import run_program_counter

        optimize = options.pop("optimize", True)
        executor = options.pop("executor", "eager")
        verify = options.pop("verify", True)
        registry = options.pop("registry", self.registry)
        return run_program_counter(
            self.execution_plan(executor=executor, optimize=optimize, verify=verify),
            list(inputs),
            registry=registry,
            **options,
        )

    # -- streaming execution ---------------------------------------------------

    def serve(self, num_lanes: int, **options: Any) -> Any:
        """A continuous-batching :class:`~repro.serve.engine.Engine`.

        The engine owns a ``num_lanes``-wide program-counter machine and
        admits streaming requests into vacated lanes mid-flight::

            engine = fib.serve(num_lanes=8, max_queue_depth=64,
                               preempt=True)  # priority preemption
            handle = engine.submit(np.int64(12), priority=5)
            engine.run_until_idle()
            handle.result()

        ``options`` are the fields of
        :class:`~repro.serve.config.ServeConfig`, documented there once
        for every entry point: ``executor="fused"``/``"superblock"`` serve
        identical results in fewer host dispatches, ``preempt=`` lets
        higher-priority arrivals checkpoint-and-evict straggler lanes
        (the evicted request *resumes* from its lane snapshot, it is
        never recomputed), ``trace=`` records deterministic per-request
        timelines, per-tick metrics and a per-block profile, ``journal=``
        makes the run recoverable.
        """
        from repro.serve.engine import Engine

        return Engine(self, num_lanes, **options)

    def serve_cluster(
        self, num_engines: int, num_lanes: int, **options: Any
    ) -> Any:
        """A sharded :class:`~repro.serve.cluster.Cluster` of serving engines.

        A fixed fleet of ``num_engines`` machines of width ``num_lanes``
        each, behind one ``submit``/``map``/``run_until_idle`` façade with
        pluggable request routing, plus opt-in work stealing::

            cluster = fib.serve_cluster(4, num_lanes=8, policy="least_loaded",
                                        executor="fused",
                                        steal=True)  # work stealing
            results = cluster.map([(np.int64(n),) for n in sizes])
            print(cluster.telemetry.summary())

        ``options`` are the fields of
        :class:`~repro.serve.config.ServeConfig` — the same object every
        shard is built from.  Every shard binds this function's *one* cached
        :class:`~repro.vm.executors.ExecutionPlan` (per executor/options),
        so fused block code is generated once for the whole fleet, and
        shares the fleet's one trace, journal and spill store.
        """
        from repro.serve.cluster import Cluster

        return Cluster(self, num_engines, num_lanes, **options)

    def __repr__(self) -> str:
        return f"AutobatchFunction({self.name!r})"


def autobatch(
    fn: Optional[Callable[..., Any]] = None,
    *,
    registry: Optional[PrimitiveRegistry] = None,
    name: Optional[str] = None,
) -> Any:
    """Decorator marking a Python function for autobatching.

    The decorated object remains directly callable with single-example
    (unbatched) arguments, exactly like the original function.
    """

    def wrap(f: Callable[..., Any]) -> AutobatchFunction:
        return AutobatchFunction(f, registry=registry, name=name)

    if fn is not None:
        return wrap(fn)
    return wrap
