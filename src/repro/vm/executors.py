"""The pluggable block-executor layer.

The program-counter machine's step loop is strategy-agnostic: select a
block, find its lanes, execute it.  *How* a block executes — op-at-a-time
interpretation (the TF-Eager analog) or one pre-compiled fused callable per
block (the XLA analog) — is a backend choice, and this module is the seam
where backends plug in:

* :class:`BlockExecutor` — the protocol: given a VM instance, produce one
  callable per basic block, plus the dispatch accounting the device cost
  models need.
* :class:`EagerBlockExecutor` — the reference implementation: the stack-IR
  interpreter that used to live inside ``ProgramCounterVM._interpret_block``,
  one Python-level dispatch per primitive.
* :class:`~repro.backend.fusion.FusedBlockExecutor` — each block generated
  as straight-line Python, one dispatch per block (registered lazily so the
  VM layer never imports the backend).
* :class:`ExecutionPlan` — a program plus its lowering options and executor
  choice, compiled once (and cached on
  :class:`~repro.frontend.api.AutobatchFunction`), bound per machine via
  :meth:`ExecutionPlan.bind`.

A future array backend (a non-numpy kernel set, a real accelerator bridge)
implements :class:`BlockExecutor` and registers itself with
:func:`register_executor`; nothing above this layer changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Type, Union

import numpy as np

from repro.ir.instructions import (
    Branch,
    ConstOp,
    Jump,
    PopOp,
    PrimOp,
    PushJump,
    PushOp,
    Return,
    StackProgram,
)
from repro.ir.types import TensorType
from repro.lowering.pipeline import LoweringOptions, normalize_lowering_options
from repro.vm.instrumentation import Instrumentation, elements_per_lane
from repro.vm.local_static import _const_array


class BlockExecutor:
    """Strategy object turning a program's blocks into per-block callables.

    Subclasses implement :meth:`bind`; everything else in the machine —
    scheduling, lane selection, lane lifecycle — is executor-independent.
    Each bound callable has the signature ``(vm, idx)``, where ``idx`` holds
    the lanes whose pc is at the block, and must leave the machine state
    (storages, pc register, address stack) exactly as the eager interpreter
    would: executors are *observationally interchangeable*, which the
    differential tests enforce bit-for-bit.  Instrumentation counts are the
    interpreter's under the mode the executor computes in: eager follows
    the machine's ``mode``, and generated blocks, which run on ``idx``
    alone, count as ``mode="gather"`` does.  A callable returns None — or,
    having run further blocks in the same dispatch, the lanes that were
    active in any of them (for per-request step budgets) — and enters no
    ``np.errstate`` itself: see :attr:`live_lanes_only`.

    An executor holds no per-lane state.  Everything a logical thread owns
    — pc, return-address stack, variable storages — lives in the machine,
    so resetting, injecting, retiring, snapshotting and restoring a lane
    need no executor involvement, and a
    :class:`~repro.vm.program_counter.LaneSnapshot` taken under one
    executor resumes under any other.
    """

    #: Name used in ``executor="..."`` selection and plan cache keys.
    name: str = "abstract"
    #: Dispatch accounting family for the device cost models
    #: (``"eager"`` = per-op launches, ``"fused"`` = per-block launches).
    accounting: str = "eager"
    #: Expensive per-program compilation events (codegen + ``compile()``)
    #: this executor has performed.  Binding an already-compiled program to
    #: another machine must NOT increase it — that is the code-cache-sharing
    #: contract multi-engine serving relies on, and the regression tests pin
    #: it down.  Executors with no compile step (the eager interpreter)
    #: leave it at 0.
    compile_count: int = 0
    #: True when every bound callable computes the lanes of its ``idx``
    #: only.  The machine then runs its blocks under the caller's numpy
    #: error state, so they warn as the unbatched reference does; otherwise
    #: (eager masking computes masked-off lanes on junk) it enters
    #: ``np.errstate(all="ignore")`` once per ``run()`` / ``step_lanes()``.
    live_lanes_only: bool = False

    def bind(self, vm: Any) -> List[Callable]:
        """One callable per block of ``vm.program``, closed over ``vm``."""
        raise NotImplementedError

    def dispatch_count(self, instr: Instrumentation) -> int:
        """Host-issued batched-array-op launches for a run under this executor.

        The full count — primitive kernels plus stack and storage
        scatter/gather traffic — used by the serving/bench reports.
        """
        raise NotImplementedError

    def device_dispatch_count(self, instr: Instrumentation) -> int:
        """Compute-kernel launches only, for the device cost models.

        Narrower than :meth:`dispatch_count` so strategies whose
        instrumentation does not cover storage traffic (the local machine)
        stay comparable in one simulated figure; storage traffic is charged
        separately by :meth:`~repro.backend.device.DeviceModel.estimate`.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class _InterpretedBlock:
    """One block's op-at-a-time execution plan (the eager path)."""

    __slots__ = ("index", "steps")

    def __init__(self, vm: Any, index: int, block) -> None:
        self.index = index
        registry = vm.registry
        steps: List[tuple] = []
        for op in block.ops:
            if isinstance(op, ConstOp):
                steps.append(("const", op.output, op.value))
            elif isinstance(op, PrimOp):
                steps.append(("prim", registry.get(op.fn), op.outputs, op.inputs))
            elif isinstance(op, PushOp):
                steps.append(("push", registry.get(op.fn), op.output, op.inputs))
            elif isinstance(op, PopOp):
                steps.append(("pop", op.var))
            else:
                raise TypeError(f"unexpected op in stack IR: {op!r}")
        term = block.terminator
        if isinstance(term, Jump):
            steps.append(("jump", term.target))
        elif isinstance(term, Branch):
            steps.append(("branch", term.cond, term.true_target, term.false_target))
        elif isinstance(term, PushJump):
            steps.append(("pushjump", term.return_target, term.jump_target))
        elif isinstance(term, Return):
            steps.append(("ret",))
        else:
            raise TypeError(f"unexpected terminator in stack IR: {term!r}")
        self.steps = steps

    def __call__(self, vm: Any, idx: np.ndarray) -> None:
        mask = vm.pcreg == self.index
        temps = vm._temps
        temps.clear()
        gather = vm.mode == "gather"
        ridx = idx if gather else None
        slots = int(idx.size) if gather else vm.batch_size
        n_active = int(idx.size)

        for step in self.steps:
            tag = step[0]
            if tag == "prim":
                _, prim, outputs, inputs = step
                args = [vm._read(v, ridx) for v in inputs]
                out = prim.fn(*args)
                outs = out if prim.n_outputs > 1 else (out,)
                for name, value in zip(outputs, outs):
                    vm._write(name, value, mask, idx)
                vm.instr.record_prim(
                    prim.name,
                    prim.tags,
                    n_active,
                    slots,
                    elements=elements_per_lane(outs[0]),
                    weight=prim.cost_weight,
                )
            elif tag == "const":
                _, name, value = step
                width = idx.size if gather else vm.batch_size
                vm._write(name, _const_array(value, width), mask, idx)
            elif tag == "push":
                _, prim, output, inputs = step
                args = [vm._read(v, ridx) for v in inputs]
                value = prim.fn(*args)
                st = vm.storage(output)
                if gather:
                    st.push_at(idx, np.asarray(value))
                else:
                    st.push(mask, np.asarray(value))
                vm.instr.record_push(n_active)
            elif tag == "pop":
                _, name = step
                st = vm.storage(name)
                if gather:
                    st.pop_at(idx)
                else:
                    st.pop(mask)
                vm.instr.record_pop(n_active)
            elif tag == "jump":
                vm.pcreg[mask] = step[1]
            elif tag == "branch":
                _, cond_var, t_true, t_false = step
                cond = np.asarray(vm._read(cond_var, ridx), dtype=bool)
                if gather:
                    vm.pcreg[idx] = np.where(cond, t_true, t_false)
                else:
                    vm.pcreg[mask] = np.where(cond, t_true, t_false)[mask]
            elif tag == "pushjump":
                _, ret_target, jump_target = step
                vm.addr_stack.push(
                    mask, np.full(vm.batch_size, ret_target, dtype=np.int64)
                )
                vm.pcreg[mask] = jump_target
            else:  # ret
                popped = vm.addr_stack.pop(mask)
                vm.pcreg[mask] = popped[mask]


class EagerBlockExecutor(BlockExecutor):
    """Op-at-a-time interpretation: one Python dispatch per primitive.

    This is the reference executor — the paper's "TensorFlow Eager"
    analog — and the only one whose blocks follow the machine's ``mode``:
    masking computes every lane, gather-scatter the block's lanes only.
    """

    name = "eager"
    accounting = "eager"

    def bind(self, vm: Any) -> List[Callable]:
        return [
            _InterpretedBlock(vm, i, blk) for i, blk in enumerate(vm.program.blocks)
        ]

    def dispatch_count(self, instr: Instrumentation) -> int:
        """Every batched array op the host issues is one eager dispatch:
        primitive kernels, stack scatters/gathers, and masked storage
        updates all launch separately."""
        return (
            instr.kernel_calls
            + instr.pushes
            + instr.pops
            + instr.stacked_reads
            + instr.stacked_writes
            + instr.register_writes
        )

    def device_dispatch_count(self, instr: Instrumentation) -> int:
        """One device launch per primitive kernel (TF-Eager accounting)."""
        return instr.kernel_calls


class PlanStats:
    """Mutable per-plan counters (the plan itself stays frozen/hashable-free).

    ``bind_count`` is the number of machines the plan has been attached to;
    together with the executor's ``compile_count`` it proves the
    compile-once-bind-many property: a fleet of N same-width machines shows
    ``bind_count == N`` with ``compile_count == 1``.
    """

    __slots__ = ("bind_count",)

    def __init__(self) -> None:
        self.bind_count = 0

    def __repr__(self) -> str:
        return f"PlanStats(bind_count={self.bind_count})"


@dataclass(frozen=True)
class ExecutionPlan:
    """A lowered program plus the choice of how to execute its blocks.

    The plan is machine-independent (compiled once, cached on
    :class:`~repro.frontend.api.AutobatchFunction` keyed by executor name
    and :class:`~repro.lowering.pipeline.LoweringOptions`); :meth:`bind`
    attaches it to one :class:`~repro.vm.program_counter.ProgramCounterVM`,
    producing the per-block callables that machine's step loop dispatches
    through.
    """

    program: StackProgram
    executor: BlockExecutor
    options: Optional[LoweringOptions] = None
    #: Mutable binding counters; excluded from equality so two plans over
    #: the same (program, executor, options) still compare equal.
    stats: PlanStats = field(default_factory=PlanStats, compare=False, repr=False)
    #: :class:`~repro.analysis.stackcheck.ProgramFacts` from static
    #: verification (None until :meth:`verify` runs, or forever under
    #: ``verify=False``).  Machines start their batched stacks at
    #: ``facts.required_stack_depth``, so a bounded program never grows them.
    facts: Optional[Any] = field(default=None, compare=False, repr=False)
    #: :meth:`types_for`'s inferred types, per registry and signature.
    types: Dict[tuple, Dict[str, TensorType]] = field(
        default_factory=dict, compare=False, repr=False
    )

    @classmethod
    def compile(
        cls,
        program: Any,
        executor: Union[str, BlockExecutor] = "eager",
        optimize: Union[bool, LoweringOptions] = True,
        verify: bool = True,
    ) -> "ExecutionPlan":
        """Build a plan from a :class:`StackProgram`, an
        :class:`~repro.frontend.api.AutobatchFunction` (or anything with a
        ``stack_program(optimize=...)`` method), with the executor given by
        name or instance.

        ``verify=True`` (the default) statically verifies the program —
        stack-effect safety, depth bounds, region-table consistency — once
        per plan, caching the proven :class:`ProgramFacts` on it; pass
        ``verify=False`` to opt out (e.g. deliberately ill-formed inputs in
        negative tests).
        """
        if hasattr(program, "execution_plan"):
            # Delegate the *raw* spec so the function's per-(executor,
            # options) plan cache can key on the name.
            return program.execution_plan(
                executor=executor, optimize=optimize, verify=verify
            )
        ex = resolve_executor(executor)
        if isinstance(program, StackProgram):
            opts = optimize if isinstance(optimize, LoweringOptions) else None
            plan = cls(program=program, executor=ex, options=opts)
        elif hasattr(program, "stack_program"):
            opts = normalize_lowering_options(optimize)
            plan = cls(
                program=program.stack_program(optimize=opts),
                executor=ex,
                options=opts,
            )
        else:
            raise TypeError(
                "program must be a StackProgram or provide .stack_program(), "
                f"got {type(program).__name__}"
            )
        if verify:
            plan.verify()
        return plan

    def verify(self, facts: Optional[Any] = None) -> Any:
        """Statically verify the program (and region table) once per plan.

        Runs the :mod:`repro.analysis.stackcheck` abstract interpreter —
        or accepts already-proven ``facts`` for this same program, so a
        function's per-options facts cache is shared across executor
        plans — then checks the executor's superblock region table (when it
        has one) against the verified CFG.  The resulting
        :class:`~repro.analysis.stackcheck.ProgramFacts` is cached on the
        plan; repeat calls are free.  Raises
        :class:`~repro.analysis.stackcheck.VerificationError` on any
        error-severity finding.
        """
        if self.facts is not None:
            return self.facts
        from repro.analysis.stackcheck import (
            verify_region_table,
            verify_stack_program,
        )

        if facts is None:
            facts = verify_stack_program(self.program)
        regions_for = getattr(self.executor, "regions_for", None)
        if regions_for is not None:
            verify_region_table(self.program, regions_for(self.program), facts)
        object.__setattr__(self, "facts", facts)
        return facts

    def types_for(self, signature: tuple, registry: Any) -> Dict[str, TensorType]:
        """Every variable's type for inputs of ``signature``, inferred once
        per registry and signature for every machine bound to the plan."""
        key = (registry, signature)
        if key not in self.types:
            from repro.analysis.types import infer_types

            self.types[key] = infer_types(self.program, registry, signature)
        return self.types[key]

    @property
    def name(self) -> str:
        """The executor's selection name (``"eager"``, ``"fused"``, ...)."""
        return self.executor.name

    @property
    def accounting(self) -> str:
        """Dispatch-accounting family for the device cost models."""
        return self.executor.accounting

    def dispatch_count(self, instr: Instrumentation) -> int:
        """Host-issued array-op launches for a run summarized by ``instr``."""
        return self.executor.dispatch_count(instr)

    def device_dispatch_count(self, instr: Instrumentation) -> int:
        """Compute-kernel launches only (device cost-model accounting)."""
        return self.executor.device_dispatch_count(instr)

    def bind(self, vm: Any) -> List[Callable]:
        """Compile/attach the per-block callables for one machine.

        One plan binds to arbitrarily many machines of the same width
        concurrently — each binding resolves its own per-VM state (storage
        handles, batch-width constants) while the expensive compile work is
        shared, which is what lets a multi-engine cluster serve one code
        cache.  ``self.stats.bind_count`` tracks the bindings.
        """
        blocks = list(self.executor.bind(vm))
        if len(blocks) != len(self.program.blocks):
            raise ValueError(
                f"executor produced {len(blocks)} block callables for a "
                f"{len(self.program.blocks)}-block program"
            )
        self.stats.bind_count += 1
        return blocks

    def __repr__(self) -> str:
        return (
            f"ExecutionPlan(executor={self.executor.name!r}, "
            f"blocks={len(self.program.blocks)}, options={self.options!r})"
        )


#: Executor factories by selection name.  The fused executor registers
#: itself on first use (``repro.backend.fusion`` imports this module, not
#: the other way around).
_EXECUTOR_FACTORIES: Dict[str, Type[BlockExecutor]] = {
    EagerBlockExecutor.name: EagerBlockExecutor,
}


def register_executor(name: str, factory: Type[BlockExecutor]) -> None:
    """Make ``executor=name`` resolvable everywhere (idempotent)."""
    existing = _EXECUTOR_FACTORIES.get(name)
    if existing is not None and existing is not factory:
        raise ValueError(f"executor name {name!r} is already registered")
    _EXECUTOR_FACTORIES[name] = factory


def _load_backend_executors() -> None:
    # The backend package registers its executors at import; importing it
    # lazily keeps repro.vm importable without repro.backend and avoids a
    # circular import (fusion.py imports this module).
    import repro.backend.fusion  # noqa: F401


def resolve_executor(spec: Union[str, BlockExecutor, None]) -> BlockExecutor:
    """Turn an ``executor=`` argument into a :class:`BlockExecutor`."""
    if spec is None:
        return EagerBlockExecutor()
    if isinstance(spec, BlockExecutor):
        return spec
    if isinstance(spec, type) and issubclass(spec, BlockExecutor):
        return spec()
    if not isinstance(spec, str):
        raise TypeError(
            f"executor must be a name or a BlockExecutor, got {type(spec).__name__}"
        )
    if spec not in _EXECUTOR_FACTORIES:
        _load_backend_executors()
    try:
        factory = _EXECUTOR_FACTORIES[spec]
    except KeyError:
        raise ValueError(
            f"unknown executor {spec!r}; known: {sorted(_EXECUTOR_FACTORIES)}"
        )
    return factory()
