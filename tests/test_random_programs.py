"""Property-based differential testing on *generated* programs.

Hypothesis draws a random program in the autobatchable Python subset
(assignments, integer arithmetic, nested if/else, bounded while loops,
calls, and optionally self- or mutual recursion on a decreasing argument),
the generator renders it to source, and the test requires plain
per-member Python, Algorithm 1, and Algorithm 2 (masked and gathered) to
agree exactly.

Besides ``genprog`` itself, a program defines up to three helpers
``h0``, ``h1``, ... , where ``h{k}`` calls only helpers after it, so the
call graph is a DAG and a program without recursion has a bounded depth.
Call sites sit in branches and loops, and a call's result is added to the
other variable, which is live across the call.  ``genprog`` calls ``h0``
and each helper calls the next once at its top level, so every input runs
the longest call chain and reaches the proven stack depth.

Values are renormalized modulo a prime after every assignment so that any
arithmetic blowup stays representable identically under every strategy.
"""

import importlib.util
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from .helpers import (
    assert_instrumentation_identical,
    assert_types_observed,
    observing_writes,
)

_MODULE_DIR = Path(tempfile.mkdtemp(prefix="repro_genprog_"))
_MODULE_COUNT = [0]
_COMPILED = {}

# -- program spec ------------------------------------------------------------
# An expression is a nested tuple; a statement list is a tuple of statements.

NAMES = ("a", "b", "n")

# Expressions are capped at a few leaves: a program has up to four function
# bodies, and unbounded expression trees in all of them nest draws past
# Hypothesis's depth limit, which rejects most programs ("max depth
# exceeded") and fails the filter-too-much health check at random.
expr_strategy = st.recursive(
    st.one_of(
        st.sampled_from(NAMES).map(lambda v: ("var", v)),
        st.integers(-3, 3).map(lambda c: ("const", c)),
    ),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(("+", "-", "*")), sub, sub).map(
            lambda t: ("binop", *t)
        ),
        st.tuples(sub, sub).map(lambda t: ("min", *t)),
    ),
    max_leaves=6,
)


def statements(depth: int, callees=()):
    """Statement lists nested ``depth`` deep, calling the helpers ``callees``."""
    simple = st.tuples(st.sampled_from(("a", "b")), expr_strategy).map(
        lambda t: ("assign", *t)
    )
    if callees:
        call = st.tuples(
            st.sampled_from(("a", "b")), st.sampled_from(callees),
            expr_strategy, expr_strategy,
        ).map(lambda t: ("call", *t))
        simple = st.one_of(simple, call)
    if depth <= 0:
        return st.lists(simple, min_size=1, max_size=3)
    sub = statements(depth - 1, callees)
    branch = st.tuples(
        st.sampled_from(("<", "<=", "==", "%2")), expr_strategy, sub, sub
    ).map(lambda t: [("if", *t)])
    loop = st.tuples(st.integers(1, 3), sub).map(lambda t: [("while", *t)])
    piece = st.one_of(simple.map(lambda s: [s]), branch, loop)
    return st.lists(piece, min_size=1, max_size=3).map(
        lambda chunks: [s for chunk in chunks for s in chunk]
    )


@st.composite
def _programs(draw):
    """``(body, recursion, return expression, helpers)``: ``recursion`` is
    None, ``"self"`` or ``"mutual"``, and each helper a ``(body, return
    expression)`` pair whose body calls only the helpers after it."""
    n = draw(st.integers(0, 3))
    helpers = tuple(
        (draw(statements(1, tuple(range(k + 1, n)))), draw(expr_strategy))
        for k in range(n)
    )
    return (
        draw(statements(2, tuple(range(n)))),
        draw(st.sampled_from((None, "self", "mutual"))),
        draw(expr_strategy),
        helpers,
    )


program_strategy = _programs()


# -- rendering ----------------------------------------------------------------


def render_expr(e) -> str:
    kind = e[0]
    if kind == "var":
        return e[1]
    if kind == "const":
        return str(e[1])
    if kind == "binop":
        return f"({render_expr(e[2])} {e[1]} {render_expr(e[3])})"
    if kind == "min":
        return f"min({render_expr(e[1])}, {render_expr(e[2])})"
    raise AssertionError(e)


def render_call(name, callee, first, second) -> str:
    """``name = h{callee}(...) + other``: the other variable is live across
    the call."""
    other = "b" if name == "a" else "a"
    args = f"({render_expr(first)}) % 97, ({render_expr(second)}) % 97, n"
    return f"{name} = (h{callee}({args}) + {other}) % 97"


def render_stmts(stmts, indent, lines, loop_id=[0]):
    pad = "    " * indent
    for s in stmts:
        kind = s[0]
        if kind == "assign":
            _, name, expr = s
            lines.append(f"{pad}{name} = ({render_expr(expr)}) % 97")
        elif kind == "call":
            lines.append(pad + render_call(*s[1:]))
        elif kind == "if":
            _, op, expr, then_body, else_body = s
            if op == "%2":
                lines.append(f"{pad}if ({render_expr(expr)}) % 2 == 0:")
            else:
                lines.append(f"{pad}if ({render_expr(expr)}) {op} a:")
            render_stmts(then_body, indent + 1, lines)
            lines.append(f"{pad}else:")
            render_stmts(else_body, indent + 1, lines)
        elif kind == "while":
            _, trips, body = s
            loop_id[0] += 1
            k = f"k{loop_id[0]}"
            lines.append(f"{pad}{k} = 0")
            lines.append(f"{pad}while {k} < {trips}:")
            render_stmts(body, indent + 1, lines)
            lines.append(f"{pad}    {k} = {k} + 1")
        else:
            raise AssertionError(s)


def render_program(spec) -> str:
    stmts, recursion, ret, helpers = spec
    lines = ["from repro import autobatch", "", "", "@autobatch"]
    lines.append("def genprog(a, b, n):")
    if recursion:
        lines.append("    if n <= 0:")
        lines.append(f"        return ({render_expr(ret)}) % 97")
    if helpers:
        lines.append("    " + render_call("a", 0, ("var", "b"), ("var", "a")))
    render_stmts(stmts, 1, lines)
    if recursion:
        callee = "genprog" if recursion == "self" else "genpeer"
        lines.append(f"    r = {callee}(b % 97, a % 97, n - 1)")
        lines.append(f"    return (r + ({render_expr(ret)})) % 97")
    else:
        lines.append(f"    return ({render_expr(ret)}) % 97")
    if recursion == "mutual":
        lines += ["", "", "@autobatch", "def genpeer(a, b, n):"]
        lines.append("    if n <= 0:")
        lines.append("        return (a - b) % 97")
        lines.append("    r = genprog((a + n) % 97, b, n - 1)")
        lines.append("    return (r * 2 + a) % 97")
    for k, (body, result) in enumerate(helpers):
        lines += ["", "", "@autobatch", f"def h{k}(a, b, n):"]
        if k + 1 < len(helpers):
            lines.append("    " + render_call("b", k + 1, ("var", "a"), ("var", "b")))
        render_stmts(body, 1, lines)
        lines.append(f"    return ({render_expr(result)}) % 97")
    return "\n".join(lines) + "\n"


def compile_source(source: str):
    """Write the generated program to a real file and import it (the
    frontend needs ``inspect.getsource`` to work)."""
    if source in _COMPILED:
        return _COMPILED[source]
    _MODULE_COUNT[0] += 1
    name = f"repro_genprog_{_MODULE_COUNT[0]}"
    path = _MODULE_DIR / f"{name}.py"
    path.write_text(source)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    _COMPILED[source] = module.genprog
    return module.genprog


# -- the property ---------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    program_strategy,
    st.lists(st.integers(-5, 20), min_size=1, max_size=6),
    st.lists(st.integers(-5, 20), min_size=1, max_size=6),
    st.integers(0, 4),
)
def test_generated_program_all_strategies_agree(spec, a_vals, b_vals, depth):
    fn = compile_source(render_program(spec))
    z = min(len(a_vals), len(b_vals))
    a = np.asarray(a_vals[:z], dtype=np.int64)
    b = np.asarray(b_vals[:z], dtype=np.int64)
    n = np.full(z, depth, dtype=np.int64)
    expected = fn.run_reference(a, b, n)
    for run in (
        lambda: fn.run_local(a, b, n),
        lambda: fn.run_local(a, b, n, mode="gather"),
        lambda: fn.run_pc(a, b, n, max_stack_depth=16),
        lambda: fn.run_pc(a, b, n, mode="gather", max_stack_depth=16),
        lambda: fn.run_pc(a, b, n, optimize=False, max_stack_depth=16),
        lambda: fn.run_pc(a, b, n, executor="fused", max_stack_depth=16),
    ):
        np.testing.assert_array_equal(run(), expected)


@settings(max_examples=25, deadline=None)
@given(
    program_strategy,
    st.lists(st.integers(-5, 20), min_size=1, max_size=6),
    st.lists(st.integers(-5, 20), min_size=1, max_size=6),
    st.integers(0, 4),
)
def test_generated_program_eager_vs_fused_executors(spec, a_vals, b_vals, depth):
    """Executors must be bitwise interchangeable: outputs identical to eager
    masking, and instrumentation op counts identical to eager gather-scatter
    (a fused block is compact, so it runs and counts each site on its live
    lanes) on every generated program.  The types the inference pass gives
    the program are the ones both machines' writes observe."""
    from repro.vm.instrumentation import Instrumentation

    fn = compile_source(render_program(spec))
    z = min(len(a_vals), len(b_vals))
    a = np.asarray(a_vals[:z], dtype=np.int64)
    b = np.asarray(b_vals[:z], dtype=np.int64)
    n = np.full(z, depth, dtype=np.int64)
    runs = {"eager": ("eager", "gather"), "fused": ("fused", "mask")}
    instr = {name: Instrumentation() for name in runs}
    with observing_writes() as seen:
        outs = {
            name: fn.run_pc(
                a, b, n, executor=ex, mode=mode, instrumentation=instr[name],
                max_stack_depth=16,
            )
            for name, (ex, mode) in runs.items()
        }
    assert_types_observed(fn.stack_program(), fn.registry, (a, b, n), seen)
    masked = fn.run_pc(a, b, n, executor="eager", mode="mask", max_stack_depth=16)
    np.testing.assert_array_equal(outs["fused"], masked)
    np.testing.assert_array_equal(outs["eager"], masked)
    assert_instrumentation_identical(instr["eager"], instr["fused"])


def stack_high_waters(vm):
    """The return-address stack's and every stacked variable's high-water
    mark, by name.  Eager allocates a storage on its first write and fused
    binds every one up front, so a variable of a function no lane entered
    (``genpeer`` when ``n`` starts at 0) has no stack under eager: it held
    no frame, and its mark is 0."""
    from repro.ir.instructions import VarKind

    marks = {"<return address>": vm.addr_stack.high_water}
    for name in vm.program.variables():
        if vm.program.kind(name) is VarKind.STACKED:
            st = vm.storages.get(name)
            stack = None if st is None else st.stack
            marks[name] = 0 if stack is None else stack.high_water
    return marks


@settings(max_examples=20, deadline=None)
@given(
    program_strategy,
    st.lists(st.integers(-5, 20), min_size=1, max_size=6),
    st.lists(st.integers(-5, 20), min_size=1, max_size=6),
    st.integers(0, 4),
)
# A mutual-recursive program whose lanes all start at n = 0 never enters
# ``genpeer``, so eager never allocates its stacks.
@example(([("assign", "a", ("var", "a"))], "mutual", ("var", "a"), ()), [0], [0], 0)
def test_generated_program_high_water_marks_equal_eager(spec, a_vals, b_vals, depth):
    """Generated blocks move stacked variables by static frame offsets and
    mark one row per pushed variable per block, where eager marks one per
    push: every stack's high-water mark must still be eager's."""
    from repro.vm.program_counter import ProgramCounterVM

    fn = compile_source(render_program(spec))
    z = min(len(a_vals), len(b_vals))
    inputs = [
        np.asarray(a_vals[:z], dtype=np.int64),
        np.asarray(b_vals[:z], dtype=np.int64),
        np.full(z, depth, dtype=np.int64),
    ]
    marks = {}
    for executor in ("eager", "fused", "superblock"):
        vm = ProgramCounterVM(
            fn.execution_plan(executor), batch_size=z, max_stack_depth=16
        )
        vm.run(inputs)
        marks[executor] = stack_high_waters(vm)
    assert marks["fused"] == marks["eager"]
    assert marks["superblock"] == marks["eager"]


@settings(max_examples=10, deadline=None)
@given(
    program_strategy,
    st.lists(st.integers(-5, 20), min_size=2, max_size=8),
    st.lists(st.integers(-5, 20), min_size=2, max_size=8),
    st.integers(0, 3),
)
def test_generated_program_eager_vs_fused_serving(spec, a_vals, b_vals, depth):
    """Lane-recycled serving through either executor must match the static
    batch bit-for-bit and record identical op counts (eager counting under
    gather-scatter, as compact fused blocks do)."""
    fn = compile_source(render_program(spec))
    z = min(len(a_vals), len(b_vals))
    a = np.asarray(a_vals[:z], dtype=np.int64)
    b = np.asarray(b_vals[:z], dtype=np.int64)
    n = np.full(z, depth, dtype=np.int64)
    expected = fn.run_pc(a, b, n, max_stack_depth=16)
    engines = {}
    for ex, mode in (("eager", "gather"), ("fused", "mask")):
        engine = fn.serve(num_lanes=2, executor=ex, mode=mode, max_stack_depth=16)
        results = engine.map([(a[i], b[i], n[i]) for i in range(z)])
        np.testing.assert_array_equal(np.stack(results), expected)
        engines[ex] = engine
    assert_instrumentation_identical(
        engines["eager"].vm.instr, engines["fused"].vm.instr
    )


@settings(max_examples=15, deadline=None)
@given(program_strategy)
def test_generated_program_compiles_and_validates(spec):
    """Compilation alone must never produce an invalid program."""
    from repro.ir.validate import validate_program
    from repro.ir.validate import validate_stack_program

    fn = compile_source(render_program(spec))
    validate_program(fn.program)
    validate_stack_program(fn.stack_program())


def test_generator_produces_divergent_control_flow():
    """Sanity: the generator's rendering is what we think it is."""
    spec = (
        [("if", "<", ("var", "b"), [("assign", "a", ("const", 1))],
          [("call", "a", 1, ("var", "n"), ("const", 2))])],
        "mutual",
        ("binop", "+", ("var", "a"), ("var", "b")),
        (([("assign", "a", ("const", 3))], ("var", "a")),
         ([("assign", "b", ("const", 4))], ("var", "b"))),
    )
    source = render_program(spec)
    assert "if (b) < a:" in source
    assert "a = (h1((n) % 97, (2) % 97, n) + b) % 97" in source
    assert "r = genpeer(b % 97, a % 97, n - 1)" in source
    assert "b = (h1((a) % 97, (b) % 97, n) + a) % 97" in source
    fn = compile_source(source)
    out = fn.run_pc(
        np.array([1, 2]), np.array([3, 0]), np.array([2, 3]), max_stack_depth=8
    )
    np.testing.assert_array_equal(
        out, fn.run_reference(np.array([1, 2]), np.array([3, 0]), np.array([2, 3]))
    )
