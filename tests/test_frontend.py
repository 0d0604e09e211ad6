"""Unit tests for the Python AST frontend (parser + CFG builder + API)."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro import autobatch, ops, primitive
from repro.frontend.parser import FrontendError
from repro.frontend.registry import PrimitiveRegistry, default_registry
from repro.ir.instructions import Branch, CallOp, ConstOp, Jump, PrimOp, Return
from repro.ir.validate import validate_function, validate_program

from .helpers import assert_results_equal
from .programs import fib, is_even, power


# -- compilation structure ---------------------------------------------------


def test_fib_ir_structure():
    fn = fib.ir
    validate_function(fn)
    assert fn.params == ("n",)
    assert fn.outputs == ("__ret0",)
    assert isinstance(fn.entry.terminator, Branch)
    calls = [
        op for blk in fn.blocks for op in blk.ops if isinstance(op, CallOp)
    ]
    assert len(calls) == 2
    assert all(c.func == "fib" for c in calls)


def test_program_assembles_transitive_closure():
    program = is_even.program
    assert set(program.functions) == {"is_even", "is_odd"}
    assert program.main == "is_even"
    validate_program(program)


def test_while_loop_shape():
    fn = power.ir
    labels = [b.label for b in fn.blocks]
    assert any("for_head" in l for l in labels)
    assert any("for_body" in l for l in labels)


def test_callable_remains_plain_python():
    assert fib(10) == 89
    assert fib.__name__ == "fib"
    assert "AutobatchFunction" in repr(fib)


def test_ir_compiled_once_and_cached():
    assert fib.ir is fib.ir
    assert fib.program is fib.program
    assert fib.stack_program() is fib.stack_program()


# -- supported syntax --------------------------------------------------------


@autobatch
def _augmented(x):
    x += 3
    x *= 2
    x -= 1
    return x


def test_augmented_assignment():
    out = _augmented.run_pc(np.array([1, 5]))
    np.testing.assert_array_equal(out, [(1 + 3) * 2 - 1, (5 + 3) * 2 - 1])


@autobatch
def _chained_compare(x):
    if 0 < x <= 10:
        return 1
    return 0


def test_chained_comparison():
    out = _chained_compare.run_pc(np.array([-1, 0, 5, 10, 11]))
    np.testing.assert_array_equal(out, [0, 0, 1, 1, 0])


@autobatch
def _ifexp(x):
    return (x if x > 0 else -x) + (1 if x == 0 else 0)


def test_conditional_expression():
    out = _ifexp.run_pc(np.array([-3, 0, 4]))
    np.testing.assert_array_equal(out, [3, 1, 4])


@autobatch
def _builtins(x):
    return abs(x) + max(x, 0) + min(x, 0) + int(float(x))


def test_builtin_mapping():
    out = _builtins.run_pc(np.array([-2, 3]))
    np.testing.assert_array_equal(out, [2 + 0 + -2 + -2, 3 + 3 + 0 + 3])


@autobatch
def _range_variants(n):
    a = 0
    for i in range(n):
        a += i
    b = 0
    for i in range(2, n):
        b += i
    c = 0
    for i in range(0, n, 2):
        c += i
    return a, b, c


def test_range_variants():
    expected = _range_variants.run_reference(np.array([0, 1, 5, 8]))
    actual = _range_variants.run_pc(np.array([0, 1, 5, 8]))
    assert_results_equal(expected, actual)


@autobatch
def _docstringed(x):
    """This docstring must be skipped, not compiled."""
    return x + 1


def test_docstring_skipped():
    np.testing.assert_array_equal(_docstringed.run_pc(np.array([1])), [2])


@autobatch
def _annotated(x):
    y: int = x + 1
    return y


def test_annotated_assignment():
    np.testing.assert_array_equal(_annotated.run_pc(np.array([4])), [5])


def test_unary_plus_is_noop():
    @autobatch
    def f(x):
        return +x

    np.testing.assert_array_equal(f.run_pc(np.array([3])), [3])


# -- custom primitives --------------------------------------------------------


def test_custom_primitive_roundtrip():
    reg = default_registry.child()

    @primitive(registry=reg, tags=("custom",))
    def triple(x):
        return 3 * np.asarray(x)

    @autobatch(registry=reg)
    def use_triple(x):
        return triple(x) + 1

    out = use_triple.run_pc(np.array([1, 2]))
    np.testing.assert_array_equal(out, [4, 7])
    assert triple(5) == 15  # still plain-callable
    assert reg.get("triple").tags == frozenset({"custom"})


def test_multi_output_primitive():
    reg = default_registry.child()

    @primitive(registry=reg, n_outputs=2)
    def split_sign(x):
        x = np.asarray(x)
        return np.maximum(x, 0), np.minimum(x, 0)

    @autobatch(registry=reg)
    def use_split(x):
        pos, neg = split_sign(x)
        return pos - neg

    out = use_split.run_pc(np.array([-4, 7]))
    np.testing.assert_array_equal(out, [4, 7])


def test_registry_layering():
    parent = PrimitiveRegistry()
    child = parent.child()

    @primitive(registry=parent)
    def parent_prim(x):
        return x

    assert "parent_prim" in child
    assert child.get("parent_prim") is parent.get("parent_prim")
    with pytest.raises(KeyError):
        child.get("missing_prim")
    assert "parent_prim" in child.names()


def test_registry_duplicate_rejected():
    reg = PrimitiveRegistry()

    @primitive(registry=reg)
    def dup(x):
        return x

    with pytest.raises(ValueError, match="already registered"):
        @primitive(registry=reg)  # noqa: F811
        def dup(x):  # noqa: F811
            return x


# -- rejection of unsupported constructs ---------------------------------------


def _expect_frontend_error(fn, match):
    with pytest.raises(FrontendError, match=match):
        _ = fn.ir


@autobatch
def _uses_kwargs(x):
    return ops.dot(x, y=x)


def test_keyword_arguments_rejected():
    _expect_frontend_error(_uses_kwargs, "keyword")


@autobatch
def _no_return(x):
    y = x + 1


def test_missing_return_rejected():
    _expect_frontend_error(_no_return, "without return")


@autobatch
def _inconsistent_returns(x):
    if x > 0:
        return x
    return x, x


def test_inconsistent_return_arity_rejected():
    _expect_frontend_error(_inconsistent_returns, "inconsistent return arity")


@autobatch
def _bare_return(x):
    return


def test_bare_return_rejected():
    _expect_frontend_error(_bare_return, "must return a value")


@autobatch
def _string_constant(x):
    y = "nope"
    return x


def test_string_constant_rejected():
    _expect_frontend_error(_string_constant, "unsupported constant")


@autobatch
def _subscript(x):
    return x[0]


def test_subscript_rejected():
    _expect_frontend_error(_subscript, "unsupported expression")


@autobatch
def _calls_numpy(x):
    return np.sqrt(x)


def test_unregistered_callable_rejected():
    _expect_frontend_error(_calls_numpy, "neither a registered primitive")


@autobatch
def _default_args(x, y=3):
    return x + y


def test_default_arguments_rejected():
    _expect_frontend_error(_default_args, "default values")


@autobatch
def _while_else(x):
    while x > 0:
        x -= 1
    else:
        x = 5
    return x


def test_while_else_rejected():
    _expect_frontend_error(_while_else, "while/else")


@autobatch
def _for_over_list(x):
    for i in [1, 2]:
        x += i
    return x


def test_for_over_list_rejected():
    _expect_frontend_error(_for_over_list, "range")


@autobatch
def _break_outside(x):
    break_ = x
    return break_


@autobatch
def _try_stmt(x):
    try:
        return x
    except Exception:
        return x


def test_try_rejected():
    _expect_frontend_error(_try_stmt, "unsupported statement")


@autobatch
def _starred_target(x):
    a, *rest = x, x
    return a


def test_starred_target_rejected():
    _expect_frontend_error(_starred_target, "names")


def test_name_collision_between_functions():
    @autobatch(name="collide_x")
    def f1(x):
        return x

    @autobatch(name="collide_x")
    def f2(x):
        return _helper_calling(x)

    @autobatch
    def _helper_calling(x):
        return x

    @autobatch
    def caller(x):
        return f1(x) + f2(x)

    with pytest.raises(ValueError, match="share the name"):
        _ = caller.program


def test_run_reference_requires_inputs():
    with pytest.raises(ValueError, match="at least one input"):
        fib.run_reference()


def test_mismatched_batch_sizes_rejected():
    from .programs import gcd

    with pytest.raises(ValueError, match="batch"):
        gcd.run_local(np.array([1, 2]), np.array([1, 2, 3]))


def test_import_repro_loads_only_what_run_pc_needs():
    """In a fresh interpreter: no serving stack, asyncio or networkx until a
    serving name is asked for; the four on-demand names still resolve."""
    import repro

    code = """
import sys
import repro

unwanted = ["networkx", "asyncio", "repro.serve", "repro.observe", "repro.bench", "repro.nuts"]
assert [m for m in unwanted if m in sys.modules] == []
try:
    repro.no_such_name
except AttributeError as e:
    assert "no_such_name" in str(e)
else:
    raise AssertionError("unknown attribute resolved")
assert repro.Trace.__module__.startswith("repro.observe")
for name in ("Engine", "QueueFullError", "StepBudgetExceeded"):
    assert getattr(repro, name).__module__.startswith("repro.serve")
ns = {}
exec("from repro import *", ns)
assert set(repro.__all__) <= set(ns)
"""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
