"""Built-in batched primitives.

Every primitive operates elementwise across the leading batch dimension; the
same functions also work on unbatched (single-example) values, which is what
makes plain-Python reference execution of autobatched programs possible.

Broadcasting convention
-----------------------
Within one batch member, operands may have different *event ranks* (e.g. a
per-member scalar step size multiplying a per-member position vector).  Numpy
broadcasting right-aligns shapes, which is wrong under a leading batch
dimension: ``(Z,) * (Z, d)`` fails.  All arithmetic and comparison primitives
therefore **right-pad the lower-rank operand with unit axes** before applying
the numpy op — the vmap-consistent rule.  This is exactly the shape juggling
a hand-batching programmer must otherwise do by hand, which is the paper's
motivation.

Randomness
----------
Random draws are *pure functions of an explicit counter* (splitmix64-style
counter-based RNG).  The program threads a per-member ``ctr`` variable
through its random choices, so the sequence of draws each batch member sees
is a function of its own state only — independent of the batching strategy,
the block schedule, and masking of inactive members.  All execution
strategies therefore produce bitwise-identical chains, which the test suite
relies on.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.frontend.registry import Primitive, default_registry

# ---------------------------------------------------------------------------
# Broadcasting helper
# ---------------------------------------------------------------------------


def _align(*args: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Right-pad lower-rank operands with unit axes (batch-aware broadcast)."""
    arrays = [np.asarray(a) for a in args]
    ndim = max(a.ndim for a in arrays)
    return tuple(
        a.reshape(a.shape + (1,) * (ndim - a.ndim)) if a.ndim < ndim else a
        for a in arrays
    )


def _register(name, fn, n_inputs, n_outputs=1, cost_weight=1.0, tags=()):
    prim = Primitive(
        name=name,
        fn=fn,
        n_inputs=n_inputs,
        n_outputs=n_outputs,
        cost_weight=cost_weight,
        tags=frozenset(tags),
    )
    default_registry.register(prim)
    return prim


def _binary(name, np_fn, cost_weight=1.0):
    def fn(x, y, _np_fn=np_fn, _ndarray=np.ndarray):
        # Equal-rank arrays (every scalar-event program) need no padding.
        if type(x) is not _ndarray or type(y) is not _ndarray or x.ndim != y.ndim:
            x, y = _align(x, y)
        return _np_fn(x, y)

    fn.__name__ = name
    return _register(name, fn, n_inputs=2, cost_weight=cost_weight)


def _unary(name, np_fn, cost_weight=1.0):
    def fn(x, _np_fn=np_fn):
        return _np_fn(np.asarray(x))

    fn.__name__ = name
    return _register(name, fn, n_inputs=1, cost_weight=cost_weight)


# ---------------------------------------------------------------------------
# Arithmetic / comparison / logical
# ---------------------------------------------------------------------------

add = _binary("add", np.add)
sub = _binary("sub", np.subtract)
mul = _binary("mul", np.multiply)
div = _binary("div", np.true_divide)
floordiv = _binary("floordiv", np.floor_divide)
mod = _binary("mod", np.mod)
pow_ = _binary("pow", np.power, cost_weight=4.0)
minimum = _binary("minimum", np.minimum)
maximum = _binary("maximum", np.maximum)

lt = _binary("lt", np.less)
le = _binary("le", np.less_equal)
gt = _binary("gt", np.greater)
ge = _binary("ge", np.greater_equal)
eq = _binary("eq", np.equal)
ne = _binary("ne", np.not_equal)

logical_and = _binary("logical_and", np.logical_and)
logical_or = _binary("logical_or", np.logical_or)
logical_xor = _binary("logical_xor", np.logical_xor)

neg = _unary("neg", np.negative)
abs_ = _unary("abs", np.abs)
sign = _unary("sign", np.sign)
logical_not = _unary("logical_not", np.logical_not)

exp = _unary("exp", np.exp, cost_weight=8.0)
log = _unary("log", np.log, cost_weight=8.0)
log1p = _unary("log1p", np.log1p, cost_weight=8.0)
expm1 = _unary("expm1", np.expm1, cost_weight=8.0)
sqrt = _unary("sqrt", np.sqrt, cost_weight=4.0)
sin = _unary("sin", np.sin, cost_weight=8.0)
cos = _unary("cos", np.cos, cost_weight=8.0)
tan = _unary("tan", np.tan, cost_weight=8.0)
tanh = _unary("tanh", np.tanh, cost_weight=8.0)


def _exp_neg_abs(x):
    """``exp(-|x|)`` in a fresh float64 array: in (0, 1], never overflows."""
    e = np.asarray(np.abs(x), dtype=np.float64)  # abs() never aliases x
    np.negative(e, out=e)
    return np.exp(e, out=e)


def _sigmoid(x):
    """Stable logistic function, float64, without a boolean-mask gather.

    With ``e = exp(-|x|)`` the two stable branches ``1 / (1 + e)`` (``x >=
    0``) and ``e / (1 + e)`` share a denominator, and since ``e <= 1`` the
    numerator is ``maximum(e, x >= 0)`` — bitwise the two-branch formula on
    every float64 input, computed on whole-array ufuncs.  The one definition
    behind the ``sigmoid`` primitive, :mod:`repro.autodiff.ops` and
    :mod:`repro.targets.logistic`.
    """
    x = np.asarray(x)
    e = _exp_neg_abs(x)
    out = np.maximum(e, x >= 0)
    e += 1.0
    out /= e
    return out if out.shape else out[()]


def _softplus(x):
    """Stable ``log(1 + exp(x))`` as ``max(x, 0) + log1p(exp(-|x|))``.

    Within 2 ulp (3.2e-16 relative measured) of numpy's log-add-exp ufunc
    at ``(0, x)``, whose loop is scalar; every ufunc here is vectorized.
    """
    x = np.asarray(x)
    t = _exp_neg_abs(x)
    np.log1p(t, out=t)
    t += np.maximum(x, 0)
    return t if t.shape else t[()]


sigmoid = _register("sigmoid", _sigmoid, n_inputs=1, cost_weight=10.0)

identity = _register("id", lambda x: np.asarray(x).copy(), n_inputs=1, cost_weight=0.0)
zeros_like = _register("zeros_like", lambda x: np.zeros_like(np.asarray(x)), n_inputs=1, cost_weight=0.0)
ones_like = _register("ones_like", lambda x: np.ones_like(np.asarray(x)), n_inputs=1, cost_weight=0.0)


def _select(c, a, b):
    c, a, b = _align(c, a, b)
    return np.where(c, a, b)


select = _register("select", _select, n_inputs=3)
# Alias used by the frontend for `a if c else b` expressions.
default_registry.register(
    Primitive(name="where", fn=_select, n_inputs=3, cost_weight=1.0)
)

to_float = _register("to_float", lambda x: np.asarray(x, dtype=np.float64), n_inputs=1, cost_weight=0.0)
to_int = _register("to_int", lambda x: np.asarray(np.floor(np.asarray(x, dtype=np.float64))).astype(np.int64) if np.asarray(x).dtype.kind == "f" else np.asarray(x, dtype=np.int64), n_inputs=1, cost_weight=0.0)
to_bool = _register("to_bool", lambda x: np.asarray(x, dtype=bool), n_inputs=1, cost_weight=0.0)

# ---------------------------------------------------------------------------
# Event (last-axis) reductions — valid only for event rank >= 1.
# ---------------------------------------------------------------------------


def _dot(x, y):
    x, y = _align(x, y)
    return np.sum(x * y, axis=-1)


dot = _register("dot", _dot, n_inputs=2, cost_weight=2.0)
sum_last = _register("sum_last", lambda x: np.sum(np.asarray(x), axis=-1), n_inputs=1)
max_last = _register("max_last", lambda x: np.max(np.asarray(x), axis=-1), n_inputs=1)
min_last = _register("min_last", lambda x: np.min(np.asarray(x), axis=-1), n_inputs=1)
norm_sq = _register("norm_sq", lambda x: np.sum(np.square(np.asarray(x)), axis=-1), n_inputs=1, cost_weight=2.0)

# ---------------------------------------------------------------------------
# Counter-based RNG (splitmix64)
# ---------------------------------------------------------------------------

_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Finalizer of the splitmix64 generator: a bijective uint64 hash."""
    with np.errstate(over="ignore"):
        z = (np.asarray(x, dtype=np.uint64) + _SM_GAMMA).astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * _SM_M1
        z = (z ^ (z >> np.uint64(27))) * _SM_M2
        return z ^ (z >> np.uint64(31))


def _to_unit(z: np.ndarray) -> np.ndarray:
    """uint64 -> float64 uniform in the open interval (0, 1)."""
    u = (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    # Keep draws strictly inside (0, 1) so log(u) and log(1-u) are finite.
    return np.clip(u, 2.0 ** -53, 1.0 - 2.0 ** -53)


def _elem_counters(ctr: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Derive one counter per element of ``template`` from per-member ``ctr``."""
    ctr = np.asarray(ctr, dtype=np.uint64)
    template = np.asarray(template)
    extra = template.shape[ctr.ndim:]
    n = int(np.prod(extra)) if extra else 1
    idx = np.arange(n, dtype=np.uint64).reshape(extra if extra else ())
    with np.errstate(over="ignore"):
        base = ctr.reshape(ctr.shape + (1,) * len(extra)) * _SM_GAMMA
        return (base + idx).astype(np.uint64)


def _runif(ctr):
    """One uniform (0,1) draw per member, shaped like ``ctr``."""
    return _to_unit(_splitmix64(np.asarray(ctr, dtype=np.uint64)))


def _runif_like(ctr, template):
    """Uniform (0,1) draws shaped like ``template``."""
    return _to_unit(_splitmix64(_elem_counters(ctr, template)))


def _rnorm_like(ctr, template):
    """Standard-normal draws shaped like ``template`` (Box-Muller)."""
    counters = _elem_counters(ctr, template)
    with np.errstate(over="ignore"):
        u1 = _to_unit(_splitmix64(counters))
        u2 = _to_unit(_splitmix64(counters ^ np.uint64(0xD6E8FEB86659FD93)))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def _rng_next(ctr):
    """Advance a counter by one draw slot."""
    with np.errstate(over="ignore"):
        return (np.asarray(ctr, dtype=np.uint64) + np.uint64(1)).astype(np.uint64)


runif = _register("runif", _runif, n_inputs=1, tags=("rng",))
runif_like = _register("runif_like", _runif_like, n_inputs=2, tags=("rng",))
rnorm_like = _register("rnorm_like", _rnorm_like, n_inputs=2, tags=("rng",), cost_weight=20.0)
rng_next = _register("rng_next", _rng_next, n_inputs=1, cost_weight=0.0)


def make_counters(seed: int, batch_size: int) -> np.ndarray:
    """Initial, well-separated RNG counters for a batch of ``batch_size``.

    Member streams are spaced ``2**32`` apart so that up to ~4 billion draws
    per member never collide across members.
    """
    with np.errstate(over="ignore"):
        base = _splitmix64(np.asarray([seed], dtype=np.uint64))[0]
        return (
            base + np.arange(batch_size, dtype=np.uint64) * np.uint64(2 ** 32)
        ).astype(np.uint64)
