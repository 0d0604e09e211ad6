"""Differentiable numpy operations.

Each op is built with :func:`~repro.autodiff.tape.defvjp`: a forward numpy
function plus one vector-Jacobian-product per argument.  The set covers what
the target densities need (linear algebra, elementwise transcendentals,
stable log-sigmoid / logsumexp) plus general conveniences.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.tape import defvjp
from repro.frontend.primitives import _sigmoid, _softplus

# -- arithmetic -----------------------------------------------------------------

add = defvjp(
    np.add,
    lambda r, x, y: lambda g: g,
    lambda r, x, y: lambda g: g,
)

sub = defvjp(
    np.subtract,
    lambda r, x, y: lambda g: g,
    lambda r, x, y: lambda g: -g,
)

mul = defvjp(
    np.multiply,
    lambda r, x, y: lambda g: g * y,
    lambda r, x, y: lambda g: g * x,
)

div = defvjp(
    np.true_divide,
    lambda r, x, y: lambda g: g / y,
    lambda r, x, y: lambda g: -g * x / (y * y),
)

neg = defvjp(np.negative, lambda r, x: lambda g: -g)

power = defvjp(
    np.power,
    lambda r, x, y: lambda g: g * y * np.power(x, y - 1),
    lambda r, x, y: lambda g: g * r * np.log(np.where(x > 0, x, 1.0)),
)

# -- elementwise transcendentals ----------------------------------------------

exp = defvjp(np.exp, lambda r, x: lambda g: g * r)
log = defvjp(np.log, lambda r, x: lambda g: g / x)
log1p = defvjp(np.log1p, lambda r, x: lambda g: g / (1.0 + x))
sqrt = defvjp(np.sqrt, lambda r, x: lambda g: 0.5 * g / r)
tanh = defvjp(np.tanh, lambda r, x: lambda g: g * (1.0 - r * r))
sin = defvjp(np.sin, lambda r, x: lambda g: g * np.cos(x))
cos = defvjp(np.cos, lambda r, x: lambda g: -g * np.sin(x))
abs_ = defvjp(np.abs, lambda r, x: lambda g: g * np.sign(x))


sigmoid = defvjp(_sigmoid, lambda r, x: lambda g: g * r * (1.0 - r))

# log sigmoid(x) = -softplus(-x), computed stably.
log_sigmoid = defvjp(
    lambda x: -_softplus(-x),
    lambda r, x: lambda g: g * _sigmoid(-x),
)

# -- reductions / linear algebra -----------------------------------------------


def _sum_vjp(axis):
    def maker(r, x):
        def vjp(g):
            if axis is None:
                return np.broadcast_to(g, np.shape(x))
            g = np.expand_dims(g, axis)
            return np.broadcast_to(g, np.shape(x))

        return vjp

    return maker


def sum(x, axis=None):  # noqa: A001 - mirrors numpy naming
    op = defvjp(lambda v: np.sum(v, axis=axis), _sum_vjp(axis))
    return op(x)


def mean(x, axis=None):
    """Differentiable sum over ``axis`` (None = all elements)."""
    from repro.autodiff.tape import ensure_variable

    x = ensure_variable(x)
    count = x.value.size if axis is None else x.value.shape[axis]
    return div(sum(x, axis=axis), float(count))


matmul = defvjp(
    np.matmul,
    lambda r, x, y: lambda g: np.matmul(g, np.swapaxes(y, -1, -2) if np.ndim(y) > 1 else y[None, :]) if np.ndim(y) > 1 else np.multiply.outer(g, y),
    lambda r, x, y: lambda g: np.matmul(np.swapaxes(x, -1, -2), g) if np.ndim(x) > 1 else np.multiply.outer(x, g),
)


def dot_last(x, y):
    """Per-batch-member inner product over the last axis."""
    return sum(mul(x, y), axis=-1)


def logsumexp(x, axis=-1):
    """Numerically stable differentiable log-sum-exp over ``axis``."""
    def forward(v):
        m = np.max(v, axis=axis, keepdims=True)
        return (m + np.log(np.sum(np.exp(v - m), axis=axis, keepdims=True))).squeeze(axis)

    def maker(r, v):
        def vjp(g):
            r_expanded = np.expand_dims(r, axis)
            g_expanded = np.expand_dims(g, axis)
            return g_expanded * np.exp(v - r_expanded)

        return vjp

    return defvjp(forward, maker)(x)


def where(cond, a, b):
    """Differentiable select; the condition itself is non-differentiable."""
    cond = np.asarray(cond)
    op = defvjp(
        lambda av, bv: np.where(cond, av, bv),
        lambda r, av, bv: lambda g: np.where(cond, g, 0.0),
        lambda r, av, bv: lambda g: np.where(cond, 0.0, g),
    )
    return op(a, b)
