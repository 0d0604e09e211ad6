"""Corpus of autobatchable programs used across the test suite.

Each entry exercises a distinct combination of language features; the
differential tests run every one of them under plain Python, Algorithm 1,
and Algorithm 2 (in both masking and gather-scatter modes) and require
identical results.
"""

import numpy as np

from repro import autobatch, ops


# -- recursion ----------------------------------------------------------------


@autobatch
def fib(n):
    if n <= 1:
        return 1
    return fib(n - 2) + fib(n - 1)


@autobatch
def ackermann(m, n):
    if m == 0:
        return n + 1
    if n == 0:
        return ackermann(m - 1, 1)
    return ackermann(m - 1, ackermann(m, n - 1))


@autobatch
def sum_to(n):
    """Linear recursion with an accumulator-free shape."""
    if n <= 0:
        return 0
    return n + sum_to(n - 1)


@autobatch
def count_tree(depth, seed):
    """Binary recursion whose branching depends on hashed state."""
    if depth <= 0:
        return 1
    left = count_tree(depth - 1, seed * 2)
    right = count_tree(depth - 1, seed * 2 + 1)
    if seed % 3 == 0:
        return left + right
    return left + right + 1


@autobatch
def is_odd(n):
    if n == 0:
        return 0
    return is_even(n - 1)


@autobatch
def is_even(n):
    if n == 0:
        return 1
    return is_odd(n - 1)


@autobatch
def consecutive_calls(n):
    """Two adjacent calls: between them one block pops ``n`` and pushes it
    again, the pair the paper's optimization 5 rewrites in place and that
    static frame offsets compile to one ``put``."""
    if n <= 0:
        return 1
    a = n - 1
    b = n - 2
    left = consecutive_calls(a)
    right = consecutive_calls(b)
    return left + right


# -- loops ----------------------------------------------------------------


@autobatch
def gcd(a, b):
    while b != 0:
        t = b
        b = a % b
        a = t
    return a


@autobatch
def collatz_steps(n):
    steps = 0
    while n != 1:
        if n % 2 == 0:
            n = n // 2
        else:
            n = 3 * n + 1
        steps = steps + 1
    return steps


@autobatch
def power(base, exponent):
    result = 1
    for _ in range(exponent):
        result = result * base
    return result


@autobatch
def loop_with_break(n):
    total = 0
    i = 0
    while True:
        if i >= n:
            break
        if i % 3 == 0:
            i = i + 1
            continue
        total = total + i
        i = i + 1
    return total


@autobatch
def nested_loops(n):
    total = 0
    for i in range(n):
        for j in range(i):
            total = total + i * j
    return total


@autobatch
def loop_calling(n):
    """A loop body containing a recursive call (stacks inside a loop)."""
    total = 0
    i = 0
    while i < n:
        total = total + fib(i)
        i = i + 1
    return total


# -- straight-line / branching ----------------------------------------------


@autobatch
def poly(x):
    return 3.0 * x * x * x - 2.0 * x * x + x - 7.0


@autobatch
def clamp(x, lo, hi):
    if x < lo:
        return lo
    elif x > hi:
        return hi
    else:
        return x


@autobatch
def sign_of(x):
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


@autobatch
def abs_diff(x, y):
    big = x if x > y else y
    small = y if x > y else x
    return big - small


@autobatch
def logic_soup(a, b):
    p = a > 0 and b > 0
    q = a < 0 or b < 0
    r = not p
    s = 0 < a < 10
    return (1 if p else 0) + (2 if q else 0) + (4 if r else 0) + (8 if s else 0)


# -- tuples / multiple returns ------------------------------------------------


@autobatch
def divmod_ab(a, b):
    q = a // b
    r = a % b
    return q, r


@autobatch
def use_divmod(a, b):
    q, r = divmod_ab(a, b)
    return q * 1000 + r


@autobatch
def swap_chain(a, b):
    a, b = b, a
    a, b = b, a + b
    return a, b


@autobatch
def minmax3(a, b, c):
    lo = a
    hi = a
    if b < lo:
        lo = b
    if b > hi:
        hi = b
    if c < lo:
        lo = c
    if c > hi:
        hi = c
    return lo, hi


@autobatch
def recursive_pair(n):
    """Recursion through a multi-output function."""
    if n <= 0:
        return 0, 1
    evens, odds = recursive_pair(n - 1)
    if n % 2 == 0:
        return evens + 1, odds
    return evens, odds + 1


# -- float / primitive-using programs -----------------------------------------


@autobatch
def newton_sqrt(x):
    guess = x
    i = 0
    while i < 20:
        guess = 0.5 * (guess + x / guess)
        i = i + 1
    return guess


@autobatch
def smooth(x):
    return ops.exp(-0.5 * x * x) / ops.sqrt(2.0 * 3.141592653589793)


@autobatch
def vector_norm(v):
    return ops.sqrt(ops.dot(v, v))


@autobatch
def rng_walk(ctr, n):
    """Counter-based RNG: each member's draws depend only on its own state."""
    x = 0.0
    i = 0
    while i < n:
        u = ops.runif(ctr)
        ctr = ops.rng_next(ctr)
        if u > 0.5:
            x = x + 1.0
        else:
            x = x - 1.0
        i = i + 1
    return x


# -- variables typed by a join (outside ALL_EXAMPLES) --------------------------


@autobatch
def mixed_paths(n):
    """``x`` is int on one path and float on the other: a register."""
    if n % 2 == 0:
        x = n
    else:
        x = n * 0.5
    return x + 1


@autobatch
def mixed_rec(n):
    """``x`` is int on one path and float on the other, and lives across
    the recursive call: a stacked variable."""
    if n % 2 == 0:
        x = n
    else:
        x = n * 0.5
    y = 0.0
    if n > 0:
        y = mixed_rec(n - 1)
    return x + y


@autobatch
def twice(x):
    return x if x > 100 else x + x


# -- grouped corpora for parametrized tests ------------------------------------


INT_UNARY = {
    "fib": (fib, np.array([0, 1, 3, 7, 4, 5, 10])),
    "sum_to": (sum_to, np.array([0, 1, 5, 13, 2])),
    "collatz_steps": (collatz_steps, np.array([1, 2, 7, 27, 6])),
    "loop_with_break": (loop_with_break, np.array([0, 1, 5, 11])),
    "nested_loops": (nested_loops, np.array([0, 1, 3, 6])),
    "sign_of": (sign_of, np.array([-4, 0, 9])),
    "loop_calling": (loop_calling, np.array([0, 2, 5, 7])),
    "consecutive_calls": (consecutive_calls, np.array([0, 3, 6, 9])),
    "is_even": (is_even, np.array([0, 1, 4, 9])),
}

INT_BINARY = {
    "ackermann": (ackermann, np.array([0, 1, 2, 2, 3]), np.array([3, 2, 3, 0, 3])),
    "gcd": (gcd, np.array([12, 17, 100, 3]), np.array([18, 5, 75, 0])),
    "power": (power, np.array([2, 3, 5, 1]), np.array([0, 4, 3, 7])),
    "divmod_ab": (divmod_ab, np.array([17, 5, 100]), np.array([5, 17, 9])),
    "use_divmod": (use_divmod, np.array([17, 5, 100]), np.array([5, 17, 9])),
    "swap_chain": (swap_chain, np.array([1, 10, -3]), np.array([2, 20, 4])),
    "logic_soup": (logic_soup, np.array([3, -2, 0, 12]), np.array([4, 5, -1, 12])),
}

ALL_EXAMPLES = {}
for _name, (_fn, _arr) in INT_UNARY.items():
    ALL_EXAMPLES[_name] = (_fn, (_arr,))
for _name, (_fn, _a, _b) in INT_BINARY.items():
    ALL_EXAMPLES[_name] = (_fn, (_a, _b))
ALL_EXAMPLES["recursive_pair"] = (recursive_pair, (np.array([0, 1, 5, 8]),))
ALL_EXAMPLES["poly"] = (poly, (np.array([0.0, -1.5, 2.25]),))
ALL_EXAMPLES["newton_sqrt"] = (newton_sqrt, (np.array([1.0, 2.0, 49.0, 0.25]),))
ALL_EXAMPLES["smooth"] = (smooth, (np.array([0.0, 1.0, -2.0]),))
ALL_EXAMPLES["clamp"] = (
    clamp,
    (np.array([1.0, -5.0, 9.0]), np.array([0.0, 0.0, 0.0]), np.array([5.0, 5.0, 5.0])),
)
ALL_EXAMPLES["abs_diff"] = (abs_diff, (np.array([3.0, -1.0]), np.array([1.0, 4.0])))
ALL_EXAMPLES["minmax3"] = (
    minmax3,
    (np.array([3, 1, 7]), np.array([2, 9, 7]), np.array([5, 4, 0])),
)
ALL_EXAMPLES["count_tree"] = (
    count_tree,
    (np.array([0, 1, 3, 4]), np.array([5, 1, 2, 9])),
)
ALL_EXAMPLES["rng_walk"] = (
    rng_walk,
    (ops.make_counters(7, 5), np.array([0, 1, 5, 9, 20])),
)
ALL_EXAMPLES["vector_norm"] = (
    vector_norm,
    (np.array([[3.0, 4.0], [1.0, 0.0], [0.5, 0.5]]),),
)
