"""Helpers shared by the test modules."""

from dataclasses import replace

import numpy as np

from devgibbs import hyperbolic as hyp
from devgibbs.dynamics import orbit


def combined_se(p1, n1, p2, n2):
    """Standard error of the difference of two independent proportions."""
    v1 = p1 * (1.0 - p1) / max(n1, 1)
    v2 = p2 * (1.0 - p2) / max(n2, 1)
    return float(np.sqrt(v1 + v2))


def evaluate(m, x):
    """Apply the map once, checking the input point."""
    return orbit(m, x, 1)[1]


def with_out(f):
    """f(x) as an observable or potential ``fn(x, out=None)``: given
    ``out``, it writes the values there and returns it."""
    def fn(x, out=None):
        if out is None:
            return f(x)
        out[...] = f(x)
        return out
    return fn


def constant(v):
    """The constant observable or potential v on a 1D domain."""
    return with_out(lambda x: np.full(np.shape(x), v))


def neg_log_deriv(m):
    """The potential -log |f'| of a 1D map."""
    return with_out(lambda x: -np.log(np.abs(m.deriv(x))))


def all_times(m, xs, params):
    """Every hyperbolic time up to ``params.n_max`` of each point of xs,
    read off one scan that retires no point."""
    times = [[] for _ in xs]
    for n, hit in hyp._scan(m, xs, params, params.n_max, params.n_max):
        for i in hit:
            times[i].append(n)
    return [np.array(t, dtype=np.int64) for t in times]


def count_steps(m):
    """A copy of m whose ``step`` appends the number of points of each call
    to the returned list: its length counts calls, its sum point-steps."""
    sizes = []

    def step(x, out=None):
        sizes.append(np.shape(x)[0] if np.ndim(x) else 1)
        return m.step(x, out=out)

    return replace(m, step=step), sizes
