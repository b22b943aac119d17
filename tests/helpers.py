"""Helpers shared by the test modules."""

from dataclasses import replace

import numpy as np

from devgibbs import hyperbolic as hyp


def combined_se(p1, n1, p2, n2):
    """Standard error of the difference of two independent proportions."""
    v1 = p1 * (1.0 - p1) / max(n1, 1)
    v2 = p2 * (1.0 - p2) / max(n2, 1)
    return float(np.sqrt(v1 + v2))


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
