"""Map-evaluation kernel: orbits, Birkhoff sums, Jacobian data.

All operations are pure functions of immutable inputs, so map systems can
be shared freely across worker threads.  Evaluation is vectorized: a
"point" argument may be a scalar (1D domains) or an array of points, in
which case every operation broadcasts elementwise.  Cylinder points put
their coordinates on the last axis.

The hyperbolic-time scan raises ``SingularityError`` for orbits that
come within ``NEAR_CRITICAL_TOL`` of the critical set instead of
propagating non-finite derivative data; exact critical hits are
floating-point artifacts of measure zero.

``walk`` is the one stepping loop.  It checks the points it is handed
with ``domain.require``, since ``step`` keeps the domain only from inside
it, and steps only the points its reader keeps: ``orbit`` records them,
``birkhoff_sums`` adds g along them, and the ``gibbs.ball_measure`` job
and ``hyperbolic._scan_blocks`` retire points as they go.  The scan reads
the walk's states in blocks of rows and evaluates the map's derivative
and critical distance once per block, but it still takes every step
through the walk, one call of ``step`` per row.  No caller clamps a
``step`` result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, EvaluationError, RangeError

NEAR_CRITICAL_TOL = 1e-14


@dataclass(frozen=True)
class MapSystem:
    """A dynamical system handle.

    ``step`` is the point update and maps the domain into itself (each
    family's constructor says why), so its images are never clamped;
    ``deriv`` returns |f'(x)| data as a scalar for 1D maps or a (..., 2, 2)
    Jacobian for cylinder maps, and ``crit_dist`` is the distance to the
    critical/singular set (``inf`` when the set is empty).
    ``branches`` is the family's branch structure (``devgibbs.branching``),
    which images and pulls back interval sets; it is ``None`` where the
    map has none.
    ``float_horizon`` is the longest orbit whose double-precision
    iterates still carry information, for maps that step a coordinate by
    exactly x -> d x mod 1 (the linear circle maps, and the base angle of
    the skew product): each step drops log2 d mantissa bits, so by step
    52 / log2 d that coordinate has collapsed onto a grid that ends at 0.
    It is ``None`` where no such bound is known.
    ``family`` is the ``maps`` family that built the map, if any.
    """

    label: str
    domain: object
    params: dict
    step: Callable
    deriv: Callable
    crit_dist: Callable
    branches: Optional[object] = None
    float_horizon: Optional[float] = None
    family: Optional[str] = None

    def __call__(self, x):
        return evaluate(self, x)


def check_float_horizon(m: MapSystem, n: int, setting: str):
    """Refuse orbit lengths past the map's floating-point horizon."""
    h = m.float_horizon
    if h is not None and n > h:
        raise ConfigError(
            f"{setting}={n} exceeds the floating-point horizon "
            f"{math.floor(h)} of {m.label}: the d x mod 1 coordinate of a "
            f"double-precision orbit collapses to 0 by then; lower {setting} "
            f"to at most {math.floor(h)}")


@dataclass(frozen=True)
class Observable:
    """A real-valued function on the domain, vectorized over points."""

    fn: Callable
    label: str

    def __call__(self, x):
        return self.fn(x)


@dataclass(frozen=True)
class PotentialModel:
    """A potential together with its pressure normalization.

    The conformal Jacobian convention is J = lam * exp(-phi) with
    lam = exp(pressure), and psi = phi - pressure is the normalized
    potential entering the measure-control estimates.
    """

    phi: Callable
    pressure: float
    label: str = "potential"

    @property
    def lam(self):
        return math.exp(self.pressure)

    def psi(self, x):
        return np.asarray(self.phi(x), dtype=float) - self.pressure


def evaluate(m: MapSystem, x):
    """Apply the map once, validating the input point."""
    return orbit(m, x, 1)[1]


class walk:
    """Iterate ``(j, live states)`` for j = 0..n from points checked on the
    way in.  ``keep(idx)``, a mask or an index array, retires the others;
    the walk ends once no point is live and takes no step after j = n."""

    def __init__(self, m: MapSystem, xs, n: int):
        self.m, self.n = m, n
        self.cur = np.asarray(m.domain.require(xs), dtype=float)

    def __iter__(self):
        for j in range(self.n + 1):
            yield j, self.cur
            if j == self.n or not self.cur.size:
                return
            self.cur = self.m.step(self.cur)

    def keep(self, idx):
        self.cur = self.cur[idx]


def orbit(m: MapSystem, x, n: int):
    """Return the n+1 orbit points x, f(x), ..., f^n(x).

    The leading axis of the result indexes time.  Works for single points
    and for batches (extra axes are preserved).
    """
    if n < 0:
        raise ValueError("orbit length must be >= 0")
    steps = walk(m, x, n)
    out = np.empty((n + 1,) + steps.cur.shape)
    for j, cur in steps:
        out[j] = cur
    return out


def birkhoff_sums(m: MapSystem, g, xs, n_grid):
    """Yield ``(n, S_n g)`` at each n of the grid, adding g along one walk
    into one running total: read it before the next value.  A non-finite g
    keeps the total non-finite, so it is checked once, at the last n."""
    if min(n_grid) < 1:
        raise ValueError("Birkhoff sums need n >= 1")
    last = max(n_grid)
    steps = walk(m, xs, last - 1)
    total = np.zeros(steps.cur.shape[:steps.cur.ndim + 1 - m.domain.ndim])
    for j, cur in steps:
        total += g(cur)  # never += into g's result: it may be the state
        if j + 1 == last and not np.isfinite(total).all():
            vals = np.asarray(g(orbit(m, xs, last - 1)), dtype=float)
            bad = ~np.isfinite(vals).reshape(last, -1).all(axis=1)
            if not bad.any():
                raise RangeError(f"S_{last} g overflowed")
            k = int(np.argmax(bad))
            raise EvaluationError(f"observable non-finite at orbit index {k}",
                                  index=k)
        if j + 1 in n_grid:
            yield j + 1, total
    yield from ((n, total) for n in n_grid if n > j + 1)  # walk ended early


def birkhoff_sum(m: MapSystem, g, x, n: int):
    """Sum of g over the first n orbit points of x (see ``birkhoff_sums``)."""
    return next(birkhoff_sums(m, g, x, (n,)))[1]


def jacobian_data(m: MapSystem, pts):
    """(sigma_min, sigma_max, det) of Df at each point.

    In 1D these are (|f'|, |f'|, f'); ||Df^{-1}|| is 1 / sigma_min.
    """
    d = np.asarray(m.deriv(pts), dtype=float)
    if m.domain.ndim == 1:
        mag = np.abs(d)
        return mag, mag, d
    a, b = d[..., 0, 0], d[..., 0, 1]
    c, e = d[..., 1, 0], d[..., 1, 1]
    sq = a * a + b * b + c * c + e * e
    det = a * e - b * c
    disc = np.sqrt(np.maximum(sq * sq - 4.0 * det * det, 0.0))
    smin = np.sqrt(np.maximum((sq - disc) / 2.0, 0.0))
    smax = np.sqrt((sq + disc) / 2.0)
    return smin, smax, det

