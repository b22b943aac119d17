"""Map-evaluation kernel: orbits, Birkhoff sums, derivative cocycles.

All operations are pure functions of immutable inputs, so map systems can
be shared freely across worker threads.  Evaluation is vectorized: a
"point" argument may be a scalar (1D domains) or an array of points, in
which case every operation broadcasts elementwise.  Cylinder points put
their coordinates on the last axis.

Orbits that come within ``NEAR_CRITICAL_TOL`` of the critical set raise
``SingularityError`` instead of propagating non-finite derivative data;
exact critical hits are floating-point artifacts of measure zero.

``orbit`` is the loop that records an orbit: ``birkhoff_sum``,
``expansion_cocycle`` and the dynamical-ball and shadowing checks read
their values off its rows.  Three loops step points themselves, because
they do not keep the orbit: ``deviation._birkhoff_walk`` carries a
running sum, where a recorded orbit of a 65,536-point chunk would take
about 16 MB per worker at n = 30, and the ``gibbs.ball_measure`` job and
``hyperbolic._scan`` drop points as they go (those that leave the
ball, those that have their time).  No caller clamps a ``step`` result.
``step`` keeps the domain only from inside it, so each of the four loops
checks the points it is handed with ``domain.require`` on the way in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, EvaluationError, SingularityError

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
    return m.step(m.domain.require(x))


def orbit(m: MapSystem, x, n: int):
    """Return the n+1 orbit points x, f(x), ..., f^n(x).

    The leading axis of the result indexes time.  Works for single points
    and for batches (extra axes are preserved).
    """
    if n < 0:
        raise ValueError("orbit length must be >= 0")
    x = m.domain.require(x)
    x = np.asarray(x, dtype=float)
    out = np.empty((n + 1,) + x.shape)
    out[0] = x
    cur = x
    for j in range(n):
        cur = m.step(cur)
        out[j + 1] = cur
    return out


def birkhoff_sum(m: MapSystem, g, x, n: int):
    """Sum of g over the first n orbit points of x.

    Raises ``EvaluationError`` carrying the orbit index if g produces a
    non-finite value on an in-domain point.
    """
    if n < 1:
        raise ValueError("birkhoff_sum needs n >= 1")
    vals = np.asarray(g(orbit(m, x, n - 1)), dtype=float)
    finite = np.isfinite(vals).reshape(n, -1).all(axis=1)
    if not finite.all():
        j = int(np.argmax(~finite))
        raise EvaluationError(f"observable non-finite at orbit index {j}", index=j)
    # add the rows in orbit order, as a running sum does (np.sum pairs them)
    return np.add.accumulate(vals, axis=0)[-1]


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


def expansion_cocycle(m: MapSystem, x, n: int):
    """The n values ||Df(f^j(x))^{-1}|| for j = 0..n-1.

    Raises ``SingularityError`` (with the offending index) if the orbit
    passes within ``NEAR_CRITICAL_TOL`` of the critical set.
    """
    if n < 1:
        raise ValueError("expansion_cocycle needs n >= 1")
    orb = orbit(m, x, n - 1)
    dist = np.asarray(m.crit_dist(orb), dtype=float)
    near = (dist < NEAR_CRITICAL_TOL).reshape(n, -1).any(axis=1)
    if near.any():
        j = int(np.argmax(near))
        raise SingularityError(f"orbit hit the critical set at index {j}", index=j)
    return 1.0 / jacobian_data(m, orb)[0]


def truncated_distance(m: MapSystem, x, delta: float):
    """Distance to the critical set below ``delta``, and 1 otherwise."""
    if delta <= 0:
        raise ValueError("truncation radius must be positive")
    dist = np.asarray(m.crit_dist(np.asarray(x, dtype=float)), dtype=float)
    return np.where(dist < delta, dist, 1.0)
