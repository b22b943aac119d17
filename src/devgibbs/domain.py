"""Phase-space descriptors: intervals, the circle, and the cylinder.

Points on 1D domains are floats (or float arrays); cylinder points are
arrays whose last axis has length 2, ordered (angle, fiber).  The circle
is parameterized by [0, 1) with the wrap metric; the cylinder carries the
max of the circle metric on the angle and the absolute metric on the
fiber, so dynamical balls factor into products of 1D balls.  ``clamp``
and ``require`` write into an ``out`` when given one, which may be the
points themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_EDGE_TOL = 1e-12


def frac(x):
    """x mod 1, bit for bit as numpy's float ``x % 1.0`` but faster.

    For finite x both round the real x - floor(x) once: numpy takes the
    exact fmod(x, 1) and adds 1 when it is negative, the subtraction
    takes it directly.  Integers give +0.0 either way.
    """
    return x - np.floor(x)


def _wrap(x, out):
    """frac(frac(x)) into ``out``, which may be x: frac(x) lies in [0, 1],
    and the second frac only folds the 1.0 of a tiny negative x to 0."""
    # floor(x) goes into out only where that does not overwrite x
    fl = np.floor(x, out=None if np.may_share_memory(x, out) else out)
    np.subtract(x, fl, out=out)
    np.copyto(out, 0.0, where=out == 1.0)
    return out


def circle_dist(a, b):
    """Arc-length distance on R/Z."""
    d = frac(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))
    return np.minimum(d, 1.0 - d)


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    name: str = "interval"

    @property
    def ndim(self):
        return 1

    def contains(self, x, tol=_EDGE_TOL):
        x = np.asarray(x, dtype=float)
        return np.all((x >= self.lo - tol) & (x <= self.hi + tol))

    def clamp(self, x, out=None):
        return np.clip(x, self.lo, self.hi, out=out)

    def require(self, x, out=None):
        if not self.contains(x):
            raise DomainError(f"point {x!r} outside [{self.lo}, {self.hi}]")
        return self.clamp(x, out)

    def distance(self, x, y):
        return np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))

    def sample(self, rng, n):
        u = rng.random(n)  # lo + (hi - lo) u, in place: the same bits
        u *= self.hi - self.lo
        u += self.lo
        return u


@dataclass(frozen=True)
class Circle:
    name: str = "circle"

    @property
    def ndim(self):
        return 1

    def contains(self, x, tol=_EDGE_TOL):
        x = np.asarray(x, dtype=float)
        return np.all((x >= -tol) & (x < 1.0 + tol))

    def clamp(self, x, out=None):
        x = np.asarray(x, dtype=float)
        return _wrap(x, np.empty_like(x) if out is None else out)

    def require(self, x, out=None):
        if not self.contains(x):
            raise DomainError(f"point {x!r} outside the circle chart [0, 1)")
        return self.clamp(x, out)

    def distance(self, x, y):
        return circle_dist(x, y)

    def sample(self, rng, n):
        return rng.random(n)


@dataclass(frozen=True)
class Cylinder:
    """S^1 x [fiber_lo, fiber_hi] with the max metric."""

    fiber_lo: float
    fiber_hi: float
    name: str = "cylinder"

    @property
    def ndim(self):
        return 2

    def contains(self, p, tol=_EDGE_TOL):
        p = np.asarray(p, dtype=float)
        theta, x = p[..., 0], p[..., 1]
        ok_theta = (theta >= -tol) & (theta < 1.0 + tol)
        ok_x = (x >= self.fiber_lo - tol) & (x <= self.fiber_hi + tol)
        return np.all(ok_theta & ok_x)

    def clamp(self, p, out=None):
        p = np.asarray(p, dtype=float)
        out = np.empty_like(p) if out is None else out
        _wrap(p[..., 0], out[..., 0])  # as in Circle.clamp
        np.clip(p[..., 1], self.fiber_lo, self.fiber_hi, out=out[..., 1])
        return out

    def require(self, p, out=None):
        if not self.contains(p):
            raise DomainError(f"point {p!r} outside the cylinder")
        return self.clamp(p, out)

    def distance(self, p, q):
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        return np.maximum(circle_dist(p[..., 0], q[..., 0]),
                          np.abs(p[..., 1] - q[..., 1]))

    def sample(self, rng, n):
        out = np.empty((n, 2))
        out[:, 0] = rng.random(n)
        out[:, 1] = self.fiber_lo + (self.fiber_hi - self.fiber_lo) * rng.random(n)
        return out
