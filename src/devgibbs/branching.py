"""Branch structure and interval sets for the 1D map families.

This module is the one place that knows how sets of points on a chart
are represented, merged, imaged and pulled back.  A set is an
``IntervalUnion``: sorted disjoint closed intervals inside the branch
chart, which is [pieces[0].lo, pieces[-1].hi] for an interval map and
[0, 1) for a circle map, whose sets are stored cut at the seam.

Interval maps carry explicit monotone pieces with one-sided limit values
at the breakpoints (so discontinuities like the gap at 1/2 in the
intermittent family are represented exactly); degree-d circle maps carry
a strictly increasing lift.  Each branch has one inverse, vectorized over
values: a closed form, or ``newton_inverse`` where none exists.  Both
flavours offer the same set operations, ``ball`` and ``image``, and
both pull intervals back through the branch that contains a point,
vectorized over points, which is what exact dynamical balls need.  Whole
preimage sets and intersections, which only the tests take, are in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .errors import ConfigError

_NEWTON_ITERS = 64
MERGE_TOL = 1e-12
MAX_COMPONENTS = 10_000
COVER_TOL = 1e-9


def newton_inverse(fwd, dfwd, y, lo, hi):
    """Vectorized t in [lo, hi] with fwd(t) = y, for fwd increasing there.

    Newton steps from the bracket midpoint; a step that would leave the
    current bracket bisects instead, so each iteration either converges
    quadratically or halves the bracket.  An entry stops once its step
    falls to a few ulps, so its value does not depend on the rest of the
    batch.
    """
    y = np.asarray(y, dtype=float)
    shape = y.shape
    y = y.ravel()
    lo = np.broadcast_to(np.asarray(lo, dtype=float), shape).ravel().copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), shape).ravel().copy()
    t = 0.5 * (lo + hi)
    idx = np.arange(y.size)
    for _ in range(_NEWTON_ITERS):
        if idx.size == 0:
            break
        ti = t[idx]
        r = fwd(ti) - y[idx]
        lo_i = np.where(r < 0.0, ti, lo[idx])
        hi_i = np.where(r > 0.0, ti, hi[idx])
        lo[idx], hi[idx] = lo_i, hi_i
        nxt = ti - r / dfwd(ti)
        nxt = np.where((nxt > lo_i) & (nxt < hi_i), nxt, 0.5 * (lo_i + hi_i))
        nxt = np.where(r == 0.0, ti, nxt)
        t[idx] = nxt
        idx = idx[np.abs(nxt - ti) > 4.0 * np.spacing(np.abs(nxt))]
    return t.reshape(shape)


class IntervalUnion:
    """Sorted disjoint closed intervals inside a chart [lo, hi].

    Intervals closer than ``MERGE_TOL`` are merged.  Circle sets live in
    the chart [0, 1); wrapped arcs are stored split at the seam.
    """

    def __init__(self, segments, lo: float, hi: float):
        self.lo = lo
        self.hi = hi
        segs = []
        for a, b in segments:
            a, b = max(a, lo), min(b, hi)
            if b >= a:
                segs.append((a, b))
        segs.sort()
        merged: List[List[float]] = []
        for a, b in segs:
            if merged and a <= merged[-1][1] + MERGE_TOL:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        if len(merged) > MAX_COMPONENTS:
            raise ConfigError(
                f"interval union exceeded {MAX_COMPONENTS} components")
        self.segments = [(a, b) for a, b in merged]

    @property
    def total_length(self) -> float:
        return sum(b - a for a, b in self.segments)

    def covers_chart(self, tol: float = COVER_TOL) -> bool:
        return self.total_length >= (self.hi - self.lo) - tol


def _split(a, ln):
    """The arc [a, a + ln], a in [0, 1), as chart segments cut at the seam."""
    if a + ln <= 1.0:
        return [(a, a + ln)]
    return [(a, 1.0), (0.0, a + ln - 1.0)]


@dataclass(frozen=True)
class MonotonePiece:
    """f restricted to [lo, hi], continuous and strictly monotone there.

    ``f_lo`` / ``f_hi`` are one-sided limits at the endpoints.  ``fwd``
    and ``inv_array`` act elementwise on arrays; ``fwd`` uses the same
    arithmetic as the map's ``step``, and ``inv_array`` inverts it on
    values between the two limits.
    """

    lo: float
    hi: float
    f_lo: float
    f_hi: float
    fwd: Callable[[float], float]
    inv_array: Callable[[np.ndarray], np.ndarray]

    @property
    def increasing(self):
        return self.f_hi >= self.f_lo

    def value_at(self, t):
        if t == self.lo:
            return self.f_lo
        if t == self.hi:
            return self.f_hi
        return float(self.fwd(t))

    def value_range(self):
        return (min(self.f_lo, self.f_hi), max(self.f_lo, self.f_hi))


@dataclass(frozen=True)
class IntervalBranches:
    pieces: Tuple[MonotonePiece, ...]

    @property
    def chart(self):
        return self.pieces[0].lo, self.pieces[-1].hi

    def ball(self, center, eps) -> IntervalUnion:
        """[center - eps, center + eps], cut at the chart ends."""
        return IntervalUnion([(center - eps, center + eps)], *self.chart)

    def image(self, u: IntervalUnion) -> IntervalUnion:
        """f(u): one closed interval per piece that a component meets."""
        segs = []
        for a, b in u.segments:
            for p in self.pieces:
                lo, hi = max(a, p.lo), min(b, p.hi)
                if lo <= hi:
                    fa, fb = p.value_at(lo), p.value_at(hi)
                    segs.append((min(fa, fb), max(fa, fb)))
        return IntervalUnion(segs, *self.chart)

    def pull_back(self, o, lo, hi):
        """Offsets (lo', hi') around each o of the component containing o
        of f^{-1}([f(o) - lo, f(o) + hi]).

        The component follows the piece that contains o (a breakpoint
        belongs to the piece on its left, as in ``step``).  Where it
        reaches a breakpoint at which f is continuous, a turning point, it
        continues into the next piece; at a jump it stops.
        """
        o = np.asarray(o, dtype=float)
        k = np.searchsorted([p.hi for p in self.pieces[:-1]], o, side="left")
        left = np.empty_like(o)
        right = np.empty_like(o)
        for i, p in enumerate(self.pieces):
            sel = k == i
            if not np.any(sel):
                continue
            y = p.fwd(o[sel])
            ylo, yhi = y - lo[sel], y + hi[sel]
            left[sel] = self._reach(i, ylo, yhi, -1)
            right[sel] = self._reach(i, ylo, yhi, 1)
        return o - left, right - o

    def _reach(self, i, ylo, yhi, side):
        """Far end, walking from piece i in direction ``side``, of the
        points whose values stay in [ylo, yhi]."""
        out = np.empty_like(ylo)
        todo = np.ones(ylo.shape, dtype=bool)
        while True:
            p = self.pieces[i]
            end, f_end = (p.hi, p.f_hi) if side > 0 else (p.lo, p.f_lo)
            rising = p.increasing == (side > 0)
            bound = yhi if rising else ylo
            inside = (bound < f_end) if rising else (bound > f_end)
            stop = todo & inside
            out[stop] = p.inv_array(bound[stop])
            todo &= ~inside
            nxt = i + side
            if not np.any(todo) or not 0 <= nxt < len(self.pieces):
                break
            q = self.pieces[nxt]
            joined = (q.lo, q.f_lo) if side > 0 else (q.hi, q.f_hi)
            if joined != (end, f_end):
                break
            i = nxt
        out[todo] = end
        return out


@dataclass(frozen=True)
class CircleBranches:
    """Degree-d covering map of the circle via a strictly increasing lift.

    ``lift`` maps [0, 1] onto [base, base + d] where base = lift(0) (a
    possibly nonzero rotation offset).  It acts elementwise on arrays and
    satisfies lift(x + 1) = lift(x) + d on the whole line, where
    ``inv_lift_array`` inverts it elementwise.  Sets are unions on the
    chart [0, 1), cut at the seam.
    """

    degree: int
    lift: Callable[[float], float]
    inv_lift_array: Callable[[np.ndarray], np.ndarray]
    base: float = 0.0

    def ball(self, center, eps) -> IntervalUnion:
        """The arc of radius eps about ``center``; the whole circle when
        2 eps >= 1."""
        return IntervalUnion(_split((center - eps) % 1.0, min(2.0 * eps, 1.0)),
                             0.0, 1.0)

    def image(self, u: IntervalUnion) -> IntervalUnion:
        """f(u): one arc per component; the whole circle as soon as one
        component's image wraps it."""
        segs = []
        for a, b in u.segments:
            s = a % 1.0
            hi = s + (b - a)
            g0 = float(self.lift(s))
            if hi <= 1.0:
                g1 = float(self.lift(hi))
            else:
                g1 = float(self.lift(hi - 1.0)) + self.degree
            if g1 - g0 >= 1.0:
                return IntervalUnion([(0.0, 1.0)], 0.0, 1.0)
            segs += _split(g0 % 1.0, g1 - g0)
        return IntervalUnion(segs, 0.0, 1.0)

    def pull_back(self, o, lo, hi):
        """Offsets (lo', hi') around each o of the component containing o
        of the preimage of the arc [f(o) - lo, f(o) + hi], taken through
        the lift: o - L^{-1}(L(o) - lo) and L^{-1}(L(o) + hi) - o."""
        o = np.asarray(o, dtype=float)
        v = self.lift(o)
        return (o - self.inv_lift_array(v - lo),
                self.inv_lift_array(v + hi) - o)
