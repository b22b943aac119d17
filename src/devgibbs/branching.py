"""Piecewise-monotone branch structure for 1D map families.

Two flavours: interval maps carry explicit monotone pieces with one-sided
limit values at the breakpoints (so discontinuities like the gap at 1/2 in
the intermittent family are represented exactly), and degree-d circle maps
carry a strictly increasing lift with its inverse.  Both support the two
operations the orbit-piece machinery needs: forward images of intervals
and complete preimage enumeration of intervals.  Both also pull intervals
back through the branch that contains a point, vectorized over points,
which is what exact dynamical balls need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

_NEWTON_ITERS = 64


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


@dataclass(frozen=True)
class MonotonePiece:
    """f restricted to [lo, hi], continuous and strictly monotone there.

    ``f_lo`` / ``f_hi`` are one-sided limits at the endpoints; ``inv``
    inverts f on the piece and is only called with values between them.
    ``fwd`` and ``inv_array`` act elementwise on arrays; ``fwd`` uses the
    same arithmetic as the map's ``step``.
    """

    lo: float
    hi: float
    f_lo: float
    f_hi: float
    inv: Callable[[float], float]
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

    def image_of(self, lo, hi):
        """Image of [lo, hi] as a list of closed intervals, one per piece met."""
        segs = []
        for p in self.pieces:
            a, b = max(lo, p.lo), min(hi, p.hi)
            if a > b:
                continue
            fa, fb = p.value_at(a), p.value_at(b)
            segs.append((min(fa, fb), max(fa, fb)))
        return segs

    def preimages_of(self, ylo, yhi):
        """All components of f^{-1}([ylo, yhi]) as closed intervals."""
        segs = []
        for p in self.pieces:
            vlo, vhi = p.value_range()
            a, b = max(ylo, vlo), min(yhi, vhi)
            if a > b:
                continue
            xa, xb = p.inv(a), p.inv(b)
            segs.append((min(xa, xb), max(xa, xb)))
        return segs

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
    possibly nonzero rotation offset); ``inv_lift`` inverts it on that
    range.  ``lift`` acts elementwise on arrays and satisfies
    lift(x + 1) = lift(x) + d on the whole line, where ``inv_lift_array``
    inverts it elementwise.  Arcs are (start, length) pairs with start in
    [0, 1) and length in (0, 1]; callers split wrapped arcs before asking
    for preimages.
    """

    degree: int
    lift: Callable[[float], float]
    inv_lift: Callable[[float], float]
    inv_lift_array: Callable[[np.ndarray], np.ndarray]
    base: float = 0.0

    def pull_back(self, o, lo, hi):
        """Offsets (lo', hi') around each o of the component containing o
        of the preimage of the arc [f(o) - lo, f(o) + hi], taken through
        the lift: o - L^{-1}(L(o) - lo) and L^{-1}(L(o) + hi) - o."""
        o = np.asarray(o, dtype=float)
        v = self.lift(o)
        return (o - self.inv_lift_array(v - lo),
                self.inv_lift_array(v + hi) - o)

    def image_of_arc(self, start, length):
        """Image arc (start, length); length saturates at 1 (full cover)."""
        s = start % 1.0
        g0 = float(self.lift(s))
        hi = s + length
        if hi <= 1.0:
            g1 = float(self.lift(hi))
        else:
            g1 = float(self.lift(hi - 1.0)) + self.degree
        new_len = g1 - g0
        if new_len >= 1.0:
            return (0.0, 1.0)
        return (g0 % 1.0, new_len)

    def preimages_of_arc(self, start, length):
        """The d preimage arcs of a non-wrapping arc [start, start+length].

        Preimage pieces that straddle the chart seam come back as separate
        intervals, so the total piece count can exceed the degree.
        """
        if start + length > 1.0 + 1e-12:
            raise ValueError("split wrapped arcs before taking preimages")
        lo_rng = self.base
        hi_rng = self.base + self.degree
        out = []
        k = math.floor(lo_rng - start - length)
        while start + k <= hi_rng:
            lo_v = max(start + k, lo_rng)
            hi_v = min(start + length + k, hi_rng)
            if hi_v > lo_v or (hi_v == lo_v and length == 0.0):
                a = float(self.inv_lift(lo_v))
                b = float(self.inv_lift(hi_v))
                out.append((a % 1.0, b - a))
            k += 1
        return out
