"""Branch structure and range sets for the 1D map families.

This module is the one place that knows how sets of points on a chart
are represented, joined, imaged and pulled back.  The sets of many
owners (ball centres, probes) are held at once as ranges ``(own, lo,
hi)``: range k is [lo[k], hi[k]] of owner own[k], and ``join`` sorts and
joins them.  The chart is [pieces[0].lo, pieces[-1].hi] for an interval
map and [0, 1) for a circle map, whose arcs are cut at the seam.

Interval maps carry the map and explicit monotone pieces with one-sided
limit values at the breakpoints (so discontinuities like the gap at 1/2
in the intermittent family are represented exactly); degree-d circle
maps carry a strictly increasing lift.  Each branch has one inverse,
vectorized over values: a closed form, or ``newton_inverse`` where none
exists.  Both flavours offer ``ball`` and ``image`` on ranges of points,
which the exactness times propagate, and ``pull_back`` on ranges of
offsets from known points: the whole preimage of each range, through
every branch, within a radius of its point, as exact dynamical balls
need.  One-set balls and images, whole preimage sets and intersections,
which only the tests take, are in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

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
    batch.  A step that rounds onto t itself has converged, though t has
    just become an end of the bracket.
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
        inside = (nxt > lo_i) & (nxt < hi_i) | (nxt == ti)
        nxt = np.where(inside, nxt, 0.5 * (lo_i + hi_i))
        nxt = np.where(r == 0.0, ti, nxt)
        t[idx] = nxt
        idx = idx[np.abs(nxt - ti) > 4.0 * np.spacing(np.abs(nxt))]
    return t.reshape(shape)


def join(own, lo, hi, what, keep=None):
    """The ranges (own, lo, hi) sorted by owner and ``lo``, with the ranges
    of an owner that touch within ``MERGE_TOL`` joined.

    With ``keep``, only the joined ranges that the mask ``keep(own, lo,
    hi)`` marks stay.  An owner left with more than ``MAX_COMPONENTS``
    ranges raises ``ConfigError`` naming ``what``, the set that split.
    """
    order = np.lexsort((lo, own))
    own, lo, hi = own[order], lo[order], hi[order]
    # the highest end so far of each owner: a complex maximum compares
    # real parts (the owners, ascending) before imaginary parts
    top = np.maximum.accumulate(own + 1j * hi).imag
    start = np.flatnonzero((np.diff(own, prepend=-1) > 0) | (
        lo > np.append(-np.inf, top[:-1]) + MERGE_TOL))
    own, lo, hi = own[start], lo[start], np.maximum.reduceat(hi, start)
    if keep is not None:
        held = keep(own, lo, hi)
        own, lo, hi = own[held], lo[held], hi[held]
    if np.bincount(own).max(initial=0) > MAX_COMPONENTS:
        raise ConfigError(f"{what} splits into more than {MAX_COMPONENTS} "
                          f"ranges; lower n or eps")
    return own, lo, hi


def _arcs(own, a, ln):
    """The arcs [a, a + ln], a in [0, 1), as ranges cut at the seam."""
    b = a + ln
    cut = np.flatnonzero(b > 1.0)
    return (np.concatenate([own, own[cut]]),
            np.concatenate([a, np.zeros(cut.size)]),
            np.concatenate([np.minimum(b, 1.0), b[cut] - 1.0]))


def _within(parts, cap):
    """The offset ranges (own, lo, hi) of all parts, cut to [-cap, cap];
    those outside it are dropped."""
    own, lo, hi = parts[0] if len(parts) == 1 else (
        np.concatenate(v) for v in zip(*parts))
    np.maximum(lo, -cap, out=lo)
    np.minimum(hi, cap, out=hi)
    keep = lo <= hi
    return (own, lo, hi) if keep.all() else (own[keep], lo[keep], hi[keep])


@dataclass(frozen=True)
class MonotonePiece:
    """f restricted to [lo, hi], continuous and strictly monotone there.

    ``f_lo`` / ``f_hi`` are one-sided limits at the endpoints, and
    ``inv_array`` inverts f elementwise on values between the two.
    """

    lo: float
    hi: float
    f_lo: float
    f_hi: float
    inv_array: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class IntervalBranches:
    """An interval map: ``f(t)``, the map on an array of points of the
    chart, and its monotone pieces, in order."""

    f: Callable[[np.ndarray], np.ndarray]
    pieces: Tuple[MonotonePiece, ...]

    @property
    def chart(self):
        return self.pieces[0].lo, self.pieces[-1].hi

    def ball(self, centers, eps):
        """The ranges [x - eps, x + eps] of the ``centers`` x, owner k for
        centers[k], cut at the chart ends."""
        lo, hi = self.chart
        return (np.arange(centers.size), np.maximum(centers - eps, lo),
                np.minimum(centers + eps, hi))

    def image(self, own, lo, hi):
        """f of the ranges: one range per piece that a range meets, with
        the piece's one-sided limits at its ends.  The result is unsorted,
        and touching ranges are not joined."""
        parts = []
        for p in self.pieces:
            a, b = np.maximum(lo, p.lo), np.minimum(hi, p.hi)
            keep = np.flatnonzero(a <= b)
            t = np.concatenate([a[keep], b[keep]])
            f = np.where(t == p.lo, p.f_lo,
                         np.where(t == p.hi, p.f_hi, self.f(t)))
            fa, fb = f[:keep.size], f[keep.size:]
            parts.append((own[keep], np.minimum(fa, fb), np.maximum(fa, fb)))
        return tuple(np.concatenate(v) for v in zip(*parts))

    def pull_back(self, o, own, lo, hi, cap):
        """The preimage of the ranges [f(o) + lo, f(o) + hi] within
        [o - cap, o + cap], as ranges (own, lo, hi) of offsets from o.

        ``o[k]`` is the centre of range k and ``own[k]`` its name, which
        its preimages keep.  Each piece inverts the part of each range
        inside its values (``oracles.preimage`` for many sets at once);
        the result is unsorted, and touching ranges are not joined.
        """
        y = self.f(o)
        parts = []
        for p in self.pieces:
            va = np.maximum(y + lo, min(p.f_lo, p.f_hi))
            vb = np.minimum(y + hi, max(p.f_lo, p.f_hi))
            keep = np.flatnonzero(va <= vb)
            xa, xb = (p.inv_array(v[keep]) - o[keep] for v in (va, vb))
            parts.append((own[keep], np.minimum(xa, xb), np.maximum(xa, xb)))
        return _within(parts, cap)


@dataclass(frozen=True)
class CircleBranches:
    """Degree-d covering map of the circle via a strictly increasing lift.

    ``lift(x, out=None)`` maps [0, 1] onto [lift(0), lift(0) + d], where
    lift(0) is a possibly nonzero rotation offset, and the map's ``step``
    is its fractional part.  It acts elementwise on arrays and satisfies
    lift(x + 1) = lift(x) + d on the whole line, where ``inv_lift_array``
    inverts it elementwise.
    """

    degree: int
    lift: Callable
    inv_lift_array: Callable[[np.ndarray], np.ndarray]

    def ball(self, centers, eps):
        """The arcs of radius eps about the ``centers``, owner k for
        centers[k]; the whole circle when 2 eps >= 1."""
        return _arcs(np.arange(centers.size), np.mod(centers - eps, 1.0),
                     min(2.0 * eps, 1.0))

    def image(self, own, lo, hi):
        """f of the ranges: one arc each, and the whole circle for an owner
        as soon as the image of one of its ranges wraps it.  The result is
        unsorted, and touching ranges are not joined."""
        g = self.lift(np.concatenate([lo, hi]))
        g0, ln = g[:lo.size], g[lo.size:] - g[:lo.size]
        whole = (np.bincount(own, ln >= 1.0) > 0)[own]
        return _arcs(own, np.where(whole, 0.0, np.mod(g0, 1.0)),
                     np.where(whole, 1.0, ln))

    def pull_back(self, o, own, lo, hi, cap):
        """``IntervalBranches.pull_back`` for arcs.  With v = L(o) for the
        lift L, turn t of an arc is inverted as L^{-1}(v + lo + t) ..
        L^{-1}(v + hi + t), for each t from the lowest to the highest turn
        that meets [L(o - cap), L(o + cap)] for some arc.
        """
        v = self.lift(o)
        low = np.min(self.lift(o - cap) - v - hi, initial=0.0)
        top = np.max(self.lift(o + cap) - v - lo, initial=0.0)
        return _within([(own, self.inv_lift_array(v + (lo + t)) - o,
                          self.inv_lift_array(v + (hi + t)) - o)
                         for t in range(math.ceil(low), math.floor(top) + 1)],
                        cap)
