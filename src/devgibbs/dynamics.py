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

An observable or a potential is a plain function ``g(x, out=None)``, like
``step``: given ``out`` it writes its values there and returns it, and it
never writes to x.  A map's ``deriv`` and ``crit_dist`` keep the same
rule, and ``jacobian_data``, the one reader of ``deriv``, writes
sigma_min into an ``out``, so the scan's one-row blocks evaluate both
into the walk's spare buffer.  The walk steps in two buffers,
``step(cur, out=spare)`` and a swap, so a yielded state is valid only
until the next step and a reader that keeps one copies it.
``birkhoff_sums`` evaluates g into the spare buffer, so a chunk steps and
sums without allocating; it keeps its points' copy, since its error path
walks them again.  A walk also carries its reader's per-point columns,
and one ``keep`` retires states and columns together without allocating
a buffer: the live states go into the spare buffer, and each column is
packed in place, because a keep's indices increase.  So the buffers keep
their first size while points retire.  A chunk job may hand its fresh
sample over (``own``), which is then clamped in place and stepped as the
first buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, EvaluationError, RangeError

NEAR_CRITICAL_TOL = 1e-14
#: indices ``walk.keep`` gathers per column row at once (32 KiB of float64)
_PACK_BLOCK = 4096


@dataclass(frozen=True)
class MapSystem:
    """A dynamical system handle.

    ``step(x, out=None)`` is the point update and maps the domain into
    itself (each family's constructor says why), so its images are never
    clamped.  Given ``out`` it writes f(x) there, returns ``out`` and may
    overwrite ``x``; without it, it leaves ``x`` as it is.
    ``deriv(x, out=None)`` gives f'(x) for 1D maps or the (..., 2, 2)
    Jacobian for cylinder maps, and ``crit_dist(x, out=None)`` the
    distance to the critical/singular set (``inf`` when the set is
    empty).  Given ``out``, each writes there and returns ``out``, the
    same bits as without it, and neither ever writes ``x``.
    ``branches`` is the family's branch structure (``devgibbs.branching``),
    which images and pulls back range sets; it is ``None`` where the
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


def check_float_horizon(m: MapSystem, n: int, setting: str):
    """Refuse orbit lengths past the map's floating-point horizon."""
    h = m.float_horizon
    if h is not None and n > h:
        raise ConfigError(
            f"{setting}={n} exceeds the floating-point horizon "
            f"{math.floor(h)} of {m.label}: the d x mod 1 coordinate of a "
            f"double-precision orbit collapses to 0 by then; lower {setting} "
            f"to at most {math.floor(h)}")


class walk:
    """Iterate ``(j, live states)`` for j = 0..n from points checked on the
    way in.  ``keep(idx)``, a mask or a strictly increasing index array,
    retires the others from the states and from each of ``columns``, arrays
    whose last axis holds the points in the states' order; the walk ends
    once no point is live and takes no step after j = n.  A yielded state
    is valid until the next step, and ``columns`` until the next ``keep``.
    With ``own`` the walk takes the float array ``xs`` over: it is checked
    and clamped in place and becomes the first buffer."""

    def __init__(self, m: MapSystem, xs, n: int, columns=(), own=False):
        self.m, self.n = m, n
        xs = np.asarray(xs, dtype=float)
        # without ``out``, ``require`` returns a fresh clamp (0-d a scalar)
        self.cur = np.asarray(m.domain.require(xs, out=xs if own else None))
        self.spare = np.empty_like(self.cur)
        self.columns = list(columns)

    def __iter__(self):
        for j in range(self.n + 1):
            yield j, self.cur
            if j == self.n or not self.cur.size:
                return
            self.cur, self.spare = (self.m.step(self.cur, out=self.spare),
                                    self.cur)

    def keep(self, idx):
        idx = np.asarray(idx)
        size = len(self.cur)
        if idx.dtype == bool:
            if idx.shape != (size,):
                raise ValueError(f"a mask of shape {idx.shape} for {size} "
                                 f"live points")
            idx = np.flatnonzero(idx)
        elif idx.size and not (idx[0] >= 0 and idx[-1] < size
                               and np.all(idx[1:] > idx[:-1])):
            raise ValueError(f"keep indices must increase strictly within "
                             f"[0, {size})")
        k = len(idx)
        # the states go into the spare buffer; "raise" would copy via a
        # buffer, and the indices are checked
        live = np.take(self.cur, idx, axis=0, out=self.spare[:k], mode="clip")
        self.cur, self.spare = live, self.cur[:k]
        self.columns = [_pack(col, idx) for col in self.columns]


def _pack(col, idx):
    """``col[..., idx]`` in place in ``col[..., :len(idx)]``, one block of
    indices at a time: they increase, so a block reads at or past where it
    writes, and past every earlier block's writes."""
    for at in np.ndindex(col.shape[:-1]):
        row = col[at]
        for lo in range(0, len(idx), _PACK_BLOCK):
            part = idx[lo:lo + _PACK_BLOCK]
            row[lo:lo + len(part)] = row[part]
    return col[..., :len(idx)]


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
        # g fills the spare buffer (its angle column on the cylinder)
        total += g(cur, out=steps.spare[..., 0] if m.domain.ndim == 2
                   else steps.spare)
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


def jacobian_data(m: MapSystem, pts, out=None):
    """(sigma_min, sigma_max, det) of Df at each point, or, given ``out``,
    sigma_min alone, written there (in 1D f' goes there first, so a
    caller that reads only ||Df^{-1}|| allocates nothing).

    In 1D these are (|f'|, |f'|, f'); ||Df^{-1}|| is 1 / sigma_min.
    """
    if m.domain.ndim == 1:
        if out is not None:
            return np.abs(m.deriv(pts, out=out), out=out)
        d = np.asarray(m.deriv(pts), dtype=float)
        mag = np.abs(d)
        return mag, mag, d
    d = m.deriv(pts)
    a, b = d[..., 0, 0], d[..., 0, 1]
    c, e = d[..., 1, 0], d[..., 1, 1]
    sq = a * a + b * b + c * c + e * e
    det = a * e - b * c
    disc = np.sqrt(np.maximum(sq * sq - 4.0 * det * det, 0.0))
    smin = np.sqrt(np.maximum((sq - disc) / 2.0, 0.0), out=out)
    if out is not None:
        return smin
    return smin, np.sqrt((sq + disc) / 2.0), det

