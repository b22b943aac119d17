"""Hyperbolic-time detection and first-time tail statistics.

A time n qualifies for a point x when, for every suffix length k <= n,
the product of inverse-derivative norms over the last k steps is at most
sigma^-k and the truncated distance to the critical set at the suffix
start exceeds sigma^(-b k).  Both checks run in the log domain.

The scanning detector is incremental: with prefix sums
P_n = sum_{j<n} (log sigma + log ||Df(f^j x)^{-1}||), the product
condition at n says P_n is a running minimum of the prefix sequence, and
the recurrence condition turns into n exceeding a running maximum of
per-step thresholds.  That makes the scan O(1) amortized per candidate
time.  Boundary comparisons are inclusive up to a 1e-12 relative
tolerance (product side) and a 1e-9 index tolerance (recurrence side),
ties resolving in favour of acceptance.

One generator, ``_scan_blocks``, holds the whole scan state.  It reads a
batch of start points off ``dynamics.walk``, the one stepping loop,
takes K rows of states at a time and evaluates the critical distance,
the Jacobian and its log once over the whole (K, live) block.  The three
recurrences then run down the rows in order, so every sum and comparison
is the one a row-at-a-time scan makes, bit for bit: by ``accumulate``
(the prefix sums as (P + log sigma) + log ||Df^-1|| on interleaved rows)
when a block holds at most ``_ACCUMULATE_POINTS`` points, and row by row
in place otherwise, because accumulating down axis 0 costs ~15-30 ns a
column per call, more than a ufunc call per row on wider blocks.  K
doubles from 1 while K * live stays within ``BLOCK_POINT_STEPS`` (4096
point-steps) and never passes the horizon: a full 65,536-point chunk
runs K = 1, in-place ufuncs on one row and no accumulation, and a small
batch pays ~40 numpy calls per block instead of per step.  A walk state
is valid only until the next step: a K = 1 block reads it in place, and
blocks of K > 1 rows and a ``PausedScan`` copy the states they keep.

A one-row block allocates no float array as wide as its row.  The walk's
spare buffer (its angle column on the cylinder) is free until the next
step, so the critical distance goes there; ``low``, ``near`` and the
stand-ins of near-critical points are read off it, and then
||Df^-1|| and its log are written over it.  Each row's tolerance goes
into its log values once the prefix sums have read them, and
``_first_times`` names a one-row block's hits by their columns alone.
Blocks of K > 1 rows hold at most ``BLOCK_POINT_STEPS`` entries and
evaluate into one fresh (K, live) array.

The walk carries the scan's per-point columns, the index of each point
in the batch and the packed (3, points) prefix sums, running minima and
recurrence thresholds, and retires them with the states in one ``keep``
that allocates no buffer.  Points whose answer is settled (a hit past
the ``settle`` time) are masked for the rest of their block and retired
through the walk at its end; a retired or masked point yields no hit,
is not checked against the critical set and its arithmetic emits no
warning.  Only the points nearer than delta to the critical set raise
their recurrence threshold (a farther point adds n - 1, which never
blocks n), and no step is taken past the horizon.  Every time query reads the blocks:
``hyperbolic_times`` (all times of one point up to the horizon, through
the per-n view ``_scan``) retires no point, ``first_times_batch``
retires each point at its first time, ``straddling_times`` (the times on
either side of each n of a grid, which specification, the Delta_n set
and distortion read) at its first time past the grid, and
``sample_anchors`` scans each batch of candidates only to the top of its
depth window.

Only ``tail_curve`` pauses a scan.  Its chunk jobs hand their fresh
sample over to the walk, which clamps it in place and steps it as its
first buffer, and count each row's hits straight into the chunk's
histogram, with no per-point array.  They stop once at most
``BLOCK_POINT_STEPS`` points are left (about 3,000 of a quadratic
chunk, after its first 3 rows) and hand back a ``PausedScan``: the next
time n0, the states at n0 - 1, the packed prefix/minimum/threshold
columns and the names, all copied out, so that it pins none of the
chunk-wide buffers.  The scans that paused at the same n0 are joined
into packs of up to ``CHUNK`` points, and each pack resumes as one batch,
which takes the pack's arrays over.  A tail therefore pays the narrow
rows, many small blocks on few points, once per pack, not once per
chunk.  A verdict depends on its point alone,
not on which points share a block, so the first times are those of
whole-chunk scans.  A critical-set hit names the sample by its number
in the whole draw.

The double-loop reference checker and the lag statistics of a time
record, which only the tests run, are in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby, islice
from operator import attrgetter
from typing import Optional

import numpy as np

from .dynamics import MapSystem, jacobian_data, NEAR_CRITICAL_TOL, walk
from .errors import ConfigError, SingularityError
from .sampling import CHUNK, chunk_map
from .stats import ols_fit, wilson_ci

_INDEX_TOL = 1e-9

#: point-steps one scan block may hold: K rows of ``live`` points, K
#: doubling from 1 while K * live stays within it
BLOCK_POINT_STEPS = 4096
#: blocks up to this many points run their recurrences by ``accumulate``
_ACCUMULATE_POINTS = 128


@dataclass(frozen=True)
class HyperbolicParams:
    sigma: float
    delta: float
    b: float
    n_max: int

    def __post_init__(self):
        if not self.sigma > 1.0:
            raise ConfigError(f"expansion base sigma={self.sigma} must exceed 1")
        if not self.delta > 0.0:
            raise ConfigError(f"truncation radius delta={self.delta} must be positive")
        if not (0.0 < self.b < 0.5):
            raise ConfigError(f"recurrence exponent b={self.b} must lie in (0, 1/2)")
        if self.n_max < 1:
            raise ConfigError("orbit horizon n_max must be >= 1")


#: defaults per ``MapSystem.family``; all overridable through configuration.
#: The quadratic triple needs b*log(sigma) large enough (and delta small
#: enough) that blocking windows opened by near-critical passes stay
#: subcritical; otherwise a positive fraction of points never acquires a
#: hyperbolic time and the first-time tail stalls.
DEFAULT_PARAMS = {
    "perturbed_expanding": dict(sigma=1.4, delta=0.1, b=0.25),
    "quadratic": dict(sigma=float(np.exp(0.35)), delta=0.01, b=0.45),
    "manneville_pomeau": dict(sigma=1.2, delta=0.1, b=0.25),
    "viana": dict(sigma=1.3, delta=0.01, b=0.45),
}


def default_params(m: MapSystem, n_max: int = 1000) -> HyperbolicParams:
    if m.family not in DEFAULT_PARAMS:
        raise ConfigError(f"{m.label} has no default hyperbolic-time "
                          f"parameters; give sigma, delta and b")
    return HyperbolicParams(n_max=n_max, **DEFAULT_PARAMS[m.family])


@dataclass
class HyperbolicTimeRecord:
    x: object
    times: np.ndarray
    n_max: int
    none_found: bool


def _tolerance(mins, out=None):
    """The product-side bound on P_n: its running minimum, up to 1e-12
    relative (absolute below 1), in ``out`` or a fresh array."""
    tol = np.maximum(np.abs(mins, out=out), 1.0, out=out)
    tol *= 1e-12
    tol += mins
    return tol


def _hits(mask):
    """Row and column of each True of a 2D mask, row by row, read off its
    flat indices: several times faster than ``np.nonzero`` on one long row
    or column."""
    flat = np.flatnonzero(mask)
    rows, cols = mask.shape
    if rows == 1 or cols == 1:
        zero = np.zeros_like(flat)
        return (zero, flat) if rows == 1 else (flat, zero)
    return np.divmod(flat, cols)


@dataclass
class PausedScan:
    """A scan stopped before the time ``n0``.

    ``cur`` holds the states at n0 - 1 of the points still scanned,
    ``state`` their packed (3, points) prefix sums, running minima and
    recurrence thresholds, and ``names`` the number by which a critical
    hit names each point (int64, so ``tail_curve`` can add a chunk's
    offset).  The arrays are copies, not views of the scan's buffers, and
    a resumed scan steps ``cur`` and advances ``state`` in place.
    """

    n0: int
    cur: np.ndarray
    state: np.ndarray
    names: np.ndarray

    def __len__(self):
        return len(self.names)


def _critical_hit(point, index):
    return SingularityError(f"orbit of start point {point} hit the critical "
                            f"set at index {index}", index=index, point=point)


def _scan_blocks(m: MapSystem, xs, params: HyperbolicParams, settle: int,
                 horizon: int, pause: bool = False, own: bool = False):
    """Yield ``(n0, ok, live)`` for the times n = n0 .. n0 + len(ok) - 1,
    up to ``horizon``: ``ok[r, i]`` says n0 + r is a hyperbolic time of
    the start point ``xs[live[i]]``.  ``xs`` is a batch of start points,
    or a ``PausedScan``, which resumes at its n0.

    Once n > ``settle`` a point leaves the scan at its first time: its
    later rows read False and later blocks do not hold it.  The scan ends
    when no point is left or, without a further step, at ``horizon``.  A
    ``SingularityError`` names the start point whose orbit hit the
    critical set, after the rows before that hit are yielded.  With
    ``pause`` the scan also ends, before its next block, once at most
    ``BLOCK_POINT_STEPS`` points are left, and returns a ``PausedScan``
    of them.  With ``own`` the scan takes the float array ``xs`` over, as
    ``walk`` does; a resumed scan takes over its ``cur`` and ``state``.
    """
    resumed = isinstance(xs, PausedScan)
    n0 = xs.n0 if resumed else 1
    live = np.arange(len(xs))  # the index in xs of each scanned point
    names = xs.names if resumed else None  # a critical hit names live[i]
    # prefix sums, their running minimum, recurrence threshold - _INDEX_TOL
    state = xs.state if resumed else np.repeat(
        [[0.0], [0.0], [-np.inf]], live.size, axis=1)
    # the state at n - 1 decides n; the walk retires the columns with it
    steps = walk(m, xs.cur if resumed else xs, horizon - n0,
                 columns=(live, state), own=own or resumed)
    states = iter(steps)
    log_sigma = np.log(params.sigma)
    k = 1
    while live.size and n0 <= horizon:
        if pause and live.size <= BLOCK_POINT_STEPS:
            next(states)  # the states at n0 - 1: copies pin no chunk buffer
            return PausedScan(n0, steps.cur.copy(), state.copy(),
                              live.copy() if names is None else names[live])
        k = min(k, horizon + 1 - n0)
        if k == 1:  # the spare buffer is free until the next step
            cur = next(states)[1]
            vals = steps.spare[..., 0] if m.domain.ndim == 2 else steps.spare
        else:  # a state is valid only until the next step: copy the rows
            cur = np.empty((k,) + steps.cur.shape)
            for r, (_, row) in enumerate(islice(states, k)):
                cur[r] = row
            vals = np.empty(cur.shape[:cur.ndim + 1 - m.domain.ndim])
        dist = m.crit_dist(cur, out=vals).reshape(k, -1)
        low = dist.min()
        bad = dist < NEAR_CRITICAL_TOL if low < NEAR_CRITICAL_TOL else None
        if bad is not None:  # quiet stand-ins: a live point here fails below
            dist[bad] = np.inf
        prefix, runmin, block = state
        near = None
        if low < params.delta:
            # truncated to 1 at dist >= delta, the threshold n - 1 blocks no n
            near = _hits(dist < params.delta)
            t = (n0 - 1 + near[0]) + (-np.log(dist[near])) / (
                params.b * log_sigma) - _INDEX_TOL
        # the distances are read: log 1/sigma_min goes over them
        jac = jacobian_data(m, cur, out=vals).reshape(k, -1)
        del cur  # old states go before the next step: RSS
        if bad is not None:
            jac[bad] = 1.0
        logs = np.log(np.divide(1.0, jac, out=jac), out=jac)
        if k == 1 or live.size > _ACCUMULATE_POINTS:
            # row by row, in place: on a wide block one ufunc call per row
            # costs less than accumulating down axis 0, ~15-30 ns a column
            ok = np.empty((k, live.size), dtype=bool)
            if near is not None:
                ends = np.searchsorted(near[0], np.arange(k + 1))
            for r in range(k):
                if near is not None:
                    row = slice(ends[r], ends[r + 1])
                    cols = near[1][row]
                    block[cols] = np.maximum(block[cols], t[row])
                prefix += log_sigma
                prefix += logs[r]  # spent: the tolerance goes there
                tol = _tolerance(runmin, out=logs[r])
                np.less_equal(prefix, tol, out=ok[r])
                ok[r] &= block < n0 + r
                np.minimum(runmin, prefix, out=runmin)
        else:
            thr = block
            if near is not None:
                thr = np.full((k + 1, live.size), -np.inf)
                thr[0] = block
                thr[1:][near] = t
                thr = np.maximum.accumulate(thr, axis=0, out=thr)[1:]
                block[:] = thr[-1]
            # P + log sigma + log inv in row order: one row's sums, exactly
            run = np.empty((2 * k + 1, live.size))
            run[0], run[1::2], run[2::2] = prefix, log_sigma, logs
            sums = np.add.accumulate(run, axis=0, out=run)[2::2]
            run = np.empty((k + 1, live.size))
            run[0], run[1:] = runmin, sums
            mins = np.minimum.accumulate(run, axis=0, out=run)
            ok = sums <= _tolerance(mins[:-1])
            ok &= thr < np.arange(n0, n0 + k)[:, None]
            prefix[:], runmin[:] = sums[-1], mins[-1]
        past = max(settle + 1 - n0, 0)  # the first row past settle
        gone = ok[past:]
        if len(gone) > 1:  # a point leaves the scan at its first time
            gone = np.logical_or.accumulate(gone, axis=0)
            ok[past + 1:] &= ~gone[:-1]
            if bad is not None:
                bad[past + 1:] &= ~gone[:-1]
        if bad is not None and bad.any():
            r, i = divmod(int(np.argmax(bad)), live.size)
            if r:
                yield n0, ok[:r], live
            i = live[i] if names is None else names[live[i]]
            raise _critical_hit(int(i), n0 - 1 + r)
        yield n0, ok, live
        n0 += k
        if len(gone) and gone[-1].any():
            # the rows are read: the points kept go over the last one
            steps.keep(np.logical_not(gone[-1], out=gone[-1]))
            live, state = steps.columns
        if 2 * k * live.size <= BLOCK_POINT_STEPS:
            k *= 2


def _scan(m: MapSystem, xs, params: HyperbolicParams, settle: int,
          horizon: int):
    """Per-n view of ``_scan_blocks``: ``(n, hit)``, ``hit`` the indices
    into ``xs`` of the points for which n is a hyperbolic time."""
    for n0, ok, live in _scan_blocks(m, xs, params, settle, horizon):
        for r, row in enumerate(ok):
            yield n0 + r, live[row]


def hyperbolic_times(m: MapSystem, x, params: HyperbolicParams) -> HyperbolicTimeRecord:
    """All hyperbolic times of x up to the horizon: a batch of one."""
    times = np.array([n for n, hit in _scan(m, [x], params, params.n_max,
                                            params.n_max) if hit.size],
                     dtype=np.int64)
    return HyperbolicTimeRecord(x=x, times=times, n_max=params.n_max,
                                none_found=len(times) == 0)


def is_hyperbolic_time(m: MapSystem, x, n: int, params: HyperbolicParams) -> bool:
    if n < 1:
        raise ValueError("hyperbolic times start at n = 1")
    times = hyperbolic_times(m, x, replace(params, n_max=n)).times
    return bool(len(times)) and int(times[-1]) == n


def sample_anchors(m: MapSystem, draw, params: HyperbolicParams, lo: int,
                   hi: int, want: int, limit: int):
    """Up to ``want`` (x, middle time in [lo, hi]) anchors, in draw order.

    ``draw()`` gives one candidate at a time, so the random stream does not
    depend on the candidate batches, which start at the number of anchors
    still wanted and double when one falls short.  Returns the anchors and the
    number of candidates examined, at most ``limit``.  The scan stops at
    ``min(hi, params.n_max)``: a later critical-set hit does not fail it.
    """
    top = min(hi, params.n_max)
    anchors, tried, size = [], 0, 0
    while len(anchors) < want and tried < limit:
        size = min(limit - tried, max(want - len(anchors), 2 * size))
        xs = [draw() for _ in range(size)]
        hits = np.zeros((max(top - lo + 1, 0), size), dtype=bool)
        for n0, ok, live in _scan_blocks(m, xs, params, top, top):
            skip = max(lo - n0, 0)  # the rows before lo
            if skip < len(ok):
                hits[n0 + skip - lo:n0 + len(ok) - lo, live] = ok[skip:]
        for x, col in zip(xs, hits.T):
            tried += 1
            cand = np.flatnonzero(col)
            if len(cand):
                anchors.append((x, lo + int(cand[len(cand) // 2])))
                if len(anchors) == want:
                    break
    return anchors, tried


def first_times_batch(m: MapSystem, xs, params: HyperbolicParams) -> np.ndarray:
    """First hyperbolic time per start point; 0 when none within horizon.

    ``xs`` may be a ``PausedScan``, whose points resume at its n0.  Each
    point leaves the scan at its first time: it is no longer stepped or
    checked against the critical set.
    """
    return _first_times(m, xs, params)[0]


def _first_times(m: MapSystem, xs, params: HyperbolicParams, pause=False,
                 count=None):
    """``(first, rest)``: ``first_times_batch`` and, with ``pause``, the
    ``PausedScan`` of the points whose first time it left to find (they
    read 0), or None.  Given ``count``, a histogram over the times, the
    scan takes the float array ``xs`` over and adds each row's hits to
    its time's bin, with no per-point array: ``first`` is then ``count``.
    """
    first = np.zeros(len(xs), dtype=np.int64) if count is None else count
    blocks = _scan_blocks(m, xs, params, 0, params.n_max, pause,
                          own=count is not None)
    while True:
        try:
            n0, ok, live = next(blocks)
        except StopIteration as stop:
            return first, stop.value
        if count is not None:  # a point hits once, at its first time
            count[n0:n0 + len(ok)] += np.count_nonzero(ok, axis=1)
        elif len(ok) == 1:  # one row: its hits need no row index
            first[live[ok[0]]] = n0
        else:
            rows, cols = _hits(ok)  # one time per column: its first
            first[live[cols]] = n0 + rows


def _tail_chunk(m: MapSystem, params: HyperbolicParams, pts):
    """A ``tail_curve`` chunk job: the histogram of the first times of the
    fresh sample ``pts``, which its scan takes over, and the ``PausedScan``
    of the points left, or the ``SingularityError`` of a critical hit."""
    try:
        return _first_times(m, pts, params, pause=True,
                            count=np.zeros(params.n_max + 1, dtype=np.int64))
    except SingularityError as exc:
        return exc  # raised by tail_curve, naming the sample, not its place


def gap_horizon(n: int) -> int:
    """Scan horizon for the next hyperbolic time after n."""
    return int(1.5 * n) + 50


def straddling_times(m: MapSystem, xs, params: HyperbolicParams, n_grid):
    """Hyperbolic times on either side of each grid n, per start point.

    Returns ``(before, after)``, int64 arrays of shape
    ``(len(n_grid), len(xs))``: ``before[k, i]`` is the last time <= n_k
    of point i and ``after[k, i]`` its first time > n_k, 0 when there is
    none within ``gap_horizon(max n)`` (``params.n_max`` is not read).
    A point leaves the scan at its first time past max n, which settles
    its column: it is no longer stepped or checked against the critical
    set.
    """
    grid = np.asarray(n_grid, dtype=np.int64)
    top = int(grid.max())
    order = np.argsort(grid)
    ranked = grid[order]
    before = np.zeros((len(grid), len(xs)), dtype=np.int64)
    after = np.zeros_like(before)
    last = np.zeros(len(xs), dtype=np.int64)  # each point's latest time
    for n0, ok, live in _scan_blocks(m, xs, params, top, gap_horizon(top)):
        # a time t of point i and its time p before settle each n in [p, t)
        cols, rows = _hits(ok.T)  # point by point
        if not cols.size:
            continue
        i, t = live[cols], n0 + rows
        same = i[1:] == i[:-1]
        p = last[i]
        p[1:][same] = t[:-1][same]
        lo, hi = np.searchsorted(ranked, p), np.searchsorted(ranked, t)
        span = hi - lo
        if span.any():
            j = np.repeat(np.arange(len(t)), span)
            k = order[np.arange(len(j))
                      + np.repeat(lo + span - np.cumsum(span), span)]
            before[k, i[j]], after[k, i[j]] = p[j], t[j]
        end = np.append(~same, True)  # each point's last time here
        last[i[end]] = t[end]
    # past a point's latest time: that time before, none after
    return np.where(grid[:, None] >= last, last, before), after


def _packs(parts):
    """The paused scans, joined into packs of at most ``CHUNK`` points
    that paused at the same n0, in order of n0 and then of the list (a
    paused scan holds at most ``BLOCK_POINT_STEPS`` points)."""
    for n0, group in groupby(sorted(parts, key=attrgetter("n0")),
                             attrgetter("n0")):
        pack, size = [], 0
        for part in group:
            if size + len(part) > CHUNK:
                yield _pack(n0, pack)
                pack, size = [], 0
            pack.append(part)
            size += len(part)
        yield _pack(n0, pack)


def _pack(n0, parts):
    return PausedScan(n0, np.concatenate([p.cur for p in parts]),
                      np.concatenate([p.state for p in parts], axis=1),
                      np.concatenate([p.names for p in parts]))


@dataclass
class TailCurve:
    """Monotone curve n -> fraction of samples with first time beyond n."""

    n: np.ndarray
    survivors: np.ndarray
    fraction: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    samples: int
    truncated: bool


def tail_curve(m: MapSystem, sampler, params: HyperbolicParams,
               samples: int, seed: int, workers: int = 1) -> TailCurve:
    """Monte Carlo estimate of the first-time tail under the sampler.

    Each chunk is scanned until at most ``BLOCK_POINT_STEPS`` of its points
    are left.  The points left by chunks that paused at the same time are
    packed, up to ``CHUNK`` a pack, and each pack is scanned to the end in
    one batch.  A first time depends on its point alone, so the histogram
    is that of whole-chunk scans.
    """
    bins = params.n_max + 1
    hist = np.zeros(bins, dtype=np.int64)
    rests = []
    for c, part in enumerate(chunk_map(
            lambda pts: _tail_chunk(m, params, pts), sampler, samples, seed,
            "tail", workers)):
        if isinstance(part, SingularityError):
            raise _critical_hit(c * CHUNK + part.point, part.index)
        hist += part[0]
        if part[1] is not None:
            rests.append(replace(part[1], names=part[1].names + c * CHUNK))
    for pack in _packs(rests):
        hist += np.bincount(first_times_batch(m, pack, params),
                            minlength=bins)
    # survivors(n) = samples - count of first time <= n: bin 0 (none found,
    # or a paused point's first time not yet found) is not read
    found_by = np.cumsum(hist[1:])
    ns = np.arange(1, params.n_max + 1)
    survivors = samples - found_by
    fraction = survivors / samples
    ci_low, ci_high = wilson_ci(survivors, samples)
    alive = survivors > 0
    last = int(np.max(np.nonzero(alive)[0])) + 1 if np.any(alive) else 0
    keep = slice(0, max(last, 1))
    return TailCurve(n=ns[keep], survivors=survivors[keep],
                     fraction=fraction[keep], ci_low=ci_low[keep],
                     ci_high=ci_high[keep], samples=samples,
                     truncated=last < params.n_max)


@dataclass(frozen=True)
class TailFit:
    kind: str  # "exponential" or "polynomial"
    rate: float  # semilog slope (per n, natural log)
    exponent: float  # log-log slope
    semilog_residual: float
    loglog_residual: float
    rate_stderr: float
    exponent_stderr: float
    window: tuple


def classify_tail(curve: TailCurve, window: Optional[tuple] = None) -> TailFit:
    """Fit both decay models on the tail window and pick the better one."""
    lo, hi = window if window is not None else (max(8, curve.n[0]), curve.n[-1])
    mask = (curve.n >= lo) & (curve.n <= hi) & (curve.fraction > 0)
    if (found := int(mask.sum())) < 8:
        raise ConfigError(
            f"tail classification needs >= 8 positive points in the window "
            f"[{lo}, {hi}], found {found}; set [tail] window or raise n_max")
    n = curve.n[mask].astype(float)
    y = np.log(curve.fraction[mask])
    semi = ols_fit(n, y)
    logg = ols_fit(np.log(n), y)
    kind = "exponential" if semi.residual <= logg.residual else "polynomial"
    return TailFit(kind=kind, rate=semi.slope, exponent=logg.slope,
                   semilog_residual=semi.residual, loglog_residual=logg.residual,
                   rate_stderr=semi.stderr, exponent_stderr=logg.stderr,
                   window=(int(lo), int(hi)))

