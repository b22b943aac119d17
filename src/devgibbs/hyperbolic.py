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
batch pays ~40 numpy calls per block instead of per step.

Points whose answer is settled (a hit past the ``settle`` time) are
masked for the rest of their block and retired through the walk at its
end; a retired or masked point yields no hit, is not checked against the
critical set and its arithmetic emits no warning.  Only the points
nearer than delta to the critical set raise their recurrence threshold
(a farther point adds n - 1, which never blocks n), and no step is taken
past the horizon.  Every time query reads the blocks:
``hyperbolic_times`` (all times of one point up to the horizon, through
the per-n view ``_scan``) retires no point, ``first_times_batch``
retires each point at its first time, ``straddling_times`` (the times on
either side of each n of a grid, which specification, the Delta_n set
and distortion read) at its first time past the grid, and
``sample_anchors`` scans each batch of candidates only to the top of its
depth window.  The double-loop reference checker and the lag statistics
of a time record, which only the tests run, are in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from typing import Optional

import numpy as np

from .dynamics import MapSystem, jacobian_data, NEAR_CRITICAL_TOL, walk
from .errors import ConfigError, SingularityError
from .sampling import chunk_map
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

    @property
    def first(self) -> Optional[int]:
        return None if self.none_found else int(self.times[0])


def _tolerance(mins):
    """The product-side bound on P_n: its running minimum, up to 1e-12
    relative (absolute below 1)."""
    tol = np.maximum(np.abs(mins), 1.0)
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


def _scan_blocks(m: MapSystem, xs, params: HyperbolicParams, settle: int,
                 horizon: int):
    """Yield ``(n0, ok, live)`` for the times n = n0 .. n0 + len(ok) - 1,
    up to ``horizon``: ``ok[r, i]`` says n0 + r is a hyperbolic time of
    the start point ``xs[live[i]]``.

    Once n > ``settle`` a point leaves the scan at its first time: its
    later rows read False and later blocks do not hold it.  The scan ends
    when no point is left or, without a further step, at ``horizon``.  A
    ``SingularityError`` names the start point whose orbit hit the
    critical set, after the rows before that hit are yielded.
    """
    steps = walk(m, xs, horizon - 1)  # the state at n - 1 decides n
    states = iter(steps)
    live = np.arange(len(steps.cur))  # the index in xs of each scanned point
    # prefix sums, their running minimum, recurrence threshold - _INDEX_TOL
    state = np.repeat([[0.0], [0.0], [-np.inf]], live.size, axis=1)
    log_sigma = np.log(params.sigma)
    n0, k = 1, 1
    while live.size and n0 <= horizon:
        k = min(k, horizon + 1 - n0)
        rows = [cur for _, cur in islice(states, k)]
        cur = rows[0] if k == 1 else np.concatenate(rows)
        dist = np.asarray(m.crit_dist(cur), dtype=float).reshape(k, -1)
        jac = jacobian_data(m, cur)[0].reshape(k, -1)
        del rows, cur  # old states go before the next step: RSS
        low = dist.min()
        bad = dist < NEAR_CRITICAL_TOL if low < NEAR_CRITICAL_TOL else None
        if bad is not None:  # quiet stand-ins: a live point here fails below
            dist = np.where(bad, np.inf, dist)
            jac = np.where(bad, 1.0, jac)
        # jacobian_data's result is a fresh array: log 1/|f'| in place
        logs = np.log(np.divide(1.0, jac, out=jac), out=jac)
        prefix, runmin, block = state
        near = None
        if low < params.delta:
            # truncated to 1 at dist >= delta, the threshold n - 1 blocks no n
            near = _hits(dist < params.delta)
            t = (n0 - 1 + near[0]) + (-np.log(dist[near])) / (
                params.b * log_sigma) - _INDEX_TOL
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
                prefix += logs[r]
                np.less_equal(prefix, _tolerance(runmin), out=ok[r])
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
            raise SingularityError(
                f"orbit of start point {int(live[i])} hit the critical set "
                f"at index {n0 - 1 + r}", index=n0 - 1 + r)
        yield n0, ok, live
        n0 += k
        if len(gone) and gone[-1].any():
            keep = np.flatnonzero(~gone[-1])
            steps.keep(keep)
            live, state = live[keep], state.take(keep, axis=1)
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

    Each point leaves the scan at its first time: it is no longer stepped
    or checked against the critical set.
    """
    first = np.zeros(len(xs), dtype=np.int64)
    for n0, ok, live in _scan_blocks(m, xs, params, 0, params.n_max):
        rows, cols = _hits(ok)  # one time per column: its first
        first[live[cols]] = n0 + rows
    return first


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
    """Monte Carlo estimate of the first-time tail under the sampler."""

    def job(pts):
        return np.bincount(first_times_batch(m, pts, params),
                           minlength=params.n_max + 1)

    hist = np.sum(chunk_map(job, sampler, samples, seed, "tail", workers),
                  axis=0)
    # survivors(n) = count of first time > n (the never-found bin counts too)
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

