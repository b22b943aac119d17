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

One generator, ``_scan``, holds the whole scan state.  It reads a batch
of start points off ``dynamics.walk``, the one stepping loop, yields at
each n the points for which n is a hyperbolic time and, once n is past
its ``settle`` time, retires them through the walk before the next step:
they are no longer stepped or checked against the critical set.  Points
retire by index, from one packed state array, and only at a step where
some point retires; only the points nearer than delta to the critical
set update their recurrence threshold (a farther point adds n - 1, which
never blocks n); no step is taken past the horizon.  Every time query
reads it: ``hyperbolic_times`` (all times of one point up to the
horizon) retires no point, ``first_times_batch`` retires each point at
its first time, ``straddling_times`` (the times on either side of each n
of a grid, which specification, the Delta_n set and distortion read) at
its first time past the grid, and ``sample_anchors`` scans each block of
candidates only to the top of its depth window.  The double-loop
reference checker and the lag statistics of a time record, which only
the tests run, are in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dynamics import MapSystem, jacobian_data, NEAR_CRITICAL_TOL, walk
from .errors import ConfigError, SingularityError
from .sampling import chunk_map
from .stats import ols_fit, wilson_ci

_INDEX_TOL = 1e-9


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


def _scan(m: MapSystem, xs, params: HyperbolicParams, settle: int,
          horizon: int):
    """Yield ``(n, hit)`` for n = 1..horizon, ``hit`` the indices into
    ``xs`` of the points for which n is a hyperbolic time.

    Once n > ``settle`` the points in ``hit`` leave the scan, which ends
    when no point is left or, without a further step, at n = ``horizon``.
    A ``SingularityError`` names the start point whose orbit hit the
    critical set.
    """
    steps = walk(m, xs, horizon - 1)  # the state at n - 1 decides n
    live = np.arange(len(steps.cur))  # the index in xs of each scanned point
    # prefix sums, their running minimum, recurrence threshold - _INDEX_TOL
    state = np.repeat([[0.0], [0.0], [-np.inf]], live.size, axis=1)
    prefix, runmin, block = state
    log_sigma = np.log(params.sigma)
    for j, cur in steps:
        n = j + 1
        dist = np.asarray(m.crit_dist(cur), dtype=float)
        low = dist.min(initial=np.inf)
        if low < NEAR_CRITICAL_TOL:
            point = int(live[dist < NEAR_CRITICAL_TOL][0])
            raise SingularityError(
                f"orbit of start point {point} hit the critical set at "
                f"index {j}", index=j)
        if low < params.delta:
            # truncated to 1 at dist >= delta, the threshold n - 1 blocks no n
            near = np.flatnonzero(dist < params.delta)
            t = j + (-np.log(dist[near])) / (params.b * log_sigma)
            block[near] = np.maximum(block[near], t - _INDEX_TOL)
        inv = 1.0 / jacobian_data(m, cur)[0]
        prefix += log_sigma
        prefix += np.log(inv, out=inv)
        tol = np.maximum(np.abs(runmin), 1.0)
        tol *= 1e-12
        tol += runmin
        ok = prefix <= tol
        ok &= block < n
        np.minimum(runmin, prefix, out=runmin)
        hit = np.flatnonzero(ok)
        yield n, live[hit]
        if n > settle and hit.size:
            keep = np.flatnonzero(np.logical_not(ok, out=ok))
            steps.keep(keep)
            live, state = live[keep], state.take(keep, axis=1)
            prefix, runmin, block = state
            del cur  # old states go after the copies, before the step: RSS


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
    depend on the scan blocks, which start at the number of anchors still
    wanted and double when one falls short.  Returns the anchors and the
    number of candidates examined, at most ``limit``.  The scan stops at
    ``min(hi, params.n_max)``: a later critical-set hit does not fail it.
    """
    top = min(hi, params.n_max)
    anchors, tried, size = [], 0, 0
    while len(anchors) < want and tried < limit:
        size = min(limit - tried, max(want - len(anchors), 2 * size))
        xs = [draw() for _ in range(size)]
        hits = np.zeros((max(top - lo + 1, 0), size), dtype=bool)
        for n, hit in _scan(m, xs, params, top, top):
            if n >= lo:
                hits[n - lo, hit] = True
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
    for n, hit in _scan(m, xs, params, 0, params.n_max):
        first[hit] = n
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
    before = np.zeros((len(grid), len(xs)), dtype=np.int64)
    after = np.zeros_like(before)
    last = np.zeros(len(xs), dtype=np.int64)
    stops = set(grid.tolist())
    for n, hit in _scan(m, xs, params, top, gap_horizon(top)):
        if hit.size:
            last[hit] = n
            cols = after[:, hit]
            cols[(cols == 0) & (grid < n)[:, None]] = n
            after[:, hit] = cols
        if n in stops:
            before[grid == n] = last
    return before, after


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

