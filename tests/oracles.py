"""Brute-force references and paper-condition checks that only tests run.

No experiment kind calls anything here.  Each definition is either a slow
reference that a fast path of the program is tested against, or one of
the paper's objects that no kind emits yet:

* ``naive_is_hyperbolic_time`` is the double-loop hyperbolic-time check
  that the incremental scan of ``hyperbolic`` must agree with, built on
  ``expansion_cocycle`` and ``truncated_distance``;
* ``dn_distance``, ``in_dynamical_ball`` and ``maximal_separated_subset``
  are the pointwise orbit metric, ball membership and a greedy separated
  set, the references of ``metric.ball_intervals`` and the covers;
* ``verify_H`` and ``verify_C`` check the paper's non-degeneracy
  condition (H) and its backward preimage contraction (C);
* ``lag_statistic`` is the lag of non-uniform specification;
* ``preimage`` and ``intersect`` are whole interval-set preimages and
  cuts, which the program replaces by ``pull_back`` around known points;
* ``shadow_search`` finds a point shadowing a chain of orbit pieces by
  backward cylinder refinement: realize the last piece's constraint set
  as an interval union, pull it back through the gap iterates along every
  branch, intersect with the previous piece's stepwise ball constraints,
  and recurse; any returned point is forward-verified.  ``gap_estimate``
  is the pointwise gap p-hat(x, n, eps), the exactness time plus the wait
  to the next hyperbolic time, optionally cross-checked by shadowing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from devgibbs.branching import CircleBranches, IntervalUnion, MERGE_TOL
from devgibbs.domain import frac
from devgibbs.dynamics import (MapSystem, NEAR_CRITICAL_TOL, jacobian_data,
                               orbit)
from devgibbs.errors import (CapabilityError, ConfigError, HorizonError,
                             SingularityError)
from devgibbs.hyperbolic import (HyperbolicParams, _INDEX_TOL, gap_horizon,
                                 hyperbolic_times, straddling_times)
from devgibbs.metric import BallSpec
from devgibbs.sampling import spawn_rng
from devgibbs.stats import ols_fit


# --- interval sets -----------------------------------------------------------


def preimage(br, u: IntervalUnion) -> IntervalUnion:
    """f^{-1}(u) through the branch structure ``br``.

    On an interval map: the part of each component inside a piece's value
    range, inverted on that piece.  On a circle map: each component
    shifted by an integer k, cut to the lift's range [base, base + d] and
    inverted; preimages that straddle the seam come back as two segments.
    The top end base + d of the range is the image of x = 1 = 0, which the
    bottom end already yields, so a one-point set is not counted there.
    """
    ends = np.array(u.segments, dtype=float).reshape(-1, 2)
    ya, yb = ends[:, 0], ends[:, 1]
    if isinstance(br, CircleBranches):
        top = br.base + br.degree
        k = np.arange(math.floor(br.base) - 1,
                      math.floor(br.base) + br.degree + 1)[:, None]
        lo, hi = np.maximum(ya + k, br.base), np.minimum(yb + k, top)
        keep = (lo < hi) | ((lo == hi) & (ya == yb) & (hi < top))
        xa, xb = br.inv_lift_array(lo[keep]), br.inv_lift_array(hi[keep])
        return IntervalUnion(zip(xa.tolist(), xb.tolist()), 0.0, 1.0)
    segs = []
    for p in br.pieces:
        vlo, vhi = p.value_range()
        lo, hi = np.maximum(ya, vlo), np.minimum(yb, vhi)
        keep = lo <= hi
        xa, xb = p.inv_array(lo[keep]), p.inv_array(hi[keep])
        segs += zip(np.minimum(xa, xb).tolist(), np.maximum(xa, xb).tolist())
    return IntervalUnion(segs, *br.chart)


def intersect(u: IntervalUnion, a: float, b: float) -> IntervalUnion:
    """The part of u inside [a, b]."""
    return IntervalUnion([(max(s, a), min(e, b)) for s, e in u.segments
                          if min(e, b) >= max(s, a)], u.lo, u.hi)


# --- hyperbolic times ---------------------------------------------------------


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


def naive_is_hyperbolic_time(m: MapSystem, x, n: int,
                             params: HyperbolicParams) -> bool:
    """Reference double-loop checker, one fresh suffix sum per k."""
    inv = expansion_cocycle(m, x, n)
    pts = orbit(m, x, n - 1)
    log_sigma = np.log(params.sigma)
    logs = np.log(inv)
    scale = max(1.0, float(np.max(np.abs(np.cumsum(logs + log_sigma)))))
    for k in range(1, n + 1):
        s = 0.0
        for j in range(n - k, n):
            s += log_sigma + logs[j]
        if s > 1e-12 * scale:
            return False
        d = float(truncated_distance(m, pts[n - k], params.delta))
        if not (n > (n - k) + (-np.log(d)) / (params.b * log_sigma) - _INDEX_TOL):
            return False
    return True


@dataclass(frozen=True)
class LagStats:
    """Lag statistics of a detected-time record on the window [lo, N].

    ``lo = max(window_min, N // 10)`` scales with N, so that growing N
    moves the window out and the statistics estimate limsups rather than
    running maxima over all times.
    """

    #: max (n_{i+1} - n_i) / n_i over gaps with lo <= n_i and n_{i+1} <= N,
    #: an estimate of limsup (n_{i+1} - n_i) / n_i; NaN when insufficient
    max_gap_ratio: float
    #: max (n - n_i(x)) / n over lo <= n <= N, with n_i(x) the last
    #: detected time <= n; NaN when insufficient
    max_wait_ratio: float
    #: the window (lo, N) actually used
    window: tuple
    #: True when no gap starts in the window
    insufficient: bool = False


def lag_statistic_from_times(times: np.ndarray, N: int,
                             window_min: int = 10) -> LagStats:
    """Lag statistics of a sorted array of detected times up to N.

    The statistics are taken on the window [max(window_min, N // 10), N]:
    ``max_gap_ratio`` estimates the limsup of (n_{i+1} - n_i)/n_i, which
    non-uniform specification needs to fall to 0 as N grows.  Times
    beyond N are dropped.  When no gap starts in the window, the result
    is ``insufficient`` with NaN statistics.
    """
    times = np.asarray(times, dtype=np.int64)
    times = times[times <= N]
    lo = max(window_min, N // 10)
    prev, nxt = times[:-1], times[1:]
    in_win = prev >= lo
    if not np.any(in_win):
        return LagStats(np.nan, np.nan, (lo, N), insufficient=True)
    gap_ratio = float(np.max((nxt - prev)[in_win] / prev[in_win]))
    # (n - n_i)/n peaks just before the next detected time, and after the
    # last detected time it keeps growing until the horizon
    waits = [0.0]
    for a, b in zip(prev, nxt):
        n_peak = int(b) - 1
        if n_peak >= max(int(a), lo):
            waits.append((n_peak - int(a)) / n_peak)
    if times[-1] < N:
        waits.append((N - int(times[-1])) / N)
    wait_ratio = float(max(waits))
    return LagStats(max_gap_ratio=gap_ratio, max_wait_ratio=wait_ratio,
                    window=(lo, N))


def lag_statistic(m: MapSystem, x, N: int, params: HyperbolicParams,
                  window_min: int = 10) -> LagStats:
    rec = hyperbolic_times(m, x, replace(params, n_max=N))
    return lag_statistic_from_times(rec.times, N, window_min=window_min)


# --- orbit metric ---------------------------------------------------------------


def dn_distance(m: MapSystem, x, y, n: int) -> float:
    """max_{0<=j<=n-1} d(f^j x, f^j y)."""
    if n < 1:
        raise ValueError("d_n needs n >= 1")
    ox = orbit(m, x, n - 1)
    oy = orbit(m, y, n - 1)
    return float(np.max(m.domain.distance(ox, oy)))


def in_dynamical_ball(m: MapSystem, y, spec: BallSpec) -> bool:
    """Membership with the inclusive convention j = 0..n."""
    return dn_distance(m, spec.center, y, spec.n + 1) <= spec.eps


@dataclass
class SeparatedSet:
    n: int
    eps: float
    members: np.ndarray
    indices: np.ndarray
    maximal: bool


def maximal_separated_subset(m: MapSystem, candidates, n: int,
                             eps: float) -> SeparatedSet:
    """Greedy pass in candidate order; admits iff d_n > eps to all admitted.

    The result is maximal within the candidate list: no remaining candidate
    could still be added.
    """
    pts = np.asarray(candidates, dtype=float)
    if pts.size == 0:
        raise ValueError("need at least one candidate")
    orb = orbit(m, pts, n - 1)  # (n, N) or (n, N, 2)
    admitted = []
    for i in range(pts.shape[0]):
        ok = True
        for j in admitted:
            dij = float(np.max(m.domain.distance(orb[:, i], orb[:, j])))
            if dij <= eps:
                ok = False
                break
        if ok:
            admitted.append(i)
    idx = np.asarray(admitted, dtype=int)
    return SeparatedSet(n=n, eps=eps, members=pts[idx], indices=idx,
                        maximal=True)


# --- the paper's conditions (H) and (C) -----------------------------------------


@dataclass(frozen=True)
class PowerLawFit:
    """Result of fitting distance-power bounds near the critical set."""

    ok: bool
    B: float
    beta: float
    worst_ratio: float
    vacuous: bool = False
    witness: Optional[tuple] = None
    table: tuple = ()


def _nearby_pairs(m, xs, rng):
    """Partners y with d(x, y) < dist(x, C)/2, staying in the domain."""
    r = np.asarray(m.crit_dist(xs), dtype=float) * 0.5 * 0.999
    u = (2.0 * rng.random(len(xs)) - 1.0)
    if m.domain.ndim == 1:
        ys = m.domain.clamp(xs + u * r)
    else:
        ys = xs.copy()
        v = (2.0 * rng.random(len(xs)) - 1.0)
        ys[:, 0] = frac(ys[:, 0] + u * np.minimum(r, 0.49))
        ys[:, 1] = ys[:, 1] + v * r
        ys = m.domain.clamp(ys)
    keep = (m.domain.distance(xs, ys) < np.asarray(m.crit_dist(xs)) * 0.5) \
        & (m.domain.distance(xs, ys) > 0)
    return ys, keep


def verify_H(m: MapSystem, samples: int = 4000, seed: int = 0,
             beta_grid=None) -> PowerLawFit:
    """Fit the smallest (B, beta) making the distance-power bounds hold.

    Checks, on sampled pairs with d(x, y) < dist(x, C)/2:
    (a) B^-1 dist^beta <= sigma_min(Df) and sigma_max(Df) <= B dist^-beta,
    (b) the log of ||Df^-1|| is B dist^-beta Lipschitz,
    (c) likewise for log |det Df|.
    Maps with empty critical set pass vacuously with B = 1.
    """
    probe = np.asarray(m.crit_dist(m.domain.sample(spawn_rng(seed, "verify_h"), 64)))
    if not np.any(np.isfinite(probe)):
        return PowerLawFit(ok=True, B=1.0, beta=1.0, worst_ratio=0.0, vacuous=True)

    rng = spawn_rng(seed, "verify_h")
    xs = m.domain.sample(rng, samples)
    dist = np.asarray(m.crit_dist(xs), dtype=float)
    keep = dist > 1e-9
    xs, dist = xs[keep], dist[keep]
    ys, ok_pair = _nearby_pairs(m, xs, rng)
    xs_p, ys_p, dist_p = xs[ok_pair], ys[ok_pair], dist[ok_pair]

    smin, smax, det = jacobian_data(m, xs)
    smin_y, _, det_y = jacobian_data(m, ys_p)
    smin_x = smin[ok_pair]
    det_x = np.abs(det[ok_pair])
    det_y = np.abs(det_y)
    gap = np.asarray(m.domain.distance(xs_p, ys_p), dtype=float)
    dlog_inv = np.abs(np.log(smin_x) - np.log(smin_y))
    dlog_det = np.abs(np.log(det_x) - np.log(det_y))

    if beta_grid is None:
        beta_grid = np.linspace(0.05, 1.0, 20)
    table = []
    for beta in beta_grid:
        db = dist ** beta
        b_a = max(np.max(db / smin), np.max(smax * db))
        dbp = dist_p ** beta
        b_b = np.max(dlog_inv * dbp / gap) if len(gap) else 1.0
        b_c = np.max(dlog_det * dbp / gap) if len(gap) else 1.0
        B = max(1.0, b_a, b_b, b_c)
        table.append((float(beta), float(B)))
    finite = [(beta, B) for beta, B in table if np.isfinite(B)]
    if not finite:
        worst = int(np.argmax(dlog_inv * dist_p / gap))
        return PowerLawFit(ok=False, B=math.inf, beta=1.0, worst_ratio=math.inf,
                           witness=(float(xs_p[worst]), float(ys_p[worst])),
                           table=tuple(table))
    beta, B = min(finite, key=lambda t: t[1])
    return PowerLawFit(ok=True, B=B, beta=beta, worst_ratio=1.0, table=tuple(table))


@dataclass(frozen=True)
class PreimageContraction:
    """Log-log fit of preimage-component diameters against set diameter."""

    L: float
    gamma: float
    residual: float
    table: tuple


def longest_component(m: MapSystem, u: IntervalUnion) -> float:
    """Length of the longest component of u; on the circle the arc
    through the seam counts as one."""
    lengths = [b - a for a, b in u.segments]
    if (isinstance(m.branches, CircleBranches) and len(lengths) > 1
            and u.segments[0][0] <= MERGE_TOL
            and u.segments[-1][1] >= 1.0 - MERGE_TOL):
        lengths.append(lengths[0] + lengths[-1])
    return max(lengths, default=0.0)


def verify_C(m: MapSystem, eps_grid, samples: int = 32, seed: int = 0,
             anchors=None) -> PreimageContraction:
    """Measure preimage-component diameters and fit diam <= L eps^gamma.

    Targets of diameter eps are centred at points drawn at random once
    (or at the given anchors) and shifted to lie inside an interval
    domain, so each centre's targets are nested in eps.  The longest
    component of their preimage is recorded (on the circle the arc
    through the seam counts as one); a log-log regression over the eps
    grid gives (L, gamma).
    """
    eps_grid = list(eps_grid)
    if len(eps_grid) < 3:
        raise ConfigError("preimage-contraction fit needs >= 3 grid points")
    if m.branches is None:
        raise CapabilityError(f"{m.label}: no branch structure for preimage sets")
    if anchors is None:
        centers = m.domain.sample(spawn_rng(seed, "verify_c"), samples)
    else:
        centers = np.asarray(anchors, dtype=float)
    rows = []
    for eps in eps_grid:
        worst = 0.0
        for c in np.atleast_1d(centers):
            c = float(c)
            if hasattr(m.domain, "lo"):
                c = min(max(c, m.domain.lo + eps / 2.0), m.domain.hi - eps / 2.0)
            pre = preimage(m.branches, m.branches.ball(c, eps / 2.0))
            worst = max(worst, longest_component(m, pre))
        rows.append((eps, worst))
    x = np.log([r[0] for r in rows])
    y = np.log([max(r[1], 1e-300) for r in rows])
    fit = ols_fit(x, y)
    return PreimageContraction(L=float(math.exp(fit.intercept)),
                               gamma=float(fit.slope),
                               residual=float(fit.residual),
                               table=tuple(rows))


# --- specification: shadowing and the pointwise gap -----------------------------


@dataclass(frozen=True)
class OrbitPiece:
    x: object
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("orbit pieces need length >= 1")


@dataclass
class ShadowResult:
    found: bool
    z: Optional[float]
    verified: bool
    failed_stage: Optional[int]  # piece index whose refinement emptied


def shadow_search(m: MapSystem, pieces: Sequence[OrbitPiece], eps: float,
                  gaps: Sequence[int]) -> ShadowResult:
    """Backward cylinder refinement for a point shadowing all pieces.

    ``gaps[i]`` iterates separate piece i from piece i+1.  Limited to
    full-branch 1D maps; at most 8 pieces and total length + gaps <= 1000.
    A gap whose pull-back fragments the set past ``MAX_COMPONENTS``
    raises ``ConfigError`` naming eps, the gap and the step.
    """
    if m.branches is None:
        raise CapabilityError(f"{m.label}: shadowing needs inverse branches")
    pieces = list(pieces)
    gaps = list(gaps)
    if len(pieces) > 8:
        raise ConfigError("at most 8 orbit pieces")
    if len(gaps) != len(pieces) - 1:
        raise ConfigError("need exactly one gap per consecutive piece pair")
    budget = sum(p.n for p in pieces) + sum(gaps)
    if budget > 1000:
        raise ConfigError("total piece length plus gaps exceeds 1000")

    br = m.branches
    orbits = [orbit(m, piece.x, piece.n) for piece in pieces]
    future: Optional[IntervalUnion] = None
    for i in range(len(pieces) - 1, -1, -1):
        piece, pts = pieces[i], orbits[i]
        cur = br.ball(float(pts[piece.n]), eps)
        if future is not None:
            pulled = future
            for k in range(gaps[i]):
                try:
                    pulled = preimage(br, pulled)
                except ConfigError as exc:
                    raise ConfigError(
                        f"shadowing at eps={eps}: {exc} at step {k + 1} of "
                        f"the gap of {gaps[i]} between pieces {i} and "
                        f"{i + 1}; lower that gap or raise eps") from exc
            cur = IntervalUnion(
                [seg for a, b in cur.segments
                 for seg in intersect(pulled, a, b).segments],
                cur.lo, cur.hi)
        for j in range(piece.n - 1, -1, -1):
            cur = preimage(br, cur)
            ball = br.ball(float(pts[j]), eps)
            cur = IntervalUnion(
                [seg for a, b in ball.segments
                 for seg in intersect(cur, a, b).segments],
                cur.lo, cur.hi)
        if not cur.segments:
            return ShadowResult(found=False, z=None, verified=False,
                                failed_stage=i)
        future = cur

    a, b = max(future.segments, key=lambda seg: seg[1] - seg[0])
    z = 0.5 * (a + b)
    zs = orbit(m, z, budget)
    t = 0
    for i, piece in enumerate(pieces):
        if np.any(m.domain.distance(zs[t:t + piece.n + 1], orbits[i]) > eps):
            return ShadowResult(found=False, z=None, verified=False,
                                failed_stage=i)
        t += piece.n + (gaps[i] if i < len(gaps) else 0)
    return ShadowResult(found=True, z=z, verified=True, failed_stage=None)


@dataclass
class GapEstimate:
    p_hat: int
    next_time: int
    exactness: int
    lag: int
    verified_fraction: Optional[float] = None


def gap_estimate(m: MapSystem, x, n: int, eps: float,
                 params: HyperbolicParams, exactness: int,
                 verify: int = 0, seed: int = 0) -> GapEstimate:
    """p-hat(x, n, eps) = exactness time + wait to the next hyperbolic time.

    The next time is the first one strictly beyond n, searched up to
    ``gap_horizon(n)``.  With ``verify`` > 0 the estimate is cross-checked
    by shadowing searches toward that many sampled continuations with gap
    p-hat; the fraction of forward-verified successes is reported.
    """
    _, after = straddling_times(m, [x], params, [n])
    nxt = int(after[0, 0])
    if not nxt:
        raise HorizonError(
            f"no hyperbolic time beyond n={n} within horizon "
            f"gap_horizon({n}) = {gap_horizon(n)}")
    p_hat = exactness + (nxt - n)
    verified = None
    if verify > 0:
        if m.branches is None:
            raise CapabilityError(
                f"{m.label}: shadow verification needs inverse branches")
        rng = spawn_rng(seed, "gapverify")
        ok = 0
        for _ in range(verify):
            y = float(m.domain.sample(rng, 1)[0])
            piece_len = min(max(n // 4, 2), 8)
            res = shadow_search(m, [OrbitPiece(x, min(n, 8)),
                                    OrbitPiece(y, piece_len)], eps, [p_hat])
            ok += int(res.found and res.verified)
        verified = ok / verify
    return GapEstimate(p_hat=p_hat, next_time=nxt, exactness=exactness,
                       lag=nxt - n, verified_fraction=verified)
