"""Dynamical metric structures: balls, covers, entropy, pair probes.

Dynamical-ball membership quantifies over j = 0..n inclusive (n+1
comparisons), as the ball statements do; the orbit metric d_n of the
separated-set reference in the tests maximizes over j = 0..n-1.

Covering numbers are greedy upper estimates: repeatedly center a ball at
the sample point whose ball holds the most uncovered sample points,
counted as integers, with equal counts going to the smallest candidate
index, so no float rounding decides a pick.  Minimum cover is NP-hard
for general set systems, but partial cover by arcs of a line or a circle
is polynomial (a dynamic program over right endpoints).  Greedy is kept
because each pick is cheap and its bias has a fixed direction (never
below the minimum over sample-point centers), which is all the entropy
regression needs.  For 1D maps each ball is taken as the interval that
is its connected component through the center.  Every 1D family has a
branch structure, which gives that interval exactly, vectorized over
centers, by pulling B(f^n x, eps) back through the branch that contains
each f^j x and intersecting with B(f^j x, eps) at every step; a 1D map
without one raises ``CapabilityError``.  A direct orbit-matrix path,
which uses whole balls rather than components, is kept for small sets
and for cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import frac
from .dynamics import MapSystem, birkhoff_sum, orbit
from .errors import (CapabilityError, ConfigError, ImpossibleCoverError,
                     SamplingError)
from .hyperbolic import HyperbolicParams, is_hyperbolic_time, sample_anchors
from .sampling import chunk_map, spawn_rng
from .stats import ols_fit

# a pair passes while d(f^{n-j}y, f^{n-j}z) stays within this factor of
# sigma^{-j/2} d(f^n y, f^n z)
CONTRACTION_SLACK = 1.1


@dataclass(frozen=True)
class BallSpec:
    center: object
    n: int
    eps: float

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("ball depth must be >= 0")
        if not self.eps > 0:
            raise ValueError("ball radius must be positive")


def ball_intervals(m: MapSystem, centers, n: int, eps: float):
    """Per-center one-sided radii (r_minus, r_plus) of B(x, n, eps).

    [x - r_minus, x + r_plus] is the connected component through x of the
    inclusive ball {y : d(f^j x, f^j y) <= eps for j = 0..n}; on the
    circle each radius is also capped at 1/2.  The component is exact up
    to rounding: the target B(f^n x, eps) is pulled back one step at a
    time through the branch that contains f^j x and intersected with
    B(f^j x, eps).  A 1D map without a branch structure raises
    ``CapabilityError``.
    """
    if m.domain.ndim != 1:
        raise ConfigError("interval extraction only applies to 1D maps")
    if m.branches is None:
        raise CapabilityError(f"{m.label}: no branch structure")
    centers = np.asarray(centers, dtype=float)
    orb = orbit(m, centers, n)
    if hasattr(m.domain, "lo"):
        cap = eps
        r_lo = np.minimum(eps, orb[n] - m.domain.lo)
        r_hi = np.minimum(eps, m.domain.hi - orb[n])
    else:
        cap = min(eps, 0.5)
        r_lo = r_hi = np.full_like(centers, cap)
    for j in range(n - 1, -1, -1):
        r_lo, r_hi = m.branches.pull_back(orb[j], r_lo, r_hi)
        r_lo = np.clip(r_lo, 0.0, cap)
        r_hi = np.clip(r_hi, 0.0, cap)
    return r_lo, r_hi


def covering_number(m: MapSystem, points, n: int, eps: float, delta: float,
                    method: str = "auto") -> int:
    """Greedy count of (n, eps)-balls covering >= (1 - delta) N of N points.

    Each round centers a ball at the sample point whose ball holds the
    most uncovered points, counted as integers; equal counts go to the
    smallest candidate index (in sorted order on the arc path).  It stops
    once ``ceil((1 - delta) N)`` points are covered, the product taken
    less 1e-9 so that (1 - 0.7) * 10 = 3.0000000000000004 needs 3.  An
    upper estimate of the true minimum (greedy, and ball centers are
    restricted to the sample points).  ``auto`` goes direct (an N x N
    membership matrix) up to 1,500 points, by 1D ball intervals above.
    """
    pts = np.asarray(points, dtype=float)
    need = math.ceil((1.0 - delta) * pts.shape[0] - 1e-9)
    if need <= 0:
        return 0
    if method == "auto":
        method = "direct" if pts.shape[0] <= 1500 else "arc"
    if method == "direct":
        return _covering_direct(m, pts, n, eps, need)
    return _covering_arc(m, pts, n, eps, need)


def _covering_direct(m, pts, n, eps, need):
    orb = orbit(m, pts, n)  # inclusive ball convention
    npts = pts.shape[0]
    member = np.empty((npts, npts), dtype=bool)
    for i in range(npts):
        dev = np.max(m.domain.distance(orb[:, i:i + 1], orb), axis=0)
        member[i] = dev <= eps
    alive = np.ones(npts, dtype=bool)
    gain = member.sum(axis=1)  # member @ alive
    covered = count = 0
    while covered < need:
        best = int(np.argmax(gain))
        if gain[best] <= 0:
            raise ImpossibleCoverError(
                f"cover stalls at {covered} < {need} points")
        dead = np.flatnonzero(member[best] & alive)
        alive[dead] = False
        gain -= member[:, dead].sum(axis=1)
        covered += dead.size
        count += 1
    return count


def _covering_arc(m, pts, n, eps, need):
    r_lo, r_hi = ball_intervals(m, pts, n, eps)
    order = np.argsort(pts, kind="stable")
    pos = pts[order]
    a = (pts - r_lo)[order]
    b = (pts + r_hi)[order]
    if not hasattr(m.domain, "lo"):
        # wrapped arcs become ranges over a virtually doubled index space
        length = b - a
        a = frac(a)
        b = a + length
        pos = np.concatenate([pos, pos + 1.0])
    lo_idx = np.searchsorted(pos, a - 1e-15, side="left")
    hi_idx = np.searchsorted(pos, b + 1e-15, side="right")
    return _greedy_range_cover(lo_idx, hi_idx, len(order), need)


def _greedy_range_cover(lo_idx, hi_idx, npts, need):
    """Greedy count of index ranges covering >= ``need`` of ``npts`` points.

    Candidate k covers ``[lo_idx[k], hi_idx[k])`` of the doubled index,
    where index i + npts is point i again, so a range past ``npts`` wraps
    round the circle.  Each round picks the most uncovered points, the
    smallest index on ties.  The integer gains are updated after a pick
    only where a range can meet a newly covered point: ranges with ``lo``
    in (dead_min - span, dead_max] or in that window one circle later.
    """
    lo = np.asarray(lo_idx, dtype=np.intp)
    # a range is at most one whole circle: no point counts twice
    hi = np.minimum(np.asarray(hi_idx, dtype=np.intp), lo + npts)
    gain = hi - lo
    span = int(gain.max(initial=0))
    by_lo = np.argsort(lo, kind="stable")
    lo_sorted = lo[by_lo]
    alive = np.ones(npts, dtype=bool)
    covered = count = 0
    while covered < need:
        best = int(gain.argmax())
        if gain[best] <= 0:
            raise ImpossibleCoverError(
                f"cover stalls at {covered} < {need} points")
        b_lo, b_hi = int(lo[best]), int(hi[best])
        dead = np.flatnonzero(alive[b_lo:b_hi]) + b_lo
        if b_hi > npts:
            dead = np.concatenate([np.flatnonzero(alive[:b_hi - npts]), dead])
        alive[dead] = False
        covered += dead.size
        count += 1
        dead2 = np.concatenate([dead, dead + npts])
        s1, e1, s2, e2 = lo_sorted.searchsorted(
            [dead[0] - span, dead[-1], dead[0] + npts - span, dead[-1] + npts],
            side="right")
        touched = by_lo[s1:e2] if s2 <= e1 else np.concatenate(
            [by_lo[s1:e1], by_lo[s2:e2]])
        gain[touched] -= (dead2.searchsorted(hi[touched])
                          - dead2.searchsorted(lo[touched]))
    return count


@dataclass
class EntropyEstimate:
    entropy: float
    slope_stderr: float
    table: list  # rows (eps, n, count, log_count)
    slopes: dict  # eps -> slope


def katok_entropy(m: MapSystem, sampler, n_grid, eps_grid, delta: float,
                  samples: int, seed: int,
                  method: str = "auto") -> EntropyEstimate:
    """Covering-count growth rate: slope of log N(n, eps, delta) in n.

    Reports the slope at the smallest eps plus the full slope-vs-eps
    table.  Stated for invertible maps in the source formula; applied here
    to non-invertible ones as well, hypothesis mismatch noted.
    """
    n_grid = sorted(int(v) for v in n_grid)
    eps_grid = sorted(float(v) for v in eps_grid)
    if len(set(n_grid)) < 3 or n_grid[0] < 0:
        raise ConfigError(f"[entropy] n_grid = {n_grid} needs >= 3 distinct "
                          f"values, each >= 0")
    if len(set(eps_grid)) < 3 or eps_grid[0] <= 0:
        raise ConfigError(f"[entropy] eps_grid = {eps_grid} needs >= 3 "
                          f"distinct values, each > 0")
    pts = np.concatenate(chunk_map(lambda chunk: chunk, sampler, samples,
                                   seed, "katok"))
    table = []
    slopes = {}
    stderr = 0.0
    for eps in eps_grid:
        logs = []
        for n in n_grid:
            sub = _cell_subset(m, pts, n, eps, delta, method)
            cnt = covering_number(m, sub, n, eps, delta, method=method)
            table.append((eps, n, cnt, float(np.log(max(cnt, 1)))))
            logs.append(np.log(max(cnt, 1)))
        fit = ols_fit(np.asarray(n_grid, dtype=float), np.asarray(logs))
        slopes[eps] = fit.slope
        if eps == eps_grid[0]:
            stderr = fit.stderr
    return EntropyEstimate(entropy=slopes[eps_grid[0]], slope_stderr=stderr,
                           table=table, slopes=slopes)


def _cell_subset(m, pts, n, eps, delta, method):
    """Deterministic per-cell sample budget: ~40 points per expected ball."""
    if method == "direct" or len(pts) <= 4000:
        return pts
    pilot = pts[:2000]
    r_lo, r_hi = ball_intervals(m, pilot, n, eps)
    mean_len = float(np.mean(r_lo + r_hi))
    if mean_len <= 0:
        return pts
    length = (m.domain.hi - m.domain.lo) if hasattr(m.domain, "lo") else 1.0
    est_count = (1.0 - delta) * length / mean_len
    # the guard keeps an exact integer (18 * 2^n / eps on the doubling map)
    # from rounding down to the integer below
    budget = min(len(pts), max(4000, math.floor(40.0 * est_count + 1e-9)))
    return pts[:budget]


@dataclass
class ContractionReport:
    pass_fraction: float
    worst_ratio: float


def sample_ball_pairs(m: MapSystem, x, n: int, delta1: float, pairs: int,
                      seed: int, tag: str = "ballpairs"):
    """Pairs (y, z) uniform in the interval realizing B(x, n, delta1)."""
    r_lo, r_hi = ball_intervals(m, np.asarray([x], dtype=float), n, delta1)
    lo = float(x - r_lo[0])
    hi = float(x + r_hi[0])
    if not hi > lo:
        raise SamplingError("dynamical ball has empty interior")
    rng = spawn_rng(seed, tag)
    ys = lo + (hi - lo) * rng.random(pairs)
    zs = lo + (hi - lo) * rng.random(pairs)
    return ys, zs


def backward_contraction_check(m: MapSystem, x, n: int,
                               params: HyperbolicParams, pairs: int,
                               delta1: float, seed: int) -> ContractionReport:
    """Check d(f^{n-j}y, f^{n-j}z) <= CONTRACTION_SLACK * sigma^{-j/2}
    d(f^n y, f^n z).

    ``n`` must be a verified hyperbolic time for x; pairs are sampled
    inside B(x, n, delta1).
    """
    if not is_hyperbolic_time(m, x, n, params):
        raise ValueError(f"n={n} is not a hyperbolic time for x={x}")
    ys, zs = sample_ball_pairs(m, x, n, delta1, pairs, seed)
    oy = orbit(m, ys, n)
    oz = orbit(m, zs, n)
    d = m.domain.distance(oy, oz)  # (n+1, pairs)
    end = d[n]
    good = end > 0
    if not np.any(good):
        raise SamplingError("all sampled pairs collapse at time n")
    d = d[:, good]
    end = end[good]
    js = np.arange(n + 1)
    bound = np.power(params.sigma, -js / 2.0)[:, None] * end[None, :]
    ratio = d[::-1] / bound
    passed = ratio <= CONTRACTION_SLACK
    return ContractionReport(
        pass_fraction=float(np.mean(passed)),
        worst_ratio=float(np.max(ratio)),
    )


def distortion_estimate(m: MapSystem, phi, x, n: int, pairs: int,
                        delta1: float, seed: int) -> float:
    """K-hat: max over pairs of exp(S_n phi(z) - S_n phi(y)) and its
    inverse, for a normalized potential phi (see ``gibbs``).

    ``delta1`` should stay well inside the recurrence clearance so the
    pair orbits keep clear of the critical set.
    """
    ys, zs = sample_ball_pairs(m, x, n, delta1, pairs, seed, tag="distortion")
    sy, sz = birkhoff_sum(m, phi, np.stack([ys, zs]), n)
    r = np.exp(sz - sy)
    return float(np.max(np.maximum(r, 1.0 / r)))


def calibrate_delta1(m: MapSystem, params: HyperbolicParams, seed: int,
                     instances: int = 5, pairs: int = 200,
                     threshold: float = 0.99) -> float:
    """Largest radius in {2^-3 .. 2^-10} passing a pilot contraction check.

    A radius passes when every anchor's pass fraction reaches
    ``threshold``.  The backward-contraction statement guarantees such a
    radius exists but not its value; this pins one per family and reports
    it, and raises ``SamplingError`` when none of the eight passes.
    """
    rng = spawn_rng(seed, "delta1")
    # modest depths: the ball width shrinks like e^(-lambda n) and falls
    # under float spacing past n ~ 45, where pair sampling degenerates
    anchors, _ = sample_anchors(m, lambda: m.domain.sample(rng, 1)[0], params,
                                10, 24, instances, 50 * instances)
    anchors = [(float(x), n) for x, n in anchors]
    if not anchors:
        raise SamplingError("no hyperbolic times found for calibration")
    best = 0.0  # the largest, over radii, of the smallest anchor pass
    for k in range(3, 11):
        delta1 = 2.0 ** -k
        try:
            worst = min(backward_contraction_check(
                m, x, n, params, pairs, delta1, seed).pass_fraction
                for x, n in anchors)
        except SamplingError:
            continue
        if worst >= threshold:
            return delta1
        best = max(best, worst)
    raise SamplingError(
        f"no radius in 2^-3 .. 2^-10 passes the pilot contraction check at "
        f"threshold {threshold}: the best pass fraction is {best}; set "
        f"delta1 by hand")
