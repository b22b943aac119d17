"""Dynamical metric structures: balls, covers, entropy, pair probes.

Dynamical-ball membership quantifies over j = 0..n inclusive (n+1
comparisons), as the ball statements do; the orbit metric d_n of the
separated-set reference in the tests maximizes over j = 0..n-1.

Covering numbers are greedy upper estimates: repeatedly center a ball at
the sample point whose ball holds the most uncovered sample points,
counted as integers, equal counts going to the smallest point, so no
float rounding decides a pick.  Greedy is kept because each pick is cheap
and its bias has a fixed direction (never below the minimum over
sample-point centers), which is all the entropy regression needs.  A
ball is the full ball that Katok's formula counts, not only its
component through the center: the branch structure of every 1D family
gives it exactly as a union of ranges, vectorized over centers, of
which the cover keeps those that hold a sample point; a 1D map without
one raises ``CapabilityError``, a cylinder map ``ConfigError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .branching import MERGE_TOL, join
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
# the pilot of calibrate_delta1 (see there)
CALIBRATION_ANCHORS = 5
CALIBRATION_PAIRS = 200
CALIBRATION_THRESHOLD = 0.99


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


def ball_intervals(m: MapSystem, centers, n: int, eps: float, *,
                   held: bool = False):
    """The full balls {y : d(f^j x, f^j y) <= eps for j = 0..n} of the
    centres x, as ranges [x + lo, x + hi] with x = centers[own].

    ``(own, lo, hi)`` is sorted by centre and ``lo``, with touching ranges
    of a centre joined within ``MERGE_TOL``, and |lo|, |hi| <= eps (1/2 on
    the circle).  Exact up to rounding: B(f^n x, eps) is pulled back one
    step at a time through every branch and cut to B(f^j x, eps).  More
    than ``MAX_COMPONENTS`` ranges in a ball raise ``ConfigError``.

    With ``held``, each step drops the ranges that hold no f^j of a centre
    (within ``MERGE_TOL``): their preimages hold none either, so each ball
    holds the same centres in at most one range per centre.
    """
    if m.domain.ndim != 1:
        raise ConfigError("interval extraction only applies to 1D maps")
    if m.branches is None:
        raise CapabilityError(f"{m.label}: no branch structure")
    centers = np.asarray(centers, dtype=float)
    orb = orbit(m, centers, n)
    own = np.arange(centers.size)
    if hasattr(m.domain, "lo"):
        cap = eps
        lo = -np.minimum(eps, orb[n] - m.domain.lo)
        hi = np.minimum(eps, m.domain.hi - orb[n])
    else:
        cap = min(eps, 0.5)
        lo, hi = np.full_like(centers, -cap), np.full_like(centers, cap)
    what = f"a ball B(x, n={n}, eps={eps})"
    for j in range(n - 1, -1, -1):
        o = orb[j]
        own, lo, hi = m.branches.pull_back(o[own], own, lo, hi, cap)
        if np.all(own[1:] > own[:-1]):
            continue  # one range per centre: nothing to sort, join or drop
        own, lo, hi = join(own, lo, hi, what, partial(
            _holds_point, m, np.sort(o), o) if held else None)
    return own, lo, hi


def _holds_point(m: MapSystem, pts, o, own, lo, hi):
    """Whether each range [o[own] + lo, o[own] + hi] holds a point of the
    sorted ``pts``, within ``MERGE_TOL``."""
    first, stop = _point_span(m, pts, o[own] + lo - MERGE_TOL,
                              o[own] + hi + MERGE_TOL)
    return stop > first


def _point_span(m: MapSystem, pts, a, b):
    """Indices [first, stop) of the sorted ``pts`` in [a, b]; on the circle
    of ``pts`` doubled (i + N is point i again), from a mod 1."""
    if not hasattr(m.domain, "lo"):
        a, b = frac(a), frac(a) + (b - a)
        pts = np.concatenate([pts, pts + 1.0])
    return (np.searchsorted(pts, a, side="left"),
            np.searchsorted(pts, b, side="right"))


def covering_number(m: MapSystem, points, n: int, eps: float,
                    delta: float) -> int:
    """Greedy count of (n, eps)-balls covering >= (1 - delta) N of N points.

    Each round centers a full ball (``ball_intervals``) at the sample
    point whose ball holds the most uncovered points, the smallest point
    on ties.  It stops once ``ceil((1 - delta) N)`` points are covered,
    the product taken less 1e-9 so that (1 - 0.7) * 10 =
    3.0000000000000004 needs 3.  An upper estimate of the true minimum
    (greedy, and centers restricted to the sample points).
    """
    pts = np.asarray(points, dtype=float)
    need = math.ceil((1.0 - delta) * pts.shape[0] - 1e-9)
    if need <= 0:
        return 0
    pos = np.sort(pts)
    own, lo, hi = ball_intervals(m, pos, n, eps, held=True)
    lo_idx, hi_idx = _point_span(m, pos, pos[own] + lo - 1e-15,
                                 pos[own] + hi + 1e-15)
    return _greedy_range_cover(own, lo_idx, hi_idx, pts.shape[0], need)


def _greedy_range_cover(own, lo_idx, hi_idx, npts, need):
    """Greedy count of candidates covering >= ``need`` of ``npts`` points.

    Candidate own[k] (``own`` sorted) covers [lo_idx[k], hi_idx[k]) of the
    doubled index, where i + npts is point i again.  Each round picks the
    most uncovered points, the smallest candidate on ties; then only the
    integer gains of ranges that can meet a newly covered point change,
    those with lo in (dead_min - span, dead_max] or one circle later.
    """
    own = np.asarray(own, dtype=np.intp)
    lo = np.asarray(lo_idx, dtype=np.intp)
    # a range is at most one whole circle: no point counts twice
    hi = np.minimum(np.asarray(hi_idx, dtype=np.intp), lo + npts)
    span = int((hi - lo).max(initial=0))
    ranges = np.bincount(own, minlength=npts)
    stop = np.cumsum(ranges)
    gain = np.bincount(own, hi - lo, minlength=npts).astype(np.intp)
    by_lo = np.argsort(lo, kind="stable")
    lo_sorted = lo[by_lo]
    alive = np.ones(npts, dtype=bool)
    covered = count = 0
    while covered < need:
        best = int(gain.argmax())
        if gain[best] <= 0:
            raise ImpossibleCoverError(
                f"cover stalls at {covered} < {need} points")
        k = int(stop[best])
        if ranges[best] == 1:
            b_lo, b_hi = int(lo[k - 1]), int(hi[k - 1])
            dead = np.flatnonzero(alive[b_lo:b_hi]) + b_lo
            if b_hi > npts:
                dead = np.concatenate([np.flatnonzero(alive[:b_hi - npts]),
                                       dead])
        else:  # every index of the candidate's ranges, folded onto the points
            b_lo = lo[k - ranges[best]:k]
            w = hi[k - ranges[best]:k] - b_lo
            idx = np.arange(w.sum()) + np.repeat(b_lo - np.cumsum(w) + w, w)
            idx[idx >= npts] -= npts
            dead = np.unique(idx[alive[idx]])
        alive[dead] = False
        covered += dead.size
        count += 1
        dead2 = np.concatenate([dead, dead + npts])
        s1, e1, s2, e2 = lo_sorted.searchsorted(
            [dead[0] - span, dead[-1], dead[0] + npts - span, dead[-1] + npts],
            side="right")
        touched = by_lo[s1:e2] if s2 <= e1 else np.concatenate(
            [by_lo[s1:e1], by_lo[s2:e2]])
        np.subtract.at(gain, own[touched], dead2.searchsorted(hi[touched])
                       - dead2.searchsorted(lo[touched]))
    return count


@dataclass
class EntropyEstimate:
    entropy: float
    slope_stderr: float
    table: list  # rows (eps, n, count, log_count)
    slopes: dict  # eps -> slope


def katok_entropy(m: MapSystem, sampler, n_grid, eps_grid, delta: float,
                  samples: int, seed: int) -> EntropyEstimate:
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
            sub = _cell_subset(m, pts, n, eps, delta)
            cnt = covering_number(m, sub, n, eps, delta)
            table.append((eps, n, cnt, float(np.log(max(cnt, 1)))))
            logs.append(np.log(max(cnt, 1)))
        fit = ols_fit(np.asarray(n_grid, dtype=float), np.asarray(logs))
        slopes[eps] = fit.slope
        if eps == eps_grid[0]:
            stderr = fit.stderr
    return EntropyEstimate(entropy=slopes[eps_grid[0]], slope_stderr=stderr,
                           table=table, slopes=slopes)


def _cell_subset(m, pts, n, eps, delta):
    """Per-cell sample budget: ~40 points per ball of a 2,000-point pilot."""
    if len(pts) <= 4000:
        return pts
    pilot = pts[:2000]
    _, lo, hi = ball_intervals(m, pilot, n, eps, held=True)
    mean_len = float(np.sum(hi - lo)) / len(pilot)
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
    """Pairs (y, z) uniform in the range of B(x, n, delta1) through x: the
    component of the ball that backward contraction is about."""
    _, lo, hi = ball_intervals(m, [x], n, delta1, held=True)
    through = (lo <= 0.0) & (hi >= 0.0)  # one range at most
    lo, hi = float(x + lo[through].sum()), float(x + hi[through].sum())
    if not hi > lo:
        raise SamplingError(
            f"the ball B(x, n={n}, delta1={delta1}) about x = {x} has empty "
            f"interior; lower n or raise delta1")
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


def calibrate_delta1(m: MapSystem, params: HyperbolicParams,
                     seed: int) -> float:
    """Largest radius in {2^-3 .. 2^-10} passing a pilot contraction check.

    The pilot checks ``CALIBRATION_PAIRS`` pairs at each of
    ``CALIBRATION_ANCHORS`` anchors, and a radius passes when every
    anchor's pass fraction reaches ``CALIBRATION_THRESHOLD``.  The
    backward-contraction statement guarantees such a radius exists but not
    its value; this pins one per family and reports it, and raises
    ``SamplingError`` when none of the eight passes.
    """
    rng = spawn_rng(seed, "delta1")
    # modest depths: the ball width shrinks like e^(-lambda n) and falls
    # under float spacing past n ~ 45, where pair sampling degenerates
    anchors, _ = sample_anchors(m, lambda: m.domain.sample(rng, 1)[0], params,
                                10, 24, CALIBRATION_ANCHORS,
                                50 * CALIBRATION_ANCHORS)
    anchors = [(float(x), n) for x, n in anchors]
    if not anchors:
        raise SamplingError("no hyperbolic times found for calibration")
    best = 0.0  # the largest, over radii, of the smallest anchor pass
    for k in range(3, 11):
        delta1 = 2.0 ** -k
        try:
            worst = min(backward_contraction_check(
                m, x, n, params, CALIBRATION_PAIRS, delta1, seed).pass_fraction
                for x, n in anchors)
        except SamplingError:
            continue
        if worst >= CALIBRATION_THRESHOLD:
            return delta1
        best = max(best, worst)
    raise SamplingError(
        f"no radius in 2^-3 .. 2^-10 passes the pilot contraction check at "
        f"threshold {CALIBRATION_THRESHOLD}: the best pass fraction is "
        f"{best}; set delta1 by hand")
