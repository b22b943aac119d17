"""Dynamical-ball masses and the sandwich constants around them.

Every potential phi here is normalized, with pressure P = 0, as the
conformal benchmark -log |det Df| with Lebesgue is; a potential with
pressure P enters as phi - P.  The sandwich constant at (x, n, eps)
compares the measured ball mass with exp(S_n phi(x)): the ratio is
mass * exp(-S_n phi(x)) and K-hat is the larger of the ratio and its
inverse, so K-hat >= 1 by construction.  Ball masses come from direct hit
counting (not nested sampling) so the variance accounting stays
transparent; a feasibility guard flags estimates whose expected hit count
is starved.

The Delta_n machinery replaces per-sample constant estimation (quadratic
cost) with its hyperbolic-time surrogate: the constant at n is controlled
by the current gap between consecutive hyperbolic times, so the
exceptional set is {gap > c_beta * n} with c_beta = beta / sup|phi|.
The times on either side of each grid n come from one
``hyperbolic.straddling_times`` scan per sample chunk.
For unbounded potentials sup|phi| is read at the 99.9th percentile of
``SUP_PHI_PROBES`` sampled values and flagged as clipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import MapSystem, birkhoff_sum, orbit, walk
from .errors import ConfigError
from .hyperbolic import HyperbolicParams, gap_horizon, straddling_times
from .metric import BallSpec
from .sampling import chunk_map, spawn_rng
from .stats import ols_fit, wilson_ci

STARVED_HITS = 10
SUP_PHI_PROBES = 20000


@dataclass
class BallMass:
    mass: float
    ci_low: float
    ci_high: float
    hits: int
    samples: int
    starved: bool


def ball_measure(m: MapSystem, sampler, spec: BallSpec, samples: int,
                 seed: int, workers: int = 1) -> BallMass:
    """Hit-count estimate of the sampler mass of a dynamical ball."""
    center_orbit = orbit(m, spec.center, spec.n)

    def job(pts):
        steps = walk(m, pts, spec.n)
        for j, cur in steps:
            steps.keep(m.domain.distance(cur, center_orbit[j]) <= spec.eps)
        return steps.cur.shape[0]

    hits = sum(chunk_map(job, sampler, samples, seed, "ball", workers))
    lo, hi = wilson_ci(hits, samples)
    return BallMass(mass=hits / samples, ci_low=lo, ci_high=hi, hits=hits,
                    samples=samples, starved=hits < STARVED_HITS)


@dataclass
class GibbsConstant:
    k_hat: float
    ratio: float  # mass * exp(-S_n phi(x))
    snphi: float
    undefined: bool


def gibbs_constant(m: MapSystem, phi, x, n: int, mass: float
                   ) -> GibbsConstant:
    """Sandwich constant from a measured ball mass, centered at x."""
    snphi = float(birkhoff_sum(m, phi, x, n)) if n >= 1 else 0.0
    if mass <= 0.0:
        return GibbsConstant(k_hat=math.inf, ratio=0.0, snphi=snphi,
                             undefined=True)
    ratio = mass * math.exp(-snphi)
    return GibbsConstant(k_hat=max(ratio, 1.0 / ratio), ratio=ratio,
                         snphi=snphi, undefined=False)


@dataclass
class SubexpReport:
    statistic: float  # max over points of (log K_nmax - log K_nmin) / nmax
    rows: list  # (point_id, n, mass, ci_low, ci_high, snphi, k_hat, log_k_over_n)
    flagged: int


def subexp_check(m: MapSystem, phi, sampler, n_grid,
                 eps: float, samples: int, seed: int, n_points: int = 16,
                 workers: int = 1) -> SubexpReport:
    """Growth statistic of the sandwich constants between grid ends.

    A vanishing statistic is the numerical face of subexponential growth;
    the full per-(x, n) table is reported alongside.
    """
    n_grid = sorted(int(v) for v in n_grid)
    if len(set(n_grid)) < 2 or n_grid[0] < 1:
        raise ConfigError(f"[gibbs] n_grid = {n_grid} needs >= 2 distinct "
                          f"values, each >= 1")
    pts = sampler.sample(spawn_rng(seed, "subexp-centers"), n_points)
    rows = []
    per_point = []
    flagged = 0
    for pid in range(n_points):
        x = pts[pid]
        ks = {}
        bad = False
        for n in n_grid:
            est = ball_measure(m, sampler, BallSpec(x, n, eps), samples,
                               seed + 7919 * pid + n, workers=workers)
            gc = gibbs_constant(m, phi, x, n, est.mass)
            rows.append((pid, n, est.mass, est.ci_low, est.ci_high,
                         gc.snphi, gc.k_hat,
                         (math.log(gc.k_hat) / n) if not gc.undefined else math.inf))
            ks[n] = gc
            bad = bad or gc.undefined or est.starved
        if bad:
            flagged += 1
            continue
        n0, n1 = n_grid[0], n_grid[-1]
        stat = (math.log(ks[n1].k_hat) - math.log(ks[n0].k_hat)) / n1
        per_point.append((pid, stat))
    if not per_point:
        raise ConfigError("all sampled centers starved in the subexp check")
    return SubexpReport(statistic=float(max(s for _, s in per_point)),
                        rows=rows, flagged=flagged)


@dataclass
class DeltaSetRate:
    delta_hat: float  # semilog slope of the violation fraction; -inf sentinel
    c_beta: float
    sup_phi: float
    clipped: bool
    rows: list  # (n, violations, samples, fraction)
    #: (sample, n) pairs whose next time lies beyond the scan horizon and
    #: that the horizon gap does not already count as violations
    censored: int


def _estimate_sup_phi(phi, sampler, seed: int):
    vals = np.abs(phi(sampler.sample(spawn_rng(seed, "supphi"),
                                     SUP_PHI_PROBES)))
    finite = vals[np.isfinite(vals)]
    p999 = float(np.percentile(finite, 99.9))
    raw_max = float(np.max(finite)) if finite.size else math.inf
    clipped = (finite.size < vals.size) or (raw_max > 1.01 * p999)
    return (p999 if clipped else raw_max), clipped


def delta_grid(n_grid) -> list:
    """The sorted ``[gibbs] delta_n_grid``, refused unless each n >= 1."""
    n_grid = sorted(int(v) for v in n_grid)
    if not n_grid or n_grid[0] < 1:
        raise ConfigError(f"[gibbs] delta_n_grid = {n_grid} needs >= 1 "
                          f"value, each >= 1")
    return n_grid


def delta_set_rate(m: MapSystem, params: HyperbolicParams, sampler,
                   beta: float, n_grid, samples: int, seed: int,
                   phi, workers: int = 1) -> DeltaSetRate:
    """Decay rate of the exceptional set via the hyperbolic-time surrogate.

    A sample violates at n when the gap between the consecutive hyperbolic
    times straddling n exceeds c_beta * n (no time at all counts as a
    violation); the semilog slope of the violation fraction over the grid
    is the reported rate, with a -inf sentinel when violations vanish.
    """
    n_grid = delta_grid(n_grid)
    sup_phi, clipped = _estimate_sup_phi(phi, sampler, seed)
    c_beta = beta / sup_phi
    grid = np.asarray(n_grid, dtype=np.int64)[:, None]
    horizon = gap_horizon(n_grid[-1])

    def job(pts):
        before, after = straddling_times(m, pts, params, n_grid)
        known, never = after > 0, before == 0
        gap = np.where(known, after - before, horizon)
        wide = gap > c_beta * grid
        censored = int(np.sum(~known & ~never & ~wide))
        return np.sum(never | wide, axis=1), censored

    parts = chunk_map(job, sampler, samples, seed, "delta", workers)
    viol = np.sum([v for v, _ in parts], axis=0)
    censored = sum(c for _, c in parts)
    frac = viol / samples
    rows = [(int(n), int(v), samples, float(f))
            for n, v, f in zip(n_grid, viol, frac)]
    pos = frac > 0
    if int(pos.sum()) < 2:
        return DeltaSetRate(delta_hat=float("-inf"), c_beta=c_beta,
                            sup_phi=sup_phi, clipped=clipped, rows=rows,
                            censored=censored)
    fit = ols_fit(np.asarray(n_grid, dtype=float)[pos], np.log(frac[pos]))
    return DeltaSetRate(delta_hat=fit.slope, c_beta=c_beta, sup_phi=sup_phi,
                        clipped=clipped, rows=rows, censored=censored)
