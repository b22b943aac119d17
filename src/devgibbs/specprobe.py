"""Specification probes: exactness times and the gap statistic.

The exactness time of a radius is the number of iterates after which the
image of every probe ball covers the whole space.  The balls about all
probes are imaged together, one step at a time, as the range sets of
``devgibbs.branching``, and each probe leaves at its first covering
step.

The gap statistic composes two measured quantities: the exactness time
at the radius and the wait until the next hyperbolic time strictly
beyond the piece length.  Their ratio to the piece length is the
statistic whose smallness is the non-uniform specification property's
numerical face.  ``nonuniform_spec_statistic`` reads the next time from
``hyperbolic.straddling_times``, which scans to ``gap_horizon`` of the
largest piece length; it scans all its sampled points in one batch, and
each point leaves the scan at its first time past the grid.  A grid cell
in which every sampled point is censored, with no next time within the
horizon, reads ``inf``.  The shadowing search and the pointwise gap
estimate, which only the tests run, are in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .branching import COVER_TOL, join
from .dynamics import MapSystem
from .errors import CapabilityError, ConfigError, HorizonError
from .hyperbolic import HyperbolicParams, straddling_times
from .sampling import spawn_rng


@dataclass
class ExactnessResult:
    found: bool
    n: Optional[int]
    residual: float  # uncovered length at the cap when not found


def exactness_time(m: MapSystem, eps: float, probe_points: Sequence[float],
                   cap: int = 60) -> ExactnessResult:
    """Smallest N with f^N(ball) covering the space, maximized over probes.

    The balls about all probes are imaged together, as ranges, and each
    probe retires at its first covering step.  Without one within
    ``cap`` steps, ``residual`` is the largest uncovered length of
    f^cap(ball).
    """
    if m.branches is None:
        raise CapabilityError(f"{m.label}: no branch structure")
    if cap < 0:
        raise ValueError(f"exactness cap {cap} must be >= 0")
    br = m.branches
    width = m.domain.hi - m.domain.lo if hasattr(m.domain, "lo") else 1.0
    own, lo, hi = br.ball(np.asarray(probe_points, dtype=float), eps)
    worst = 0
    for n in range(cap + 1):
        if n:
            own, lo, hi = br.image(own, lo, hi)
        own, lo, hi = join(own, lo, hi, f"f^n(B(x, eps={eps})) at n={n}")
        length = np.bincount(own, hi - lo)
        covered = length >= width - COVER_TOL
        if covered.any():
            worst = n
            live = ~covered[own]
            own, lo, hi = own[live], lo[live], hi[live]
        if not own.size:
            return ExactnessResult(found=True, n=worst, residual=0.0)
    return ExactnessResult(found=False, n=None,
                           residual=float(np.max(width - length[own])))


@dataclass
class GapReport:
    eps_grid: list
    n_grid: list
    sup_table: dict  # (eps, n) -> sup over samples of p_hat / n
    exactness: dict  # eps -> exactness time over the probes
    headline: float  # smallest eps, largest n cell
    censored_fraction: float
    sampling: str


def nonuniform_spec_statistic(m: MapSystem, sampler, eps_grid, n_grid,
                              params: HyperbolicParams, samples: int,
                              seed: int, probe_count: int = 12,
                              cap: int = 60) -> GapReport:
    """sup over sampled points of p-hat/n per grid cell.

    All sampled points are scanned in one batch.  Horizon failures are
    counted as censored, not silently dropped; a cell with no uncensored
    point reads ``inf``.
    """
    eps_grid = sorted(float(e) for e in eps_grid)
    n_grid = sorted(int(n) for n in n_grid)
    if not eps_grid or eps_grid[0] <= 0:
        raise ConfigError(f"[spec] eps_grid = {eps_grid} needs >= 1 value, "
                          f"each > 0")
    if not n_grid or n_grid[0] < 1:
        raise ConfigError(f"[spec] n_grid = {n_grid} needs >= 1 value, "
                          f"each >= 1")
    rng = spawn_rng(seed, "gapstat")
    probes = m.domain.sample(rng, probe_count)
    exact = {}
    for eps in eps_grid:
        res = exactness_time(m, eps, probes, cap=cap)
        if not res.found:
            raise HorizonError(f"exactness cap {cap} exceeded at eps={eps}")
        exact[eps] = res.n
    pts = sampler.sample(spawn_rng(seed, "gapstat-pts"), samples)
    _, after = straddling_times(m, pts, params, n_grid)
    sup_table = {}
    for n, row in zip(n_grid, after):
        lag = row[row > 0] - n
        for eps in eps_grid:
            vals = (exact[eps] + lag) / n
            sup_table[(eps, n)] = float(vals.max()) if lag.size else math.inf
    censored = int(np.sum(np.any(after == 0, axis=0)))
    return GapReport(eps_grid=eps_grid, n_grid=n_grid, sup_table=sup_table,
                     exactness=exact,
                     headline=sup_table[(eps_grid[0], n_grid[-1])],
                     censored_fraction=censored / samples,
                     sampling=getattr(sampler, "label", "unknown"))
