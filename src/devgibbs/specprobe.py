"""Specification probes: exactness times, shadowing search, gap statistics.

The exactness time of a radius is the number of iterates after which the
image of every probe ball covers the whole space, computed by exact
interval-image propagation through the branch structure.  Shadowing
points for chains of orbit pieces are found by backward cylinder
refinement: realize the last piece's constraint set as an interval
union, pull it back through the gap iterates along every branch,
intersect with the previous piece's stepwise ball constraints, and
recurse; any returned point is forward-verified before being handed out.
The sets, images and preimages are those of ``devgibbs.branching``.

Gap estimates compose two measured quantities: the exactness time at the
radius and the wait until the next hyperbolic time strictly beyond the
piece length.  Their ratio to the piece length is the statistic whose
smallness is the non-uniform specification property's numerical face.
``gap_estimate`` and ``nonuniform_spec_statistic`` read the next time
from ``hyperbolic.straddling_times``, which scans to ``gap_horizon`` of
the largest piece length; the statistic scans all its sampled points in
one batch, and each point leaves the scan at its first time past the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .branching import IntervalUnion
from .dynamics import MapSystem, orbit
from .errors import CapabilityError, ConfigError, HorizonError
from .hyperbolic import HyperbolicParams, gap_horizon, straddling_times
from .sampling import spawn_rng

@dataclass
class ExactnessResult:
    found: bool
    n: Optional[int]
    residual: float  # uncovered length at the cap when not found


def exactness_time(m: MapSystem, eps: float, probe_points: Sequence[float],
                   cap: int = 60) -> ExactnessResult:
    """Smallest N with f^N(ball) covering the space, maximized over probes."""
    if m.branches is None:
        raise CapabilityError(f"{m.label}: no branch structure")
    worst: Optional[int] = 0
    residual = 0.0
    for x in probe_points:
        u = m.branches.ball(float(x), eps)
        depth = None
        for n in range(cap + 1):
            if u.covers_chart():
                depth = n
                break
            u = m.branches.image(u)
        if depth is None:
            worst = None
            residual = max(residual,
                           (u.hi - u.lo) - u.total_length)
        elif worst is not None:
            worst = max(worst, depth)
    if worst is None:
        return ExactnessResult(found=False, n=None, residual=residual)
    return ExactnessResult(found=True, n=worst, residual=0.0)


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
                    pulled = br.preimage(pulled)
                except ConfigError as exc:
                    raise ConfigError(
                        f"shadowing at eps={eps}: {exc} at step {k + 1} of "
                        f"the gap of {gaps[i]} between pieces {i} and "
                        f"{i + 1}; lower that gap or raise eps") from exc
            cur = IntervalUnion(
                [seg for a, b in cur.segments
                 for seg in pulled.intersect(a, b).segments],
                cur.lo, cur.hi)
        for j in range(piece.n - 1, -1, -1):
            cur = br.preimage(cur)
            ball = br.ball(float(pts[j]), eps)
            cur = IntervalUnion(
                [seg for a, b in ball.segments
                 for seg in cur.intersect(a, b).segments],
                cur.lo, cur.hi)
        if cur.empty:
            return ShadowResult(found=False, z=None, verified=False,
                                failed_stage=i)
        future = cur

    a, b = future.largest_component()
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
    counted as censored, not silently dropped.
    """
    eps_grid = sorted(float(e) for e in eps_grid)
    n_grid = sorted(int(n) for n in n_grid)
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
            sup_table[(eps, n)] = float(vals.max(initial=0.0))
    censored = int(np.sum(np.any(after == 0, axis=0)))
    return GapReport(eps_grid=eps_grid, n_grid=n_grid, sup_table=sup_table,
                     exactness=exact,
                     headline=sup_table[(eps_grid[0], n_grid[-1])],
                     censored_fraction=censored / samples,
                     sampling=getattr(sampler, "label", "unknown"))
