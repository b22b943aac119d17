import numpy as np
import pytest

from devgibbs import hyperbolic as hyp
from devgibbs import maps, specprobe as sp
from devgibbs.branching import IntervalUnion
from devgibbs.errors import CapabilityError, ConfigError, HorizonError
from devgibbs.sampling import UniformSampler, spawn_rng
from oracles import OrbitPiece, gap_estimate, intersect, shadow_search


PROBES = np.linspace(0.03, 0.97, 11)


def test_interval_union_merge():
    u = IntervalUnion([(0.1, 0.2), (0.2, 0.3), (0.5, 0.6)], 0.0, 1.0)
    assert u.segments == [(0.1, 0.3), (0.5, 0.6)]
    assert u.total_length == pytest.approx(0.3)


def test_interval_union_intersect_and_cover():
    u = IntervalUnion([(0.0, 1.0)], 0.0, 1.0)
    assert u.covers_chart()
    v = intersect(u, 0.2, 0.4)
    assert v.segments == [(0.2, 0.4)]
    assert not v.covers_chart()


def test_exactness_doubling(doubling):
    res = sp.exactness_time(doubling, 1 / 64, PROBES)
    assert res.found and res.n == 5  # 2 eps 2^N >= 1 at N = 5


def test_exactness_large_ball(doubling):
    res = sp.exactness_time(doubling, 0.5, PROBES)
    assert res.found and res.n == 0


def test_exactness_perturbed(pe4):
    res = sp.exactness_time(pe4, 1 / 64, PROBES)
    assert res.found
    # the slow channel delays covering past the affine count of 5
    assert res.n == 10  # frozen from interval propagation


def test_exactness_monotone_in_eps(doubling):
    ns = [sp.exactness_time(doubling, e, PROBES).n
          for e in (1 / 8, 1 / 16, 1 / 32, 1 / 64)]
    assert ns == sorted(ns)


def test_exactness_cap(doubling):
    res = sp.exactness_time(doubling, 1e-9, PROBES, cap=3)
    assert not res.found
    assert res.residual > 0


def test_shadow_single_piece(doubling):
    res = shadow_search(doubling, [OrbitPiece(0.3, 4)], 1 / 64, [])
    assert res.found and res.verified
    assert abs(res.z - 0.3) <= 1 / 64


def test_shadow_two_pieces_doubling(doubling):
    res = shadow_search(doubling,
                        [OrbitPiece(0.123, 5), OrbitPiece(0.777, 5)],
                        1 / 64, [6])
    assert res.found and res.verified


def test_shadow_incompatible_cylinders(doubling):
    res = shadow_search(doubling,
                        [OrbitPiece(0.1, 5), OrbitPiece(0.9, 5)],
                        1 / 64, [0])
    assert not res.found
    assert res.failed_stage == 0


def test_shadow_needs_branches(viana):
    with pytest.raises(CapabilityError):
        shadow_search(viana, [OrbitPiece(np.array([0.1, 0.2]), 3)],
                      0.05, [])


def test_shadow_budget_limits(doubling):
    with pytest.raises(ConfigError):
        shadow_search(doubling, [OrbitPiece(0.1, 600),
                                 OrbitPiece(0.2, 600)], 0.05, [5])


def test_shadow_component_cap_names_eps_and_gap(doubling):
    # 2^14 preimage arcs of the second piece's set exceed the cap
    with pytest.raises(ConfigError, match=r"eps=0\.015625.*step 14 of the "
                                          r"gap of 14.*lower that gap"):
        shadow_search(doubling,
                      [OrbitPiece(0.1, 3), OrbitPiece(0.2, 3)],
                      1 / 64, [14])


def test_shadow_quadratic_pieces():
    q = maps.make_quadratic(2.0)
    res = shadow_search(q, [OrbitPiece(0.3, 3), OrbitPiece(-0.4, 3)],
                        0.05, [8])
    assert res.found and res.verified


def test_gap_estimate_doubling(doubling):
    params = hyp.default_params(doubling, n_max=1100)
    ge = gap_estimate(doubling, 0.37, 1000, 1 / 64, params, exactness=5)
    assert ge.p_hat == 6
    assert ge.lag == 1  # next-strict convention
    # composition identity: p_hat - exactness equals the measured lag
    assert ge.p_hat - ge.exactness == ge.lag


def test_gap_estimate_horizon_error(mp):
    params = hyp.HyperbolicParams(1.2, 0.1, 0.25, 40)
    with pytest.raises(HorizonError):
        gap_estimate(mp, 1e-8, 30, 0.05, params, exactness=3)


def test_gap_estimate_searches_to_gap_horizon(doubling, mp):
    # the horizon is gap_horizon(n), whatever n_max the parameters carry
    with pytest.raises(HorizonError, match=r"gap_horizon\(30\) = 95"):
        gap_estimate(mp, 1e-8, 30, 0.05,
                     hyp.HyperbolicParams(1.2, 0.1, 0.25, 1000),
                     exactness=3)
    ge = gap_estimate(doubling, 0.37, 300, 1 / 64,
                      hyp.default_params(doubling, n_max=5), exactness=5)
    assert (ge.next_time, ge.p_hat) == (301, 6)


def test_nonuniform_statistic_doubling(doubling):
    params = hyp.default_params(doubling, n_max=1100)
    rep = sp.nonuniform_spec_statistic(doubling,
                                       UniformSampler(doubling.domain),
                                       [1 / 64], [100, 1000], params,
                                       samples=40, seed=3)
    assert rep.headline == pytest.approx(6 / 1000)
    assert rep.censored_fraction == 0.0


def test_gap_estimate_shadow_verified(doubling):
    params = hyp.default_params(doubling, n_max=1100)
    ge = gap_estimate(doubling, 0.37, 40, 1 / 64, params, exactness=5,
                      verify=5, seed=2)
    assert ge.verified_fraction == 1.0


@pytest.mark.parametrize("sigma", [1.4, 2.3])  # at 2.3, 9 of 12 are censored
def test_nonuniform_statistic_matches_per_point_scans(pe4, sigma):
    eps_grid, n_grid, samples, seed = [1 / 64, 1 / 16], [50, 100, 400], 12, 5
    params = hyp.HyperbolicParams(sigma, 0.1, 0.25, 100)
    rep = sp.nonuniform_spec_statistic(pe4, UniformSampler(pe4.domain),
                                       eps_grid, n_grid, params,
                                       samples=samples, seed=seed)
    # reference: one hyperbolic_times scan per sampled point
    probes = pe4.domain.sample(spawn_rng(seed, "gapstat"), 12)
    exact = {eps: sp.exactness_time(pe4, eps, probes).n for eps in eps_grid}
    scan = hyp.HyperbolicParams(params.sigma, params.delta, params.b,
                                int(n_grid[-1] * 1.5) + 50)
    sup = {(eps, n): 0.0 for eps in eps_grid for n in n_grid}
    censored = 0
    for x in pe4.domain.sample(spawn_rng(seed, "gapstat-pts"), samples):
        times = hyp.hyperbolic_times(pe4, x, scan).times
        after = [[int(t) for t in times if t > n] for n in n_grid]
        censored += any(not a for a in after)
        for n, a in zip(n_grid, after):
            for eps in eps_grid:
                if a:
                    sup[eps, n] = max(sup[eps, n], (exact[eps] + a[0] - n) / n)
    assert rep.exactness == exact
    assert rep.sup_table == sup
    assert rep.headline == sup[eps_grid[0], n_grid[-1]]
    assert rep.censored_fraction == censored / samples
