import math
from dataclasses import replace

import numpy as np
import pytest

from devgibbs import gibbs, hyperbolic as hyp, maps
from devgibbs.domain import Interval
from devgibbs.metric import BallSpec
from devgibbs.sampling import UniformSampler, sample_chunks
from helpers import all_times, constant, neg_log_deriv


def log2_potential():
    return constant(-math.log(2))


def test_ball_measure_whole_space(doubling):
    est = gibbs.ball_measure(doubling, UniformSampler(doubling.domain),
                             BallSpec(0.3, 3, 0.6), 5000, seed=1)
    assert est.mass == 1.0


def test_ball_measure_plain_arc(doubling):
    est = gibbs.ball_measure(doubling, UniformSampler(doubling.domain),
                             BallSpec(0.3, 0, 0.1), 100000, seed=2)
    assert est.mass == pytest.approx(0.2, abs=0.01)


def test_ball_measure_dyadic_oracle(doubling):
    est = gibbs.ball_measure(doubling, UniformSampler(doubling.domain),
                             BallSpec(0.37, 5, 0.05), 1000000, seed=3)
    oracle = 2 * 0.05 * 2 ** -5
    assert est.ci_low <= oracle <= est.ci_high
    assert not est.starved


def test_ball_measure_starvation_flag(doubling):
    est = gibbs.ball_measure(doubling, UniformSampler(doubling.domain),
                             BallSpec(0.37, 18, 2 ** -6), 100000, seed=4)
    assert est.starved


def test_ball_measure_is_worker_invariant(quadratic):
    # three sample chunks (the last partial) through the pool: the hit
    # count and the mass do not depend on the worker count
    samp = UniformSampler(quadratic.domain)
    spec = BallSpec(0.3, 4, 0.1)
    one, two = (gibbs.ball_measure(quadratic, samp, spec, 150_000, seed=5,
                                   workers=w) for w in (1, 2))
    assert one.hits > 0 and one.samples == 150_000
    assert one == two


def test_gibbs_constant_doubling(doubling):
    pot = log2_potential()
    est = gibbs.ball_measure(doubling, UniformSampler(doubling.domain),
                             BallSpec(0.37, 5, 0.05), 1000000, seed=5)
    gc = gibbs.gibbs_constant(doubling, pot, 0.37, 5, est.mass)
    assert gc.ratio == pytest.approx(2 * 0.05, rel=0.05)
    assert gc.k_hat == pytest.approx(1 / (2 * 0.05), rel=0.05)
    assert gc.k_hat >= 1.0


def test_gibbs_constant_stable_in_depth(doubling):
    pot = log2_potential()
    ks = []
    for n in (3, 6, 9):
        est = gibbs.ball_measure(doubling, UniformSampler(doubling.domain),
                                 BallSpec(0.37, n, 0.05), 1000000,
                                 seed=100 + n)
        ks.append(gibbs.gibbs_constant(doubling, pot, 0.37, n,
                                       est.mass).k_hat)
    assert max(ks) / min(ks) <= 1.1


def test_gibbs_constant_zero_mass_flag(doubling):
    gc = gibbs.gibbs_constant(doubling, log2_potential(), 0.3, 5, 0.0)
    assert gc.undefined and math.isinf(gc.k_hat)


def test_exact_gibbs_synthetic_subexp():
    # tripling map with constant Jacobian: exactly Gibbs, statistic ~ 0
    m = maps.make_perturbed_expanding(3, 0.0)
    pot = constant(-math.log(3))
    rep = gibbs.subexp_check(m, pot, UniformSampler(m.domain), [2, 6],
                             eps=2 ** -3, samples=1000000, seed=6, n_points=6)
    assert abs(rep.statistic) <= 0.05
    assert rep.flagged == 0


def test_subexp_needs_two_depths(doubling):
    with pytest.raises(Exception):
        gibbs.subexp_check(doubling, log2_potential(),
                           UniformSampler(doubling.domain), [5],
                           eps=0.05, samples=10000, seed=1)


def test_delta_set_rate_doubling_sentinel(doubling):
    params = hyp.default_params(doubling, n_max=100)
    dr = gibbs.delta_set_rate(doubling, params,
                              UniformSampler(doubling.domain), beta=0.7,
                              n_grid=[10, 20, 40], samples=5000, seed=7,
                              phi=log2_potential())
    assert dr.delta_hat == float("-inf")
    assert all(r[1] == 0 for r in dr.rows)


def test_delta_set_rate_sup_phi_clipping(quadratic):
    params = hyp.default_params(quadratic, n_max=100)
    pot = neg_log_deriv(quadratic)
    dr = gibbs.delta_set_rate(quadratic, params,
                              UniformSampler(quadratic.domain), beta=0.5,
                              n_grid=[20, 40, 80], samples=4000, seed=8,
                              phi=pot)
    assert dr.clipped  # the potential is unbounded near the critical point
    assert np.isfinite(dr.sup_phi)


def _reference_delta_rows(m, params, n_grid, samples, seed, c_beta):
    """Violation rows and censored count from full scans to the horizon."""
    horizon = int(n_grid[-1] * 1.5) + 50
    viol, cens = [0] * len(n_grid), 0
    for _, pts in sample_chunks(UniformSampler(m.domain), samples, seed,
                                "delta"):
        full = all_times(m, pts, replace(params, n_max=horizon))
        for times in full:
            for gi, gn in enumerate(n_grid):
                before, after = times[times <= gn], times[times > gn]
                if not len(before):
                    viol[gi] += 1
                    continue
                gap = after[0] - before[-1] if len(after) else horizon
                viol[gi] += bool(gap > c_beta * gn)
                cens += not len(after) and not gap > c_beta * gn
    rows = [(n, v, samples, v / samples) for n, v in zip(n_grid, viol)]
    return rows, cens


@pytest.mark.parametrize("family,beta,n_grid", [
    ("quadratic", 0.5, [20, 40, 60]),
    ("manneville_pomeau", 3.0, [15, 30, 45]),  # 17 samples censored
])
def test_delta_set_rate_matches_full_scans(family, beta, n_grid):
    m = maps.make_family(family)
    params = hyp.default_params(m, n_max=100)
    pot = neg_log_deriv(m)
    dr = gibbs.delta_set_rate(m, params, UniformSampler(m.domain), beta,
                              n_grid, samples=3000, seed=3, phi=pot)
    rows, cens = _reference_delta_rows(m, params, n_grid, 3000, 3, dr.c_beta)
    assert dr.rows == rows
    assert dr.censored == cens
    assert any(0 < r[1] < 3000 for r in rows)


def test_delta_set_rate_is_worker_invariant(quadratic):
    # three sample chunks (the last partial) through the pool
    params = hyp.default_params(quadratic, n_max=100)
    pot = neg_log_deriv(quadratic)
    one, two = (gibbs.delta_set_rate(quadratic, params,
                                     UniformSampler(quadratic.domain),
                                     beta=0.5, n_grid=[10, 20, 30],
                                     samples=140_000, seed=6, phi=pot,
                                     workers=w) for w in (1, 2))
    assert any(0 < r[1] < 140_000 for r in one.rows)
    assert one == two


def test_ball_mass_nondecreasing_in_eps(doubling):
    masses = []
    for eps in (0.02, 0.05, 0.1):
        est = gibbs.ball_measure(doubling, UniformSampler(doubling.domain),
                                 BallSpec(0.37, 4, eps), 200000,
                                 seed=9)
        masses.append(est.mass)
    assert masses[0] <= masses[1] <= masses[2]

