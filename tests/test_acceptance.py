"""Acceptance suite: quantitative oracle checks on the benchmark systems.

Each test prints one line with the measured numbers so a verbose run
reads as a per-criterion pass/fail report.  Expected values come from
independent oracles computed in place: exact binomial tails, Bernoulli
free-energy closed forms, invariant-density quadrature, dyadic ball
lengths, and brute-force reference implementations.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sps

from devgibbs import deviation as dev
from devgibbs import gibbs, hyperbolic as hyp
from devgibbs import maps, metric, specprobe as sp
from devgibbs.config import parse_config
from devgibbs.dynamics import orbit
from devgibbs.metric import BallSpec
from devgibbs.observables import make_observable
from devgibbs.runner import run as run_experiment
from devgibbs.sampling import UniformSampler, spawn_rng
from helpers import constant, neg_log_deriv
from oracles import (OrbitPiece, dn_distance, maximal_separated_subset,
                     naive_is_hyperbolic_time, shadow_search)

CRAMER_I = math.log(2) - (-(0.7 * math.log(0.7) + 0.3 * math.log(0.3)))

#: the pinned seed of every ``seed=`` draw below, by what it draws;
#: ``seed_sweep.py`` shifts them all at once.  The fixed generators of
#: criteria 6 and 12 stay put.
SEEDS = {
    "deviation": 3,  # criteria 1 and 3
    "free_energy": 9,  # criteria 2 and 3
    "free_energy_spin": 10,  # criterion 2
    "entropy_doubling": 7,  # criterion 4
    "entropy_degree4": 8,
    "tail_mp": 11,  # criterion 5
    "tail_quadratic": 12,
    "ball_mass": 700,  # criterion 7, plus n
    "subexp": 11,
    "delta1": 21,  # criterion 8
    "accept8": 99,  # its instance stream
    "contraction": 1000,  # plus the instance number, as the next two
    "distortion_n": 2000,
    "distortion_2n": 3000,
    "spec": 3,  # criterion 9
    "delta_quadratic": 13,  # criterion 10
    "delta_mp": 14,
}


@pytest.fixture(scope="module")
def doubling_map():
    return maps.make_doubling()


@pytest.fixture(scope="module")
def quadratic_map():
    return maps.make_quadratic(2.0)


@pytest.fixture(scope="module")
def deviation_curve(doubling_map):
    g = make_observable("indicator_half", doubling_map)
    exp = dev.DeviationExperiment(
        map=doubling_map, g=g, c=0.7,
        sampler=UniformSampler(doubling_map.domain),
        n_grid=tuple(range(10, 31)), samples=1_000_000,
        seed=SEEDS["deviation"])
    t0 = time.time()
    curve = dev.rate_curve(exp)
    return curve, time.time() - t0


def test_criterion_01_deviation_oracle(deviation_curve):
    curve, elapsed = deviation_curve
    exact = np.array([sps.binom.sf(math.ceil(0.7 * n) - 1, n, 0.5)
                      for n in curve.n])
    covered = [(curve.ci_low[i] <= exact[i] <= curve.ci_high[i])
               for i in range(len(curve.n))]
    fit = dev.rate_estimate(curve, (14, 30))
    print(f"\n[criterion 1] CI coverage {sum(covered)}/{len(covered)}, "
          f"rate {fit.slope:.5f} vs -{CRAMER_I:.5f} +- 0.02, "
          f"runtime {elapsed:.1f}s")
    assert all(covered), f"rows outside CI: {np.nonzero(~np.array(covered))}"
    assert abs(fit.slope - (-CRAMER_I)) <= 0.02
    assert elapsed <= 120.0


def test_criterion_02_legendre_oracle(doubling_map):
    samp = UniformSampler(doubling_map.domain)
    g = make_observable("indicator_half", doubling_map)
    t_grid = [round(-1.0 + 0.05 * k, 2) for k in range(61)]
    ts, psi = dev.free_energy_table(doubling_map, samp, g, t_grid, 12,
                                    400_000, seed=SEEDS["free_energy"])
    leg = dev.legendre_rate(ts, psi, 0.7)
    leg_mean = dev.legendre_rate(ts, psi, 0.5)
    spin = make_observable("spin_half", doubling_map)
    psi_spin = dev.free_energy_table(doubling_map, samp, spin, [1.0], 10,
                                     1_000_000,
                                     seed=SEEDS["free_energy_spin"])[1][0]
    print(f"\n[criterion 2] I(0.7)={leg.value:.5f} (target {CRAMER_I:.5f}"
          f" +- 0.01), I(mean)={leg_mean.value:.6f} (0 +- 0.005), "
          f"psi_spin(1)={psi_spin:.5f} (target {math.log(math.cosh(1)):.5f}"
          f" +- 0.005)")
    assert abs(leg.value - CRAMER_I) <= 0.01
    assert not leg.boundary
    assert abs(leg_mean.value) <= 0.005
    assert abs(psi_spin - math.log(math.cosh(1.0))) <= 0.005


def test_criterion_03_bound_report(deviation_curve, doubling_map):
    curve, _ = deviation_curve
    fit = dev.rate_estimate(curve, (14, 30))
    samp = UniformSampler(doubling_map.domain)
    g = make_observable("indicator_half", doubling_map)
    ts, psi = dev.free_energy_table(
        doubling_map, samp, g, [round(-1.0 + 0.05 * k, 2) for k in range(61)],
        12, 400_000, seed=SEEDS["free_energy"])
    leg = dev.legendre_rate(ts, psi, 0.7)
    rep = dev.bound_report(fit.slope, float("-inf"), leg.value, slack=0.02,
                           discontinuous_g=True)
    print(f"\n[criterion 3] measured {rep.measured_rate:.5f} <= "
          f"max(-inf, {rep.legendre_rate:.5f}) + 0.02: {rep.upper_ok}; "
          f">= {rep.legendre_rate:.5f} - 0.02: {rep.lower_ok}")
    assert rep.upper_ok and rep.lower_ok
    assert not rep.uninformative_upper


def test_criterion_04_katok_entropy(doubling_map):
    t0 = time.time()
    est2 = metric.katok_entropy(
        doubling_map, UniformSampler(doubling_map.domain),
        [3, 4, 5, 6, 7, 8, 9], [0.2, 0.1, 0.05], 0.1, 200_000,
        seed=SEEDS["entropy_doubling"])
    p4 = maps.make_perturbed_expanding(4, 0.0)
    est4 = metric.katok_entropy(
        p4, UniformSampler(p4.domain), [2, 3, 4], [0.2, 0.1, 0.05], 0.1,
        200_000, seed=SEEDS["entropy_degree4"])
    elapsed = time.time() - t0
    print(f"\n[criterion 4] doubling {est2.entropy:.4f} vs log2="
          f"{math.log(2):.4f}; degree-4 {est4.entropy:.4f} vs log4="
          f"{math.log(4):.4f}; runtime {elapsed:.0f}s")
    assert abs(est2.entropy / math.log(2) - 1.0) <= 0.05
    assert abs(est4.entropy / math.log(4) - 1.0) <= 0.05
    assert elapsed <= 300.0


def test_criterion_05_first_time_tails(quadratic_map):
    t0 = time.time()
    mp = maps.make_mp(0.5)
    pmp = hyp.HyperbolicParams(1.2, 0.1, 0.25, 1000)
    tc_mp = hyp.tail_curve(mp, UniformSampler(mp.domain), pmp, 100_000,
                           seed=SEEDS["tail_mp"])
    fit_mp = hyp.classify_tail(tc_mp, window=(100, 1000))
    pq = hyp.default_params(quadratic_map, n_max=400)
    tc_q = hyp.tail_curve(quadratic_map, UniformSampler(quadratic_map.domain),
                          pq, 100_000, seed=SEEDS["tail_quadratic"])
    fit_q = hyp.classify_tail(tc_q, window=(10, int(tc_q.n[-1])))
    elapsed = time.time() - t0
    print(f"\n[criterion 5] MP loglog slope {fit_mp.exponent:.3f} "
          f"(-1.0 +- 0.3), residuals loglog {fit_mp.loglog_residual:.3f} < "
          f"semilog {fit_mp.semilog_residual:.3f}; quadratic semilog "
          f"{fit_q.rate:.4f} < -0.01, residuals semilog "
          f"{fit_q.semilog_residual:.3f} < loglog {fit_q.loglog_residual:.3f};"
          f" runtime {elapsed:.0f}s")
    assert abs(fit_mp.exponent - (-1.0)) <= 0.3
    assert fit_mp.loglog_residual < fit_mp.semilog_residual
    assert fit_q.rate < -0.01
    assert fit_q.semilog_residual < fit_q.loglog_residual
    assert elapsed <= 600.0


def test_criterion_06_lyapunov_oracle(quadratic_map):
    # independent oracle: quadrature of log|f'| against the a=2 invariant
    # density 1/(pi sqrt(1 - x^2))
    oracle, err = integrate.quad(
        lambda x: math.log(4 * abs(x)) / (math.pi * math.sqrt(1 - x * x)),
        -1, 1, points=[0], limit=200)
    assert err < 1e-8
    rng = spawn_rng(31, "lyapunov")
    pts = quadratic_map.domain.sample(rng, 1000)
    n = 100_000
    cur = pts.copy()
    total = np.zeros_like(cur)
    for _ in range(n):
        total += np.log(np.abs(quadratic_map.deriv(cur)))
        cur = quadratic_map.domain.clamp(quadratic_map.step(cur))
    mean = float(np.mean(total / n))
    print(f"\n[criterion 6] Birkhoff mean {mean:.5f} vs quadrature "
          f"{oracle:.5f} (tol 2%)")
    assert abs(mean / oracle - 1.0) <= 0.02


def test_criterion_07_weak_gibbs_sandwich(doubling_map):
    samp = UniformSampler(doubling_map.domain)
    pot = constant(-math.log(2))
    eps = 2.0 ** -6
    band = (2 * eps * 0.9, 2 * eps * 1.1)
    strict, consistent, starved = [], [], []
    for n in range(1, 21):
        est = gibbs.ball_measure(doubling_map, samp, BallSpec(0.37, n, eps),
                                 1_000_000, seed=SEEDS["ball_mass"] + n)
        ratio = est.mass * 2.0 ** n
        ci = (est.ci_low * 2.0 ** n, est.ci_high * 2.0 ** n)
        if est.starved:
            starved.append(n)
        elif est.hits >= 450:  # sampling noise below ~5%: the band binds
            strict.append((n, ratio))
        else:
            consistent.append((n, ci))
    rep = gibbs.subexp_check(doubling_map, pot, samp, [4, 10], eps,
                             1_000_000, seed=SEEDS["subexp"], n_points=12)
    print(f"\n[criterion 7] strict rows {[n for n, _ in strict]}, "
          f"CI-consistent rows {[n for n, _ in consistent]}, starved "
          f"{starved}; subexp statistic {rep.statistic:.4f} <= 0.02")
    assert len(strict) >= 6
    for n, ratio in strict:
        assert band[0] <= ratio <= band[1], f"row n={n} ratio {ratio}"
    for n, ci in consistent:
        assert ci[1] >= band[0] and ci[0] <= band[1], f"row n={n} ci {ci}"
    assert rep.statistic <= 0.02


def test_criterion_08_contraction_distortion(quadratic_map):
    params = hyp.default_params(quadratic_map, n_max=100)
    d1 = metric.calibrate_delta1(quadratic_map, params, seed=SEEDS["delta1"])
    rng = spawn_rng(SEEDS["accept8"], "accept8")
    instances = []
    while len(instances) < 100:
        x = float(quadratic_map.domain.sample(rng, 1)[0])
        rec = hyp.hyperbolic_times(quadratic_map, x, params)
        cand = [t for t in rec.times if 8 <= t <= 16]
        if cand:
            instances.append((x, int(cand[len(cand) // 2])))
    fracs, worst = [], 0.0
    for i, (x, n) in enumerate(instances):
        rep = metric.backward_contraction_check(quadratic_map, x, n, params,
                                                pairs=1000, delta1=d1,
                                                seed=SEEDS["contraction"] + i)
        fracs.append(rep.pass_fraction)
        worst = max(worst, rep.worst_ratio)
    pooled = float(np.mean(fracs))

    pot = neg_log_deriv(quadratic_map)
    d1_dist = min(d1, params.delta / 4.0)
    ratios = []
    for i, (x, n) in enumerate(instances):
        deep = hyp.hyperbolic_times(
            quadratic_map, x,
            hyp.HyperbolicParams(params.sigma, params.delta, params.b, 3 * n))
        twos = [t for t in deep.times if 1.8 * n <= t <= 2.2 * n]
        if not twos:
            continue
        k1 = metric.distortion_estimate(quadratic_map, pot, x, n, 1000,
                                        d1_dist,
                                        seed=SEEDS["distortion_n"] + i)
        k2 = metric.distortion_estimate(quadratic_map, pot, x, int(twos[0]),
                                        1000, d1_dist,
                                        seed=SEEDS["distortion_2n"] + i)
        ratios.append(max(k1 / k2, k2 / k1))
    print(f"\n[criterion 8] contraction delta1={d1}, pooled pass "
          f"{pooled:.5f} (>= 0.99), min {min(fracs):.5f}, worst ratio "
          f"{worst:.3f}; distortion ratios n vs 2n: max "
          f"{max(ratios):.4f} < 1.1 over {len(ratios)} instances")
    assert pooled >= 0.99
    assert min(fracs) >= 0.99
    assert len(ratios) >= 80
    assert max(ratios) < 1.1


def test_criterion_09_specification_probes(doubling_map):
    probes = np.linspace(0.03, 0.97, 11)
    res = sp.exactness_time(doubling_map, 1 / 64, probes)
    sr = shadow_search(doubling_map,
                       [OrbitPiece(0.123, 5), OrbitPiece(0.777, 5)],
                       1 / 64, [6])
    pdbl = hyp.default_params(doubling_map, n_max=1600)
    rep_dbl = sp.nonuniform_spec_statistic(
        doubling_map, UniformSampler(doubling_map.domain), [1 / 64],
        [100, 1000], pdbl, samples=100, seed=SEEDS["spec"])
    pe = maps.make_perturbed_expanding(4, 0.55)
    ppe = hyp.default_params(pe, n_max=1600)
    rep_pe = sp.nonuniform_spec_statistic(
        pe, UniformSampler(pe.domain), [1 / 64], [100, 1000], ppe,
        samples=100, seed=SEEDS["spec"])
    print(f"\n[criterion 9] exactness N(1/64)={res.n} (=5); shadow found="
          f"{sr.found} verified={sr.verified}; headlines doubling "
          f"{rep_dbl.headline:.4f} <= 0.01, perturbed {rep_pe.headline:.4f}"
          f" <= 0.05")
    assert res.found and res.n == 5
    assert sr.found and sr.verified
    assert rep_dbl.headline <= 0.01
    assert rep_pe.headline <= 0.05


def test_criterion_10_delta_rate_signs(quadratic_map):
    pot_q = neg_log_deriv(quadratic_map)
    pq = hyp.default_params(quadratic_map, n_max=200)
    dr_q = gibbs.delta_set_rate(quadratic_map, pq,
                                UniformSampler(quadratic_map.domain),
                                beta=1.0, n_grid=[200, 350, 500, 650],
                                samples=60_000, seed=SEEDS["delta_quadratic"],
                                phi=pot_q)
    mp = maps.make_mp(0.5)
    pot_mp = neg_log_deriv(mp)
    pmp = hyp.default_params(mp, n_max=200)
    dr_mp = gibbs.delta_set_rate(mp, pmp, UniformSampler(mp.domain),
                                 beta=0.2, n_grid=[100, 200, 300, 400],
                                 samples=50_000, seed=SEEDS["delta_mp"],
                                 phi=pot_mp)
    print(f"\n[criterion 10] quadratic delta-hat {dr_q.delta_hat:.4f} < "
          f"-0.005; MP delta-hat {dr_mp.delta_hat:.5f}, |.| <= 0.01")
    assert dr_q.delta_hat < -0.005
    assert abs(dr_mp.delta_hat) <= 0.01
    # sign-category agreement with the tail classification: exponential
    # family strictly negative, polynomial family within the zero band
    assert abs(dr_mp.delta_hat) <= 0.005


def test_criterion_11_determinism(tmp_path):
    from importlib import resources
    text = (resources.files("devgibbs") / "configs"
            / "deviation_doubling.cfg").read_text()
    digests = []
    for tag, workers in (("w1", 1), ("w2", 2)):
        cfg = parse_config(text)
        manifest = run_experiment(cfg, out_dir=str(tmp_path / tag),
                                  workers=workers)
        digests.append({k: v for k, v in manifest.files.items()
                        if not k.endswith(".svg")})
    print(f"\n[criterion 11] workers 1 vs 2 checksums equal: "
          f"{digests[0] == digests[1]} ({sorted(digests[0])})")
    assert digests[0] == digests[1]


def test_criterion_12_oracle_equivalence(doubling_map, quadratic_map):
    mp = maps.make_mp(0.5)
    cases = [(doubling_map, hyp.HyperbolicParams(1.4, 0.1, 0.25, 220)),
             (quadratic_map, hyp.default_params(quadratic_map, n_max=220)),
             (mp, hyp.HyperbolicParams(1.2, 0.1, 0.25, 220))]
    rng = np.random.default_rng(77)
    mismatches = 0
    for trial in range(1000):
        m, p = cases[int(rng.integers(0, len(cases)))]
        if hasattr(m.domain, "lo"):
            x = float(m.domain.lo + (m.domain.hi - m.domain.lo)
                      * rng.random())
        else:
            x = float(rng.random())
        n = int(rng.integers(1, 201))
        try:
            a = hyp.is_hyperbolic_time(m, x, n, p)
            b = naive_is_hyperbolic_time(m, x, n, p)
        except Exception:
            continue
        if a != b:
            mismatches += 1

    rng2 = spawn_rng(5, "sepcheck")
    sep_ok = True
    for _ in range(10):
        cands = rng2.random(120)
        n, eps = int(rng2.integers(2, 6)), float(2.0 ** -rng2.integers(2, 6))
        ss = maximal_separated_subset(doubling_map, cands, n, eps)
        for i in range(len(ss.members)):
            for j in range(i + 1, len(ss.members)):
                if dn_distance(doubling_map, ss.members[i],
                               ss.members[j], n) <= eps:
                    sep_ok = False

    v = maps.make_viana(16, 2.0, 0.0)
    rng3 = np.random.default_rng(13)
    bitwise = True
    for _ in range(10):
        x0 = float(2 * rng3.random() - 1)
        th0 = float(rng3.random())
        fiber = orbit(v, np.array([th0, x0]), 400)[:, 1]
        quad = orbit(quadratic_map, x0, 400)
        if not np.array_equal(fiber, quad):
            bitwise = False
    print(f"\n[criterion 12] detector mismatches {mismatches}/1000; "
          f"separated sets brute-force ok: {sep_ok}; viana fiber bitwise: "
          f"{bitwise}")
    assert mismatches == 0
    assert sep_ok
    assert bitwise
