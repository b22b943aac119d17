import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from devgibbs import deviation as dev
from devgibbs import maps
from devgibbs.errors import ConfigError, EvaluationError, RangeError
from devgibbs.observables import make_observable
from devgibbs.sampling import (CHUNK, EmpiricalSampler, UniformSampler,
                               sample_chunks)
from helpers import combined_se, constant, with_out


def experiment(m, g, c, n_grid, samples=2000, seed=1, direction="ge"):
    return dev.DeviationExperiment(map=m, g=g, c=c,
                                   sampler=UniformSampler(m.domain),
                                   n_grid=tuple(n_grid), samples=samples,
                                   seed=seed, direction=direction)


def probability(exp, n):
    """p-hat, Wilson interval, hits and samples of the one-row curve at n."""
    row = dev.rate_curve(replace(exp, n_grid=(n,)))
    return (float(row.p_hat[0]), (float(row.ci_low[0]), float(row.ci_high[0])),
            int(row.hits[0]), int(row.samples[0]))


def test_experiment_validation(doubling):
    g = make_observable("indicator_half", doubling)
    with pytest.raises(ConfigError):
        experiment(doubling, g, 0.7, [10, 10])
    with pytest.raises(ConfigError):
        experiment(doubling, g, 0.7, [10, 20], samples=10)
    with pytest.raises(ConfigError):
        experiment(doubling, g, 0.7, [10], direction="above")


def test_probability_sure_event(doubling):
    g = constant(1.7)
    exp = experiment(doubling, g, 0.7, [5])
    p, ci, hits, total = probability(exp, 5)
    assert p == 1.0 and hits == total


def test_probability_impossible_event(doubling):
    g = make_observable("indicator_half", doubling)
    exp = experiment(doubling, g, 1.5, [5])
    p, ci, hits, total = probability(exp, 5)
    assert p == 0.0


def test_probability_matches_binomial(doubling):
    g = make_observable("indicator_half", doubling)
    exp = experiment(doubling, g, 0.7, [20], samples=200000, seed=11)
    p, ci, hits, total = probability(exp, 20)
    exact = float(sps.binom.sf(13, 20, 0.5))
    assert exact == pytest.approx(0.05766, abs=5e-5)
    assert ci[0] <= exact <= ci[1]


def test_rate_curve_shape_and_flags(doubling):
    g = make_observable("indicator_half", doubling)
    exp = experiment(doubling, g, 0.95, [10, 20, 30], samples=2000, seed=2)
    curve = dev.rate_curve(exp)
    assert list(curve.n) == [10, 20, 30]
    assert curve.flagged[2] or curve.p_hat[2] < 1e-3  # deep tail row


def test_rate_estimate_exact_exponential():
    n = np.arange(5, 25)
    p = np.exp(-0.1 * n)
    curve = dev.RateCurve(n=n, hits=(p * 1e9).astype(int),
                          samples=np.full(len(n), 10 ** 9), p_hat=p,
                          ci_low=p, ci_high=p, log_rate=np.log(p) / n,
                          flagged=np.zeros(len(n), dtype=bool))
    fit = dev.rate_estimate(curve, (5, 24))
    assert fit.slope == pytest.approx(-0.1, abs=1e-9)


def test_rate_estimate_constant():
    n = np.arange(5, 15)
    p = np.full(len(n), 0.25)
    curve = dev.RateCurve(n=n, hits=(p * 1e6).astype(int),
                          samples=np.full(len(n), 10 ** 6), p_hat=p,
                          ci_low=p, ci_high=p, log_rate=np.log(p) / n,
                          flagged=np.zeros(len(n), dtype=bool))
    assert dev.rate_estimate(curve, (5, 14)).slope == pytest.approx(0.0,
                                                                    abs=1e-12)


def test_rate_estimate_excludes_flagged():
    n = np.arange(5, 15)
    p = np.exp(-0.2 * n)
    flagged = np.zeros(len(n), dtype=bool)
    flagged[-2:] = True
    p2 = p.copy()
    p2[-2:] = 0.0
    curve = dev.RateCurve(n=n, hits=(p2 * 1e9).astype(int),
                          samples=np.full(len(n), 10 ** 9), p_hat=p2,
                          ci_low=p2, ci_high=p2,
                          log_rate=np.where(p2 > 0, np.log(np.maximum(p2, 1e-300)) / n, -np.inf),
                          flagged=flagged)
    fit = dev.rate_estimate(curve, (5, 14))
    assert fit.slope == pytest.approx(-0.2, abs=1e-9)
    with pytest.raises(ConfigError):
        dev.rate_estimate(curve, (13, 14))


def test_free_energy_zero_t_exact(doubling):
    g = make_observable("indicator_half", doubling)
    val = dev.free_energy_table(doubling, UniformSampler(doubling.domain), g,
                                [0.0], 10, 2000, seed=3)[1][0]
    assert val == 0.0


def test_free_energy_constant_observable(doubling):
    g = constant(0.4)
    val = dev.free_energy_table(doubling, UniformSampler(doubling.domain), g,
                                [1.5], 8, 2000, seed=3)[1][0]
    assert val == pytest.approx(1.5 * 0.4, rel=1e-12)


def test_free_energy_bernoulli_closed_form(doubling):
    g = make_observable("indicator_half", doubling)
    val = dev.free_energy_table(doubling, UniformSampler(doubling.domain), g,
                                [1.0], 10, 400000, seed=4)[1][0]
    assert val == pytest.approx(math.log((1 + math.e) / 2), abs=0.005)


def test_free_energy_convexity(doubling):
    g = make_observable("indicator_half", doubling)
    ts, psi = dev.free_energy_table(doubling, UniformSampler(doubling.domain),
                                    g, np.arange(-1.0, 1.01, 0.25), 10,
                                    100000, seed=5)
    second = np.diff(psi, 2)
    assert np.all(second >= -1e-6)


def test_nonfinite_observable_is_an_evaluation_error():
    # log|f'| is -inf at the critical point 0 of quadratic(2), where half
    # the sampled orbits start: neither a miss nor an overflow
    q = maps.make_quadratic(2.0)
    g = make_observable("log_deriv", q)
    samp = EmpiricalSampler(points=[0.0, 0.3])
    exp = dev.DeviationExperiment(map=q, g=g, c=0.0, sampler=samp,
                                  n_grid=(2, 4, 8), samples=2000, seed=1)
    runs = (lambda: dev.rate_curve(exp),
            lambda: dev.free_energy_table(q, samp, g, [0.5, 1.0], 8, 2000, 1))
    for run in runs:
        with pytest.raises(EvaluationError) as exc, \
                np.errstate(divide="ignore", invalid="ignore"):
            run()
        assert exc.value.index == 0


def test_free_energy_overflow_raises(doubling):
    # t * S_n g past the largest double is refused, not summed as inf
    g = make_observable("indicator_half", doubling)
    for t in (1e308, -1e308):
        with pytest.raises(RangeError), np.errstate(over="ignore"):
            dev.free_energy_table(doubling, UniformSampler(doubling.domain),
                                  g, [t], 4, 1000, seed=0)


def _assert_lse_matches_scipy(a):
    from scipy.special import logsumexp as scipy_logsumexp

    a = np.asarray(a, dtype=float)
    ours = np.float64(dev.logsumexp(a))
    assert ours.tobytes() == np.float64(scipy_logsumexp(a)).tobytes()


def test_logsumexp_matches_scipy_bitwise():
    rng = np.random.default_rng(11)
    cases = [[3.5], [-700.0], [0.0] * 5, [2.25] * 7, [1.0, 1.0, 0.5],
             [-700.0, 700.0, 700.0, 0.0], rng.uniform(-700, 700, 1000),
             rng.normal(size=65536), rng.uniform(-1e-3, 1e-3, 257)]
    # t * S_n g of an indicator sits on an integer lattice: ties everywhere
    lattice = rng.binomial(12, 0.5, 65536).astype(float)
    cases += [t * lattice for t in np.arange(-1.0, 2.0001, 0.05)]
    for a in cases:
        _assert_lse_matches_scipy(a)


@given(st.lists(st.one_of(st.floats(-700.0, 700.0),
                          st.sampled_from([-3.0, 0.0, 1.5, 700.0])),
                min_size=1, max_size=60))
@settings(max_examples=300, deadline=None)
def test_logsumexp_matches_scipy_on_random_arrays(xs):
    _assert_lse_matches_scipy(xs)


def test_legendre_cramer_closed_form():
    ts = np.arange(-1.0, 2.0001, 0.01)
    psi = np.log((1 + np.exp(ts)) / 2)
    res = dev.legendre_rate(ts, psi, 0.7)
    assert res.value == pytest.approx(math.log(2) - sps.entropy([0.7, 0.3]),
                                      abs=1e-4)
    assert not res.boundary
    # the full-deviation endpoint c=1: the maximizer runs off to large t,
    # where t c - psi(t) converges to log 2 from below
    wide = np.arange(-1.0, 25.0, 0.25)
    psi_w = np.logaddexp(0.0, wide) - math.log(2)
    full = dev.legendre_rate(wide, psi_w, 1.0)
    assert full.value == pytest.approx(math.log(2), abs=1e-3)
    assert full.boundary  # flags that the grid failed to bracket


def test_legendre_zero_at_mean():
    ts = np.arange(-1.0, 1.0001, 0.01)
    psi = np.log((1 + np.exp(ts)) / 2)
    res = dev.legendre_rate(ts, psi, 0.5)
    assert res.value == pytest.approx(0.0, abs=1e-9)
    assert res.t_star == pytest.approx(0.0, abs=1e-9)


def test_seed_exchangeability(doubling):
    g = make_observable("indicator_half", doubling)
    vals = []
    for seed in (21, 22):
        exp = experiment(doubling, g, 0.7, [15], samples=50000, seed=seed)
        p, ci, hits, total = probability(exp, 15)
        vals.append((p, total))
    se = combined_se(vals[0][0], vals[0][1], vals[1][0], vals[1][1])
    assert abs(vals[0][0] - vals[1][0]) <= 3 * se


def test_bound_report_doubling_shape():
    rep = dev.bound_report(-0.0986, float("-inf"), 0.08228, slack=0.02)
    assert rep.upper_ok and rep.lower_ok
    assert not rep.uninformative_upper
    assert rep.legendre_rate == pytest.approx(-0.08228)


def test_bound_report_trivial_level():
    # constant observable above the level: zero rate on both sides
    rep = dev.bound_report(0.0, float("-inf"), 0.0, slack=0.02)
    assert rep.upper_ok and rep.lower_ok


def test_bound_report_uninformative_upper():
    rep = dev.bound_report(-0.003, 0.0, 0.08, slack=0.02)
    assert rep.uninformative_upper
    assert rep.upper_ok  # measured rate <= 0 + slack trivially


def brute_force_hits(exp, n):
    """One orbit per point, recomputed from scratch for this n."""
    hits = 0
    for _, pts in sample_chunks(exp.sampler, exp.samples, exp.seed, "dev"):
        cur = pts
        total = np.zeros(len(pts))
        for j in range(n):
            total += exp.g(cur)
            if j + 1 < n:
                cur = exp.map.domain.clamp(exp.map.step(cur))
        avg = total / n
        hits += int(np.sum(avg >= exp.c if exp.direction == "ge"
                           else avg > exp.c))
    return hits


@given(st.lists(st.integers(1, 30), min_size=1, max_size=5, unique=True),
       st.sampled_from([0.5, 0.6, 2 / 3, 0.7, 0.75]),
       st.sampled_from(["ge", "gt"]),
       st.sampled_from(["indicator_half", "cos2pi"]),
       st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_rate_curve_one_pass_matches_brute_force(grid, c, direction, obs,
                                                 seed):
    m = maps.make_perturbed_expanding(4, 0.55)
    exp = experiment(m, make_observable(obs, m), c, sorted(grid),
                     samples=1500, seed=seed, direction=direction)
    curve = dev.rate_curve(exp)
    for n, hits in zip(curve.n, curve.hits):
        assert hits == brute_force_hits(exp, int(n))
        assert hits == probability(exp, int(n))[2]


def test_rate_curve_one_pass_across_chunks(doubling):
    # two chunks (the second one partial), combined in chunk order
    g = make_observable("indicator_half", doubling)
    exp = experiment(doubling, g, 0.6, [3, 8, 13], samples=70_000, seed=6)
    curve = dev.rate_curve(exp, workers=2)
    assert list(curve.samples) == [70_000] * 3
    assert [brute_force_hits(exp, n) for n in (3, 8, 13)] == list(curve.hits)
    assert np.array_equal(dev.rate_curve(exp).hits, curve.hits)


def test_free_energy_matches_table_entry(doubling):
    g = make_observable("spin_half", doubling)
    samp = UniformSampler(doubling.domain)
    ts, psi = dev.free_energy_table(doubling, samp, g, [-0.5, 0.25, 1.0], 9,
                                    70_000, seed=12)
    for t, val in zip(ts, psi):
        assert dev.free_energy_table(doubling, samp, g, [float(t)], 9,
                                     70_000, seed=12)[1][0] == val


def test_free_energy_table_exactly_convex(doubling, pe4):
    # every t sees the same S_n g, so convexity holds up to rounding even
    # on a grid fine enough for sampling noise to break it
    for m, name in ((doubling, "indicator_half"), (pe4, "cos2pi")):
        ts, psi = dev.free_energy_table(
            m, UniformSampler(m.domain), make_observable(name, m),
            np.linspace(-1.0, 2.0, 301), 12, 5000, seed=13)
        assert np.all(np.diff(psi, 2) >= -1e-12)


def test_float_horizon_refused(doubling, pe40, pe4):
    g = make_observable("indicator_half", doubling)
    with pytest.raises(ConfigError, match="lower n to at most 52"):
        experiment(doubling, g, 0.7, range(60, 101))
    experiment(doubling, g, 0.7, [10, 52])
    with pytest.raises(ConfigError, match="lower fe_n to at most 52"):
        dev.free_energy_table(doubling, UniformSampler(doubling.domain), g,
                              [0.0, 1.0], 53, 2000, seed=1)
    # degree 4 drops two bits a step; the perturbed map keeps its bits
    g4 = make_observable("indicator_half", pe40)
    with pytest.raises(ConfigError, match="lower n to at most 26"):
        experiment(pe40, g4, 0.7, [10, 27])
    experiment(pe4, make_observable("indicator_half", pe4), 0.7, [10, 100])


def _wilson_row(hits, total, z=1.959963984540054):
    """One Wilson interval in plain floats: the per-row reference."""
    if total <= 0:
        return 0.0, 1.0
    p = hits / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2.0 * total)) / denom
    spread = z * math.sqrt((p * (1.0 - p) + z * z / (4.0 * total))
                           / total) / denom
    return max(0.0, center - spread), min(1.0, center + spread)


@given(st.lists(st.tuples(st.integers(0, 10 ** 7), st.integers(0, 10 ** 7)),
                min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_wilson_ci_over_arrays_matches_each_row(pairs):
    from devgibbs.stats import wilson_ci
    pairs = [(min(h, t), t) for h, t in pairs]
    lo, hi = wilson_ci(np.array([h for h, _ in pairs]),
                       np.array([t for _, t in pairs]))
    assert [(float(a), float(b)) for a, b in zip(lo, hi)] == \
        [_wilson_row(h, t) for h, t in pairs]
    h, t = pairs[0]
    assert tuple(map(float, wilson_ci(h, t))) == _wilson_row(h, t)


def _reference_psi(m, g, ts, n, samples, seed):
    """psi-hat from scipy's logsumexp on each keyed chunk, the chunk values
    combined in chunk order, with S_n g summed one orbit at a time: the
    weighted sum over the distinct values of S_n g and the plain sum over
    its points."""
    from scipy.special import logsumexp as scipy_logsumexp

    grouped, plain = [], []
    for _, pts in sample_chunks(UniformSampler(m.domain), samples, seed,
                                f"fe:{n}"):
        cur, s = pts, np.zeros(len(pts))
        for j in range(n):
            s += g(cur)
            if j + 1 < n:
                cur = m.domain.clamp(m.step(cur))
        u, c = np.unique(s, return_counts=True)
        grouped.append([scipy_logsumexp(t * u, b=c) for t in ts])
        plain.append([scipy_logsumexp(t * s) for t in ts])
    return [np.array([(scipy_logsumexp(lse[:, k]) - math.log(samples)) / n
                      for k in range(len(ts))])
            for lse in map(np.array, (grouped, plain))]


_FE_MAPS = {"doubling": maps.make_doubling(),
            "pe4": maps.make_perturbed_expanding(4, 0.55)}


@given(st.sampled_from(sorted(_FE_MAPS)),
       st.sampled_from(["indicator_half", "spin_half", "cos2pi"]),
       st.lists(st.one_of(st.floats(-8.0, 8.0),
                          st.sampled_from([-3.0, -1.0, 0.0, 0.5, 7.5])),
                min_size=1, max_size=6, unique=True),
       st.integers(1, 3), st.integers(1000, CHUNK),
       st.integers(1, 10), st.sampled_from([1, 2]), st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_free_energy_table_matches_scipy_per_chunk(family, obs, ts, chunks,
                                                   last, n, workers, seed):
    m = _FE_MAPS[family]
    g = make_observable(obs, m)
    ts = sorted(ts)
    samples = (chunks - 1) * CHUNK + last
    got_ts, psi = dev.free_energy_table(m, UniformSampler(m.domain), g, ts, n,
                                        samples, seed, workers=workers)
    assert list(got_ts) == ts
    grouped, plain = _reference_psi(m, g, ts, n, samples, seed)
    assert psi.tobytes() == grouped.tobytes()
    # the plain sum adds the same terms in another order: |t S_n g| stays
    # below 100 here, so the two differ by a few ulps of 100 at most
    assert np.allclose(psi, plain, rtol=0.0, atol=64 * np.spacing(100.0))


def test_logsumexp_in_place_matches_scipy_bitwise():
    from scipy.special import logsumexp as scipy_logsumexp

    rng = np.random.default_rng(11)
    cases = [[3.5], [-700.0], [0.0] * 5, [2.25] * 7, [1.0, 1.0, 0.5],
             [-700.0, 700.0, 700.0, 0.0], rng.uniform(-700, 700, 1000),
             rng.normal(size=65536), rng.uniform(-1e-3, 1e-3, 257)]
    lattice = rng.binomial(12, 0.5, 65536).astype(float)
    cases += [t * lattice for t in np.arange(-1.0, 2.0001, 0.05)]
    for case in cases:
        a = np.array(case, dtype=float)
        want = np.float64(scipy_logsumexp(a)).tobytes()
        assert np.float64(dev.logsumexp(a, out=a)).tobytes() == want


_S_VALUES = st.one_of(
    # a lattice S_n g, as of an indicator, with both signed zeros
    st.lists(st.sampled_from([-3.0, -1.0, -0.0, 0.0, 2.0, 12.0]),
             min_size=1, max_size=80),
    st.lists(st.integers(-40, 40).map(lambda k: k / 4), min_size=1,
             max_size=80),
    # a continuous one: every point distinct
    st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=80),
    # a single distinct value
    st.tuples(st.sampled_from([-0.0, 0.0, 0.4, -7.25]),
              st.integers(1, 20)).map(lambda vk: [vk[0]] * vk[1]),
)


@given(_S_VALUES,
       st.lists(st.one_of(st.floats(-2.0, 2.0),
                          # 0 ties every term; tiny t ties the top terms
                          # of distinct values as t S_n g underflows
                          st.sampled_from([0.0, -0.0, -1.0, 0.5, 1e-310,
                                           -1e-310, 5e-324])),
                min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_log_partition_matches_scipy_on_the_distinct_values(s, ts):
    from scipy.special import logsumexp as scipy_logsumexp

    s = np.array(s, dtype=float)
    u, c = np.unique(s, return_counts=True)
    want = np.array([scipy_logsumexp(t * u, b=c) for t in ts])
    assert dev.log_partition(s, ts).tobytes() == want.tobytes()


class _NoDraws:
    """A sampler that fails the test if a point is drawn from it."""

    def sample(self, rng, size):
        raise AssertionError("sampled before the settings were checked")


def test_empty_t_grid_is_refused(doubling):
    # legendre_rate reads the grid's edges, so an empty grid has none
    with pytest.raises(ConfigError, match=r"\[deviation\] t_grid = \[\] "):
        dev.check_t_grid([])
    g = make_observable("spin_half", doubling)
    with pytest.raises(ConfigError, match=r"\[deviation\] t_grid = \[\] "):
        dev.free_energy_table(doubling, _NoDraws(), g, [], 10, 2000, 1)


@pytest.mark.parametrize("samples", [0, -5])
def test_free_energy_table_refuses_no_samples(doubling, samples):
    g = make_observable("spin_half", doubling)
    with pytest.raises(ConfigError,
                       match=rf"\[deviation\] fe_samples = {samples} "):
        dev.free_energy_table(doubling, _NoDraws(), g, [0.5], 10, samples, 1)


def test_free_energy_overflow_at_the_low_end_names_the_t(doubling):
    # S_4 g lies in about [-4.5, -0.5]: t = -1e308 overflows only on the
    # lowest sums, where t S_n g is largest
    g = with_out(lambda x: -0.125 - x)
    with pytest.raises(RangeError) as exc:
        dev.free_energy_table(doubling, UniformSampler(doubling.domain), g,
                              [-1e308], 4, 1000, seed=0)
    assert "t = -1e+308" in str(exc.value)
    assert "[deviation] t_grid" in str(exc.value)


def test_free_energy_table_refuses_an_unsorted_t_grid(doubling):
    # legendre_rate reads the grid's edges by position: unsorted, the edge
    # t = 2.0 sits inside and the maximizer at 0.5 read as interior
    g = make_observable("spin_half", doubling)
    sampler = UniformSampler(doubling.domain)
    with pytest.raises(ConfigError, match=r"\[deviation\] t_grid = "
                                          r"\[1\.0, 0\.5, 2\.0\] must be"):
        dev.free_energy_table(doubling, sampler, g, [1.0, 0.5, 2.0], 10,
                              20_000, 9)
    ts, psi = dev.free_energy_table(doubling, sampler, g, [0.5, 1.0, 2.0],
                                    10, 20_000, 9)
    leg = dev.legendre_rate(ts, psi, 0.4)
    assert leg.t_star == 0.5 and leg.boundary


@given(n=st.integers(1, 60),
       c=st.floats(allow_nan=False, allow_infinity=False),
       extra=st.lists(st.floats(), max_size=20),
       direction=st.sampled_from(["ge", "gt"]))
@settings(max_examples=400, deadline=None)
def test_level_threshold_counts_as_the_quotient(n, c, extra, direction):
    # rate_curve counts S_n >= tau_n in place of S_n / n beyond c
    tau = dev.level_threshold(c, n, direction)
    below = math.nextafter(tau, -math.inf)
    near = [tau, below, math.nextafter(tau, math.inf)]
    s = np.array(near + extra + [0.0, -0.0, np.inf, -np.inf, np.nan,
                                 c * n if math.isfinite(c * n) else 0.0])
    beyond = np.greater_equal if direction == "ge" else np.greater
    with np.errstate(over="ignore"):
        assert np.array_equal(s >= tau, beyond(s / n, c))
    # the smallest such double: the one below it fails
    assert not beyond(below / n, c)


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_non_finite_level_is_refused(doubling, c):
    g = make_observable("indicator_half", doubling)
    with pytest.raises(ConfigError, match=r"\[deviation\] c = .* must be "
                                          r"finite"):
        experiment(doubling, g, c, [10, 20])
