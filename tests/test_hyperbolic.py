import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from devgibbs import hyperbolic as hyp
from devgibbs import maps
from devgibbs.domain import Interval
from devgibbs.dynamics import MapSystem
from devgibbs.errors import ConfigError, SingularityError
from devgibbs.sampling import UniformSampler
from helpers import all_times, combined_se, count_steps
import oracles


def params(sigma=1.4, delta=0.1, b=0.25, n_max=100):
    return hyp.HyperbolicParams(sigma=sigma, delta=delta, b=b, n_max=n_max)


def density(m, x, N, p):
    """Fraction of the times 1..N that are hyperbolic for x."""
    return len(hyp.hyperbolic_times(m, x, replace(p, n_max=N)).times) / N


def test_param_validation():
    with pytest.raises(ConfigError):
        params(sigma=1.0)
    with pytest.raises(ConfigError):
        params(b=0.5)
    with pytest.raises(ConfigError):
        params(delta=0.0)


def test_doubling_every_time_hyperbolic(doubling):
    rec = hyp.hyperbolic_times(doubling, 0.3174, params(n_max=50))
    assert np.array_equal(rec.times, np.arange(1, 51))
    assert rec.first == 1


def test_sigma_two_boundary_inclusive(doubling):
    # 2^-k <= 2^-k exactly: ties resolve to acceptance
    assert density(doubling, 0.618, 20, params(sigma=2.0)) == 1.0


def test_mp_first_step_threshold(mp):
    # one-step expansion condition at n=1 is f'(x) >= sigma
    p = params(sigma=1.2)
    assert float(mp.deriv(0.005)) < 1.2
    assert not hyp.is_hyperbolic_time(mp, 0.005, 1, p)
    assert float(mp.deriv(0.01)) > 1.2
    assert hyp.is_hyperbolic_time(mp, 0.01, 1, p)


def test_mp_deep_point_has_late_first_time(mp):
    rec = hyp.hyperbolic_times(mp, 1e-6, params(sigma=1.2, n_max=100))
    assert rec.none_found or rec.first > 50


def test_quadratic_record_nonempty(quadratic):
    p = hyp.default_params(quadratic, n_max=1000)
    rec = hyp.hyperbolic_times(quadratic, 0.3, p)
    assert not rec.none_found
    assert len(rec.times) > 100


def test_detector_matches_naive_small(doubling, quadratic, mp):
    rng = np.random.default_rng(11)
    cases = [(doubling, params()), (quadratic, hyp.default_params(quadratic)),
             (mp, params(sigma=1.2))]
    for m, p in cases:
        for _ in range(25):
            if hasattr(m.domain, "lo"):
                x = float(m.domain.lo + (m.domain.hi - m.domain.lo)
                          * rng.random())
            else:
                x = float(rng.random())
            n = int(rng.integers(1, 40))
            assert hyp.is_hyperbolic_time(m, x, n, p) == \
                oracles.naive_is_hyperbolic_time(m, x, n, p)


def test_backward_monotonicity_of_prefix(quadratic):
    """At a detected time the accumulated log-product is a running min."""
    from oracles import expansion_cocycle

    p = hyp.default_params(quadratic, n_max=60)
    rec = hyp.hyperbolic_times(quadratic, 0.3, p)
    logs = np.log(expansion_cocycle(quadratic, 0.3, int(rec.times[-1])))
    prefix = np.concatenate([[0.0], np.cumsum(logs + math.log(p.sigma))])
    for n in rec.times:
        assert prefix[n] <= np.min(prefix[:n]) + 1e-9


def test_tail_curve_doubling_zero(doubling):
    tc = hyp.tail_curve(doubling, UniformSampler(doubling.domain),
                        params(n_max=30), 2000, seed=1)
    assert np.all(tc.fraction == 0.0)
    assert tc.truncated


def test_tail_curve_monotone(mp):
    tc = hyp.tail_curve(mp, UniformSampler(mp.domain),
                        params(sigma=1.2, n_max=300), 20000, seed=2)
    assert np.all(np.diff(tc.fraction) <= 1e-12)


def test_tail_curve_seed_agreement(mp):
    p = params(sigma=1.2, n_max=200)
    a = hyp.tail_curve(mp, UniformSampler(mp.domain), p, 30000, seed=5)
    b = hyp.tail_curve(mp, UniformSampler(mp.domain), p, 30000, seed=6)
    upto = min(len(a.n), len(b.n))
    for i in range(upto):
        se = combined_se(a.fraction[i], a.samples, b.fraction[i], b.samples)
        assert abs(a.fraction[i] - b.fraction[i]) <= 3 * se + 1e-12


def test_tail_curve_is_worker_invariant(quadratic):
    # three sample chunks (the last partial) through the pool
    samp = UniformSampler(quadratic.domain)
    one, two = (hyp.tail_curve(quadratic, samp, params(n_max=200), 140_000,
                               seed=4, workers=w) for w in (1, 2))
    assert one.samples == 140_000 and one.survivors[0] > 0
    for field in ("n", "survivors", "fraction", "ci_low", "ci_high"):
        assert np.array_equal(getattr(one, field), getattr(two, field))
    assert one.truncated == two.truncated


def test_classify_tail_exact_exponential():
    n = np.arange(1, 41)
    frac = 2.0 ** -n.astype(float)
    tc = hyp.TailCurve(n=n, survivors=(frac * 1e9).astype(int), fraction=frac,
                       ci_low=frac, ci_high=frac, samples=10 ** 9,
                       truncated=False)
    fit = hyp.classify_tail(tc, window=(1, 40))
    assert fit.kind == "exponential"
    assert fit.rate == pytest.approx(-math.log(2), abs=1e-6)


def test_classify_tail_exact_polynomial():
    n = np.arange(1, 41)
    frac = 1.0 / n
    tc = hyp.TailCurve(n=n, survivors=(frac * 1e9).astype(int), fraction=frac,
                       ci_low=frac, ci_high=frac, samples=10 ** 9,
                       truncated=False)
    fit = hyp.classify_tail(tc, window=(1, 40))
    assert fit.kind == "polynomial"
    assert fit.exponent == pytest.approx(-1.0, abs=1e-6)


def test_classify_tail_needs_points():
    n = np.arange(1, 6)
    frac = 1.0 / n
    tc = hyp.TailCurve(n=n, survivors=frac.astype(int), fraction=frac,
                       ci_low=frac, ci_high=frac, samples=10,
                       truncated=False)
    with pytest.raises(ConfigError):
        hyp.classify_tail(tc, window=(1, 5))


def test_pliss_density_doubling(doubling):
    assert density(doubling, 0.4321, 50, params()) == 1.0


def test_lag_statistic_doubling(doubling):
    stats = oracles.lag_statistic(doubling, 0.3, 100, params(n_max=100),
                                  window_min=10)
    assert stats.max_gap_ratio == pytest.approx(0.1)
    assert stats.max_wait_ratio == 0.0


def test_lag_statistic_lacunar_stub():
    stats = oracles.lag_statistic_from_times(np.array([2, 4, 8, 16, 32, 64]),
                                             100, window_min=1)
    assert stats.max_gap_ratio == pytest.approx(1.0)


def test_lag_statistic_insufficient():
    stats = oracles.lag_statistic_from_times(np.array([3]), 50)
    assert stats.insufficient


def test_lag_statistic_scaled_window():
    # one gap 19 -> 30; the window [max(10, N // 10), N] leaves it behind
    times = np.r_[1:20, 30:1001]
    early = oracles.lag_statistic_from_times(times, 100)
    assert early.window == (10, 100)
    assert early.max_gap_ratio == pytest.approx(11 / 19)
    assert early.max_wait_ratio == pytest.approx(10 / 29)
    late = oracles.lag_statistic_from_times(times, 1000)
    assert late.window == (100, 1000)
    assert late.max_gap_ratio == pytest.approx(0.01)
    assert late.max_wait_ratio == 0.0
    assert not late.insufficient
    none = oracles.lag_statistic_from_times(np.array([1, 2, 3]), 100)
    assert none.insufficient
    assert np.isnan(none.max_gap_ratio) and np.isnan(none.max_wait_ratio)


def test_mp_lag_statistic_decreasing(mp):
    p = params(sigma=1.2, n_max=10000)
    vals = [oracles.lag_statistic(mp, 0.662, N, p).max_gap_ratio
            for N in (100, 1000, 10000)]
    assert vals[2] <= vals[0]


def test_mp_lag_statistic_decreasing_ensemble(mp):
    # the same inequality on the median of a seeded ensemble of starts,
    # which does not rest on the last bits of one chaotic orbit
    p = params(sigma=1.2, n_max=1000)
    starts = np.random.default_rng(0).random(60)
    med = [np.median([oracles.lag_statistic(mp, x, N, p).max_gap_ratio
                      for x in starts]) for N in (100, 1000)]
    assert med[1] < med[0]


FAMILIES = {
    "doubling": maps.make_doubling(),
    "perturbed_expanding": maps.make_perturbed_expanding(4, 0.55),
    "quadratic": maps.make_quadratic(2.0),
    "manneville_pomeau": maps.make_mp(0.5),
    "viana": maps.make_viana(16, 2.0, 0.01),
}


def _start_points(m, us):
    """Map unit-square draws into the domain (rows for the cylinder)."""
    us = np.asarray(us, dtype=float)
    if m.domain.ndim == 2:
        lo, hi = m.domain.fiber_lo, m.domain.fiber_hi
        return np.column_stack([us[:, 0], lo + (hi - lo) * us[:, 1]])
    if hasattr(m.domain, "lo"):
        return m.domain.lo + (m.domain.hi - m.domain.lo) * us[:, 0]
    return us[:, 0]


@given(st.sampled_from(sorted(FAMILIES)),
       st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                          st.floats(0.0, 1.0, exclude_max=True)),
                min_size=1, max_size=8),
       st.integers(1, 300), st.integers(1, 24))
@example("quadratic", [(0.3, 0.0), (0.5, 0.0)], 5, 1)  # 0 is critical
@settings(max_examples=60, deadline=None)
def test_batch_scan_matches_single_scans(name, us, n_max, n):
    m = FAMILIES[name]
    p = hyp.default_params(m, n_max=n_max)
    xs = _start_points(m, us)
    singles = []
    for x in xs:
        try:
            singles.append(hyp.hyperbolic_times(m, x, p).times)
        except SingularityError:
            # an orbit through the critical set fails the whole batch
            with pytest.raises(SingularityError):
                all_times(m, xs, p)
            return
    batch = all_times(m, xs, p)
    assert len(batch) == len(xs)
    for x, times, single in zip(xs, batch, singles):
        assert np.array_equal(times, single)
        assert np.all(np.diff(times) > 0)
        if n <= n_max:
            assert (n in times) == oracles.naive_is_hyperbolic_time(m, x, n, p)


def test_batch_scan_names_singular_start_point(quadratic):
    # 1 - 2 x^2 maps 2^-1/2 to the critical point 0 up to rounding
    p = hyp.default_params(quadratic, n_max=20)
    with pytest.raises(SingularityError, match="start point 3 .* index 1"):
        all_times(quadratic, [0.3, 0.2, 0.7, 2 ** -0.5], p)


@given(st.sampled_from(sorted(FAMILIES)),
       st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                          st.floats(0.0, 1.0, exclude_max=True)),
                min_size=1, max_size=4),
       st.integers(1, 40), st.sampled_from([None, 2.0]))
# x = 0.70534 maps to 0.0050, inside the default delta 0.01 of quadratic
@example("quadratic", [((1 + 0.70534) / 2, 0.0), (0.3, 0.0)], 12, None)
@settings(max_examples=100, deadline=None)
def test_scan_matches_naive_checker_at_every_n(name, us, n_max, delta):
    m = FAMILIES[name]
    p = hyp.default_params(m, n_max=n_max)
    if delta is not None:
        p = replace(p, delta=delta)
    xs = _start_points(m, us)
    try:
        batch = all_times(m, xs, p)
    except SingularityError:
        # some orbit reaches the critical set before index n_max
        with pytest.raises(SingularityError):
            for x in xs:
                oracles.naive_is_hyperbolic_time(m, x, n_max, p)
        return
    for x, times in zip(xs, batch):
        for n in range(1, n_max + 1):
            assert (n in times) == oracles.naive_is_hyperbolic_time(m, x, n, p)


def test_empty_batch(quadratic):
    p = hyp.default_params(quadratic, n_max=20)
    first = hyp.first_times_batch(quadratic, [], p)
    assert first.dtype == np.int64 and first.shape == (0,)
    for times in hyp.straddling_times(quadratic, [], p, [5]):
        assert times.dtype == np.int64 and times.shape == (1, 0)
    assert all_times(quadratic, [], p) == []


def test_scan_does_not_step_past_its_horizon(quadratic):
    # the states at n = 1..16 take 15 steps
    m, sizes = count_steps(quadratic)
    hyp.hyperbolic_times(m, 0.3, hyp.default_params(quadratic, n_max=16))
    assert len(sizes) == 15


def _eager_first_times(m, xs, p):
    """Reference loop: every point is stepped until the last first time."""
    first = np.zeros(len(xs), dtype=np.int64)
    for n, hit in hyp._scan(m, xs, p, p.n_max, p.n_max):
        first[hit[first[hit] == 0]] = n
        if np.all(first > 0):
            break
    return first


@given(st.sampled_from(sorted(FAMILIES)),
       st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                          st.floats(0.0, 1.0, exclude_max=True)),
                min_size=1, max_size=16),
       st.integers(1, 400))
@example("quadratic", [(0.65, 0.0), ((1 + 2 ** -0.5) / 2, 0.0)], 50)
@example("manneville_pomeau", [(0.001, 0.0), (0.6, 0.0), (0.02, 0.0)], 400)
@settings(max_examples=80, deadline=None)
def test_retiring_first_times_match_eager_loop(name, us, n_max):
    m = FAMILIES[name]
    p = hyp.default_params(m, n_max=n_max)
    xs = _start_points(m, us)
    try:
        want = _eager_first_times(m, xs, p)
    except SingularityError:
        want = None
    try:
        got = hyp.first_times_batch(m, xs, p)
    except SingularityError:
        # a point that still lacks its first time fails in both loops
        assert want is None
        return
    if want is not None:
        assert np.array_equal(got, want)
    assert got.shape == (len(xs),)


def _halving():
    """x -> x / 2 on [0, 1]; expanding only on [1/2, 1], critical at 0."""
    return MapSystem(label="halving", domain=Interval(0.0, 1.0), params={},
                     step=lambda x: np.asarray(x, dtype=float) / 2,
                     deriv=lambda x: np.where(np.asarray(x) >= 0.5, 4.0, 0.5),
                     crit_dist=lambda x: np.abs(np.asarray(x, dtype=float)))


def test_default_params_are_keyed_on_the_family():
    # doubling is a perturbed_expanding map and shares its defaults
    for m in FAMILIES.values():
        assert hyp.default_params(m) == hyp.HyperbolicParams(
            n_max=1000, **hyp.DEFAULT_PARAMS[m.family])
    assert FAMILIES["doubling"].family == "perturbed_expanding"
    with pytest.raises(ConfigError, match="halving has no default"):
        hyp.default_params(_halving())


def test_first_times_name_singular_start_point_after_retiring():
    # 0.9 and 0.8 retire at n = 1; 3e-14 halves below the tolerance at
    # orbit index 2, by then at position 1 of the shrunken scan
    m = _halving()
    p = params(n_max=10)
    xs = [0.9, 0.8, 0.3, 3e-14]
    with pytest.raises(SingularityError, match="start point 3 .* index 2"):
        hyp.first_times_batch(m, xs, p)
    with pytest.raises(SingularityError, match="start point 3 .* index 2"):
        _eager_first_times(m, xs, p)


def test_point_with_first_time_is_not_checked_for_singularity(quadratic):
    # 2^-1/2 has its first time at n = 1 and maps to the critical point,
    # while 0.3 keeps the scan going to n = 2; the full scans fail there,
    # the retiring scan no longer checks the point that has its answer
    p = hyp.default_params(quadratic, n_max=20)
    xs = [0.3, 2 ** -0.5]
    assert hyp.first_times_batch(quadratic, xs, p).tolist() == [2, 1]
    with pytest.raises(SingularityError, match="start point 1 .* index 1"):
        _eager_first_times(quadratic, xs, p)
    with pytest.raises(SingularityError, match="start point 1 .* index 1"):
        all_times(quadratic, xs, p)


@given(st.sampled_from(["quadratic", "manneville_pomeau",
                        "perturbed_expanding"]),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1,
                max_size=8),
       st.lists(st.integers(1, 100), min_size=1, max_size=4, unique=True))
@example("manneville_pomeau", [1e-8, 0.6, 0.02], [5, 40])  # 1e-8: no time
# u = (1 + 2^-1/2) / 2 is the start point 2^-1/2, which steps onto 0
@example("quadratic", [0.3, (1 + 2 ** -0.5) / 2], [1, 3])
@settings(max_examples=60, deadline=None)
def test_straddling_times_match_single_scans(name, us, grid):
    m = FAMILIES[name]
    grid = sorted(grid)
    p = hyp.default_params(m, n_max=7)  # the scan horizon comes from the grid
    xs = _start_points(m, [(u, 0.0) for u in us])
    full = replace(p, n_max=int(1.5 * grid[-1]) + 50)
    singles = []
    for x in xs:
        try:
            singles.append(hyp.hyperbolic_times(m, x, full).times)
        except SingularityError:
            singles.append(None)
    try:
        before, after = hyp.straddling_times(m, xs, p, grid)
    except SingularityError:
        # only a point whose full scan hits the critical set can fail it
        assert any(times is None for times in singles)
        return
    assert before.shape == after.shape == (len(grid), len(xs))
    assert before.dtype == after.dtype == np.int64
    for i, times in enumerate(singles):
        if times is None:
            continue  # settled before its orbit reached the critical set
        for k, n in enumerate(grid):
            lo, hi = times[times <= n], times[times > n]
            assert before[k, i] == (lo[-1] if len(lo) else 0)
            assert after[k, i] == (hi[0] if len(hi) else 0)


def _oracle_times(m, x, p, horizon):
    """The naive checker's hyperbolic times of x up to the horizon, and the
    orbit index at which x reaches the critical set (None if it does not
    before the horizon); the times stop there."""
    times = []
    for n in range(1, horizon + 1):
        try:
            if oracles.naive_is_hyperbolic_time(m, x, n, p):
                times.append(n)
        except SingularityError as err:
            return times, err.index
    return times, None


def _answer_or_failure(oracle, checked, run):
    """run(), or the SingularityError of the earliest critical hit among
    the orbit indices each point is checked at (0..checked[i]), which
    names the lowest such point."""
    hits = [(hit, i) for i, ((_, hit), last) in enumerate(zip(oracle, checked))
            if hit is not None and hit <= last]
    if not hits:
        return run()
    index, point = min(hits)
    with pytest.raises(SingularityError, match=(
            rf"start point {point} hit the critical set at index {index}$")):
        run()
    return None


unit = st.floats(0.0, 1.0, exclude_max=True)


@given(st.sampled_from(sorted(FAMILIES)),
       st.lists(st.tuples(unit, unit), min_size=1, max_size=4),
       st.integers(2, 40), st.lists(st.integers(1, 4), min_size=1,
                                    max_size=3))
# 2^-1/2 has its first time at n = 1 and steps onto the critical point 0
@example("quadratic", [(0.3, 0.0), ((1 + 2 ** -0.5) / 2, 0.0)], 20, [1, 3])
@settings(max_examples=30, deadline=None)
def test_block_scans_match_naive_checker(name, us, n_max, grid):
    # a batch this small doubles its block length from 1 row up to the
    # horizon, so every row past n = 1 is read from a block of several
    m = FAMILIES[name]
    p = hyp.default_params(m, n_max=n_max)
    xs = _start_points(m, us)
    assert 4 * len(xs) <= hyp.BLOCK_POINT_STEPS
    top = max(grid)
    horizon = hyp.gap_horizon(top)
    oracle = [_oracle_times(m, x, p, max(n_max, horizon)) for x in xs]
    # all times to n_max, every point checked to index n_max - 1
    got = _answer_or_failure(oracle, [n_max - 1] * len(xs),
                             lambda: all_times(m, xs, p))
    if got is not None:
        for times, (want, _) in zip(got, oracle):
            assert times.tolist() == [t for t in want if t <= n_max]
    # first times: a point is checked up to the index before its first time
    first = [next((t for t in times if t <= n_max), 0) for times, _ in oracle]
    got = _answer_or_failure(oracle, [(f or n_max) - 1 for f in first],
                             lambda: hyp.first_times_batch(m, xs, p))
    if got is not None:
        assert got.tolist() == first
    # straddling times: checked up to the first time past the grid
    past = [next((t for t in times if top < t <= horizon), 0)
            for times, _ in oracle]
    got = _answer_or_failure(oracle, [(f or horizon) - 1 for f in past],
                             lambda: hyp.straddling_times(m, xs, p, grid))
    if got is not None:
        for k, n in enumerate(grid):
            for i, (times, _) in enumerate(oracle):
                assert got[0][k, i] == max((t for t in times if t <= n),
                                           default=0)
                assert got[1][k, i] == min(
                    (t for t in times if n < t <= horizon), default=0)


def _drop():
    """0.95 -> 0.85 -> 0 -> 0 and 0.5 -> 0.5 on [0, 1], critical at 0.

    |f'| is 4 at 0.85, min(1, 10 x) elsewhere: 0.95 has its first
    hyperbolic time at n = 2 and reaches 0, where f' = 0, at orbit index
    2; 0.5 has no hyperbolic time."""
    def step(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.9, x - 0.1, np.where(x > 0.8, 0.0, x))

    def deriv(x):
        x = np.asarray(x, dtype=float)
        return np.where((x > 0.8) & (x < 0.9), 4.0, np.minimum(1.0, 10 * x))

    return MapSystem(label="drop", domain=Interval(0.0, 1.0), params={},
                     step=step, deriv=deriv,
                     crit_dist=lambda x: np.abs(np.asarray(x, dtype=float)))


def test_point_retired_inside_a_block_is_not_checked_for_singularity():
    # the second block holds the rows n = 2, 3: 0.95 retires at n = 2 and
    # its state at n = 3 is the critical point, which the block masks
    m, p, xs = _drop(), params(n_max=10), [0.95, 0.5]
    blocks = [(n0, ok.tolist(), live.tolist())
              for n0, ok, live in hyp._scan_blocks(m, xs, p, 0, 10)]
    assert blocks[:2] == [(1, [[False, False]], [0, 1]),
                          (2, [[True, False], [False, False]], [0, 1])]
    assert hyp.first_times_batch(m, xs, p).tolist() == [2, 0]
    with pytest.raises(SingularityError, match="start point 0 .* index 2$"):
        all_times(m, xs, p)


def test_singular_point_is_named_inside_a_block():
    # 0.9 and 0.8 retire at n = 1; the second block holds the rows n = 2, 3
    # of 0.3 and 3e-14, which halves below the tolerance at orbit index 2:
    # the row n = 2 comes out before the error
    m, xs = _halving(), [0.9, 0.8, 0.3, 3e-14]
    seen = []
    with pytest.raises(SingularityError, match="start point 3 .* index 2$"):
        for n0, ok, live in hyp._scan_blocks(m, xs, params(n_max=10), 0, 10):
            seen.append((n0, len(ok), live.tolist()))
    assert seen == [(1, 1, [0, 1, 2, 3]), (2, 1, [2, 3])]


def test_small_batch_scan_evaluates_once_per_block(pe4):
    # 25 points take their rows from the walk one step at a time, but the
    # derivative is evaluated once per block of up to 4096 / 25 rows
    calls = []
    m, sizes = count_steps(replace(
        pe4, deriv=lambda x: calls.append(1) or pe4.deriv(x)))
    xs = np.random.default_rng(3).random(25)
    hyp.straddling_times(m, xs, hyp.default_params(pe4), [100, 1000])
    rows = len(sizes) + 1
    assert rows > 1000 and 8 * len(calls) < rows


def test_sample_anchors_match_one_candidate_at_a_time(quadratic):
    p = hyp.default_params(quadratic, n_max=60)
    for lo, hi, want, limit in ((8, 16, 40, 4000), (50, 52, 30, 45)):
        rng = np.random.default_rng(7)
        got, tried = hyp.sample_anchors(quadratic, lambda: float(rng.random()),
                                        p, lo, hi, want, limit)
        rng = np.random.default_rng(7)
        ref, guard = [], 0
        while len(ref) < want and guard < limit:
            guard += 1
            x = float(rng.random())
            cand = [t for t in hyp.hyperbolic_times(quadratic, x, p).times
                    if lo <= t <= hi]
            if cand:
                ref.append((x, int(cand[len(cand) // 2])))
        assert got == ref and tried == guard


def test_sample_anchors_scan_only_their_depth_window():
    # 0.9 has the time 1 in [1, 2]; 1e-13 halves below the critical
    # tolerance at orbit index 4, past the window, so it is not refused
    draws = iter([0.9, 1e-13])
    got = hyp.sample_anchors(_halving(), draws.__next__,
                             hyp.HyperbolicParams(1.4, 0.1, 0.25, 10),
                             1, 2, 2, 2)
    assert got == ([(0.9, 1)], 2)
