import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from devgibbs import hyperbolic as hyp
from devgibbs import maps, metric
from devgibbs.dynamics import orbit
from devgibbs.errors import (CapabilityError, ConfigError,
                             ImpossibleCoverError, SamplingError)
from devgibbs.sampling import UniformSampler, spawn_rng
from helpers import constant
import oracles


def test_dn_distance_doubling(doubling):
    assert oracles.dn_distance(doubling, 0.0, 0.01, 3) == pytest.approx(0.04)


def test_dn_distance_degenerate(doubling):
    assert oracles.dn_distance(doubling, 0.42, 0.42, 5) == 0.0


def test_dn_distance_is_ambient_at_one(doubling):
    assert oracles.dn_distance(doubling, 0.1, 0.2, 1) == pytest.approx(0.1)


def test_dn_metric_properties(doubling):
    rng = np.random.default_rng(0)
    for _ in range(30):
        x, y, z = rng.random(3)
        dxy = oracles.dn_distance(doubling, x, y, 4)
        dyx = oracles.dn_distance(doubling, y, x, 4)
        dxz = oracles.dn_distance(doubling, x, z, 4)
        dzy = oracles.dn_distance(doubling, z, y, 4)
        assert dxy == dyx
        assert dxy <= dxz + dzy + 1e-12


def test_ball_membership(doubling):
    assert oracles.in_dynamical_ball(doubling, 0.0,
                                     metric.BallSpec(0.0, 3, 0.05))
    # at j=3 the points sit 0.08 apart: outside
    assert not oracles.in_dynamical_ball(doubling, 0.01,
                                         metric.BallSpec(0.0, 3, 0.05))
    assert oracles.in_dynamical_ball(doubling, 0.01,
                                     metric.BallSpec(0.0, 2, 0.05))


def test_ball_nesting_in_depth(doubling):
    rng = np.random.default_rng(5)
    for _ in range(50):
        c, y = rng.random(2)
        if oracles.in_dynamical_ball(doubling, y, metric.BallSpec(c, 6, 0.1)):
            assert oracles.in_dynamical_ball(doubling, y,
                                             metric.BallSpec(c, 5, 0.1))


def test_separated_hand_case(doubling):
    ss = oracles.maximal_separated_subset(doubling, [0.0, 0.25, 0.5], 1, 0.3)
    assert list(ss.members) == [0.0, 0.5]


def test_separated_all_equal(doubling):
    ss = oracles.maximal_separated_subset(doubling, [0.3] * 5, 2, 0.1)
    assert len(ss.members) == 1


def test_separated_grid_brute_force(doubling):
    grid = np.arange(256) / 256
    ss = oracles.maximal_separated_subset(doubling, grid, 3, 2 ** -4)
    # pairwise verification by brute force
    for i in range(len(ss.members)):
        for j in range(i + 1, len(ss.members)):
            assert oracles.dn_distance(doubling, ss.members[i],
                                       ss.members[j], 3) > 2 ** -4
    # maximality within candidates: nothing else is addable
    for cand in grid:
        if cand in ss.members:
            continue
        dmin = min(oracles.dn_distance(doubling, cand, m, 3)
                   for m in ss.members)
        assert dmin <= 2 ** -4
    assert len(ss.members) == 51  # frozen from the brute-force oracle


def test_covering_trivial_cases(doubling):
    pts = np.full(50, 0.3) + 1e-9 * np.arange(50)
    assert metric.covering_number(doubling, pts, 2, 0.2, 0.0) == 1
    assert metric.covering_number(doubling, pts, 2, 0.2, 1.0) == 0


def test_covering_methods_agree(doubling):
    pts = spawn_rng(0, "covertest").random(1200)
    direct = metric.covering_number(doubling, pts, 5, 0.1, 0.1,
                                    method="direct")
    arc = metric.covering_number(doubling, pts, 5, 0.1, 0.1, method="arc")
    assert abs(direct - arc) <= max(2, 0.02 * direct)


def test_covering_cylinder_takes_no_arc_path(viana):
    # above 1,500 points the cover reads 1D ball intervals; a cylinder
    # family gets their typed refusal, not an N x N membership matrix
    pts = viana.domain.sample(spawn_rng(1, "cyl"), 1501)
    with pytest.raises(ConfigError, match="only applies to 1D maps"):
        metric.covering_number(viana, pts, 2, 0.3, 0.1)
    assert metric.covering_number(viana, pts[:40], 2, 0.3, 0.1) > 0


def test_covering_scale_doubling(doubling):
    # covering 0.9 of the circle with balls of length 2 eps 2^-n
    pts = spawn_rng(1, "coverscale").random(10000)
    count = metric.covering_number(doubling, pts, 5, 0.1, 0.1, method="arc")
    ideal = 0.9 / (2 * 0.1 * 2 ** -5)
    assert ideal / 2 <= count <= ideal * 2


def test_covering_monotonicity(doubling):
    pts = spawn_rng(2, "covermono").random(3000)
    c_eps = [metric.covering_number(doubling, pts, 4, e, 0.1, method="arc")
             for e in (0.2, 0.1, 0.05)]
    assert c_eps[0] <= c_eps[1] <= c_eps[2]
    c_n = [metric.covering_number(doubling, pts, n, 0.1, 0.1, method="arc")
           for n in (2, 4, 6)]
    assert c_n[0] <= c_n[1] <= c_n[2]


def _eager_range_cover(lo, hi, npts, need):
    """Reference greedy: every round recounts every range from scratch.

    Ranges [lo, hi) live on the doubled index 0..2 npts (index i + npts is
    point i again); the gain is the integer count of uncovered points, and
    ``np.argmax`` sends equal counts to the smallest index.
    """
    lo = np.asarray(lo, dtype=int)
    hi = np.minimum(np.asarray(hi, dtype=int), lo + npts)
    alive = np.ones(npts, dtype=int)
    covered = count = 0
    while covered < need:
        pref = np.concatenate([[0], np.cumsum(np.concatenate([alive, alive]))])
        gain = pref[hi] - pref[lo]
        best = int(np.argmax(gain))
        if gain[best] <= 0:
            raise ImpossibleCoverError("stall")
        alive[np.arange(lo[best], hi[best]) % npts] = 0
        covered += int(gain[best])
        count += 1
    return count


def _cover_or_stall(cover, lo, hi, npts, need):
    try:
        return cover(lo, hi, npts, need)
    except ImpossibleCoverError:
        return "stall"


@st.composite
def range_instances(draw):
    """Index ranges on a line (hi <= npts) or on the doubled circle index."""
    npts = draw(st.integers(1, 40))
    circle = draw(st.booleans())
    ranges = []
    for _ in range(draw(st.integers(1, 40))):
        lo = draw(st.integers(0, npts))
        top = min(lo + npts + 1, 2 * npts) if circle else npts
        ranges.append((lo, draw(st.integers(lo, max(lo, top)))))
    lo, hi = (np.array(v) for v in zip(*ranges))
    return lo, hi, npts, draw(st.integers(0, npts))


@given(range_instances())
@settings(max_examples=400, deadline=None)
def test_greedy_range_cover_matches_eager(inst):
    assert (_cover_or_stall(metric._greedy_range_cover, *inst)
            == _cover_or_stall(_eager_range_cover, *inst))


@pytest.mark.parametrize("lo, hi, npts, need, count", [
    # three ranges of 2 points: the first index wins, so 3 picks, not 2
    ([1, 0, 2], [3, 2, 4], 4, 4, 3),
    # a wrapped pick covers 3, 4, 0, 1 and must lower both other ranges
    ([3, 1, 0], [7, 3, 2], 5, 5, 2),
    # a plain pick covers 0..2 and must lower the range 4, 0, 1 to 1 point
    ([0, 4, 3], [3, 7, 5], 5, 5, 2),
    # every point (delta = 0) with 3-point arcs round a 10-point circle
    (np.arange(10), np.arange(10) + 3, 10, 10, 4),
])
def test_greedy_range_cover_hand_cases(lo, hi, npts, need, count):
    assert metric._greedy_range_cover(lo, hi, npts, need) == count
    assert _eager_range_cover(lo, hi, npts, need) == count


@pytest.mark.parametrize("method", ["direct", "arc"])
def test_covering_need_rounding(doubling, method):
    # balls of radius 0.01 round ten points 0.1 apart hold one point each,
    # so the count is the number of points needed: (1 - 0.7) * 10 is
    # 3.0000000000000004 in floating point and still needs 3 points
    pts = (np.arange(10) + 0.5) / 10
    counts = [metric.covering_number(doubling, pts, 0, 0.01, delta,
                                     method=method)
              for delta in (0.0, 0.7, 1.0)]
    assert counts == [10, 3, 0]


@pytest.mark.parametrize("method", ["direct", "arc"])
def test_covering_every_point_of_a_circle_grid(doubling, method):
    # radius 2/64 round the 64-point grid holds 5 points: ceil(64 / 5)
    pts = np.arange(64) / 64
    assert metric.covering_number(doubling, pts, 0, 1 / 32, 0.0,
                                  method=method) == 13


def test_covering_stall_is_reported_in_points():
    with pytest.raises(ImpossibleCoverError, match="2 < 3 points"):
        metric._greedy_range_cover([0], [2], 4, 3)


def _exact_line_cover(lo, hi, need):
    """Fewest ranges [lo, hi) of a line covering >= ``need`` points.

    A dynamic program over right endpoints.  Some optimal choice has no
    range inside another, so with the ranges sorted by ``hi`` each chosen
    range adds exactly the points of [max(lo, previous hi), hi).
    ``best[j]`` is the most points that at most k ranges cover when range j
    ends furthest right.  Returns None when no choice covers ``need``.
    """
    if need <= 0:
        return 0
    order = np.argsort(hi, kind="stable")
    lo = [int(v) for v in np.asarray(lo)[order]]
    hi = [int(v) for v in np.asarray(hi)[order]]
    best = [h - lo_j for lo_j, h in zip(lo, hi)]
    for k in range(1, len(lo) + 1):
        if max(best) >= need:
            return k
        best = [max([best[j]] + [best[i] + hi[j] - max(lo[j], hi[i])
                                 for i in range(j)])
                for j in range(len(lo))]
    return None


def test_greedy_line_cover_against_exact_minimum():
    rng = np.random.default_rng(2024)
    worst = 1.0
    for _ in range(400):
        npts = int(rng.integers(1, 25))
        lo = rng.integers(0, npts + 1, int(rng.integers(1, 12)))
        hi = np.minimum(lo + rng.integers(0, 8, lo.size), npts)
        need = int(rng.integers(0, npts + 1))
        exact = _exact_line_cover(lo, hi, need)
        greedy = _cover_or_stall(metric._greedy_range_cover, lo, hi, npts,
                                 need)
        if exact is None:
            assert greedy == "stall"
            continue
        assert exact <= greedy
        if exact:
            worst = max(worst, greedy / exact)
    print(f"\n[greedy cover] worst greedy / exact on the line: {worst:.3f}")
    assert worst < 2.0


def test_katok_identity_stub(identity_map):
    est = metric.katok_entropy(identity_map, UniformSampler(identity_map.domain),
                               [2, 4, 6], [0.2, 0.1, 0.05], 0.1, 20000, seed=5)
    assert abs(est.entropy) <= 0.02


def test_katok_grid_validation(doubling):
    with pytest.raises(Exception):
        metric.katok_entropy(doubling, UniformSampler(doubling.domain),
                             [2, 4], [0.1, 0.05, 0.025], 0.1, 1000, seed=1)


def test_contraction_doubling_exact(doubling):
    # ratios are exactly 2^-j / sigma^{-j/2} <= 1 for sigma = 1.4
    p = hyp.HyperbolicParams(1.4, 0.1, 0.25, 40)
    rep = metric.backward_contraction_check(doubling, 0.3217, 12, p,
                                            pairs=200, delta1=0.05, seed=3)
    assert rep.pass_fraction == 1.0
    assert rep.worst_ratio <= 1.0 + 1e-9


def test_calibrate_delta1_refuses_when_no_radius_passes(quadratic):
    # a pass fraction cannot reach 1.01, so no radius may be handed out,
    # not even one that every pilot pair passes
    p = hyp.default_params(quadratic, n_max=100)
    with pytest.raises(SamplingError, match=r"best pass fraction is 1\.0; "
                                            r"set delta1 by hand"):
        metric.calibrate_delta1(quadratic, p, 21, threshold=1.01)


def test_contraction_requires_hyperbolic_time(quadratic):
    p = hyp.default_params(quadratic, n_max=50)
    rng = spawn_rng(1, "findnonhyp")
    found = None
    for _ in range(200):
        x = float(quadratic.domain.sample(rng, 1)[0])
        rec = hyp.hyperbolic_times(quadratic, x, p)
        missing = sorted(set(range(1, 51)) - set(rec.times.tolist()))
        if missing:
            found = (x, missing[-1])
            break
    assert found is not None
    with pytest.raises(ValueError):
        metric.backward_contraction_check(quadratic, found[0], found[1], p,
                                          pairs=50, delta1=0.01, seed=1)


def test_distortion_constant_jacobian(doubling):
    pot = constant(-math.log(2))
    k = metric.distortion_estimate(doubling, pot, 0.3217, 10, pairs=100,
                                   delta1=0.05, seed=4)
    assert k == pytest.approx(1.0, abs=1e-12)


def test_distortion_identical_pairs(doubling):
    pot = constant(-math.log(2))
    ys, _ = metric.sample_ball_pairs(doubling, 0.3217, 8, 0.05, 50, seed=5)
    from devgibbs.dynamics import birkhoff_sum
    s = birkhoff_sum(doubling, pot, ys, 8)
    r = np.exp(s - s)
    assert np.max(np.maximum(r, 1 / r)) == 1.0


def test_ball_intervals_match_membership(doubling):
    centers = np.array([0.1, 0.37, 0.52, 0.9])
    r_lo, r_hi = metric.ball_intervals(doubling, centers, 6, 0.05)
    for c, rl, rh in zip(centers, r_lo, r_hi):
        spec = metric.BallSpec(float(c), 6, 0.05)
        assert oracles.in_dynamical_ball(doubling, float(c + rh * 0.999), spec)
        assert not oracles.in_dynamical_ball(doubling,
                                             float((c + rh * 1.5) % 1.0), spec)
        assert oracles.in_dynamical_ball(doubling, float(c - rl * 0.999), spec)
    # the exact radius for the doubling map is eps * 2^-n
    assert np.allclose(r_lo + r_hi, 2 * 0.05 * 2.0 ** -6, rtol=1e-6)


BRANCH_FAMILIES = {
    "doubling": maps.make_doubling(),
    "perturbed_expanding": maps.make_perturbed_expanding(4, 0.55),
    "quadratic": maps.make_quadratic(2.0),
    "manneville_pomeau": maps.make_mp(0.5),
}


def _members(m, x, ys, n, eps):
    """``in_dynamical_ball`` for many points y at once."""
    dev = m.domain.distance(orbit(m, ys, n), orbit(m, x, n)[:, None])
    return np.max(dev, axis=0) <= eps


@given(st.sampled_from(sorted(BRANCH_FAMILIES)),
       st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 16),
       st.floats(1e-3, 0.2))
@example("quadratic", 0.505, 3, 0.2)  # the component crosses the turning point
@example("manneville_pomeau", 0.51, 4, 0.2)  # and stops at the jump
@example("perturbed_expanding", 0.16, 3, 0.2)  # the ball is not an interval
@settings(max_examples=200, deadline=None)
def test_ball_intervals_exact_component(name, u, n, eps):
    m = BRANCH_FAMILIES[name]
    circle = not hasattr(m.domain, "lo")
    x = u if circle else m.domain.lo + u * (m.domain.hi - m.domain.lo)
    # near the turning point a double-precision orbit resolves a level-j
    # displacement only to about one ulp of 1 - a x^2, too coarse for the
    # margins below: membership itself is undecided there
    assume(circle or name != "quadratic"
           or np.min(np.abs(orbit(m, x, n)[:-1]), initial=1.0) > 1e-3)
    r_lo, r_hi = metric.ball_intervals(m, np.array([x]), n, eps)
    for sign, r in ((-1.0, float(r_lo[0])), (1.0, float(r_hi[0]))):
        assert 0.0 <= r <= eps
        margin = max(1e-12, 1e-9 * r)
        scan = x + sign * np.linspace(0.0, max(r - margin, 0.0), 1000)
        if circle:
            scan %= 1.0
        assert np.all(_members(m, x, scan, n, eps))
        edge = x + sign * (r + margin)
        if circle:
            edge %= 1.0
        elif not m.domain.lo <= edge <= m.domain.hi:
            continue  # the component ends at the domain edge
        assert r == eps or not oracles.in_dynamical_ball(
            m, edge, metric.BallSpec(x, n, eps))


@pytest.mark.parametrize("d", [2, 4])
def test_ball_intervals_linear_closed_form(d):
    # for x -> d x mod 1 the component is x +- eps d^-n; at d = 4, eps = 0.2
    # the ball also has other pieces, which bisection used to run into
    m = maps.make_perturbed_expanding(d, 0.0)
    xs = spawn_rng(3, "closedform").random(500)
    for n in (0, 2, 5, 9):
        for eps in (0.2, 0.05):
            for r in metric.ball_intervals(m, xs, n, eps):
                assert np.max(np.abs(r - eps * float(d) ** -n)) <= 1e-15


def test_ball_intervals_need_a_branch_structure(doubling):
    bare = dataclasses.replace(doubling, branches=None)
    with pytest.raises(CapabilityError, match="doubling: no branch structure"):
        metric.ball_intervals(bare, np.array([0.3]), 4, 0.05)
