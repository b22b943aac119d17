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


COVER_FAMILIES = {
    "doubling": maps.make_doubling(),
    "perturbed_expanding(4, 0.55)": maps.make_perturbed_expanding(4, 0.55),
    "perturbed_expanding(3, 0.1)": maps.make_perturbed_expanding(3, 0.1),
    "quadratic": maps.make_quadratic(2.0),
    "manneville_pomeau": maps.make_mp(0.5),
}


def test_covering_methods_agree():
    # the range cover of the full balls is the greedy cover of the N x N
    # full-ball membership matrix, pick for pick, where balls split too
    # (quadratic's turning point, MP's jump, perturbed_expanding(4, 0.55)
    # where f' < 1): sorted points make both break ties the same way
    for name, m in COVER_FAMILIES.items():
        pts = np.sort(m.domain.sample(spawn_rng(0, f"covertest-{name}"), 600))
        for n, eps in ((2, 0.2), (4, 0.1), (6, 0.05), (8, 0.2), (10, 0.1)):
            assert (metric.covering_number(m, pts, n, eps, 0.1)
                    == oracles.direct_cover(m, pts, n, eps, 0.1)), (name, n,
                                                                   eps)


def _centres_held(m, pts, own, lo, hi):
    """The set of sorted-point indices that each centre's ranges hold."""
    first, stop = metric._point_span(m, pts, pts[own] + lo - 1e-15,
                                     pts[own] + hi + 1e-15)
    held = [set() for _ in pts]
    for k, i, j in zip(own, first, stop):
        held[k].update(np.arange(i, j) % pts.size)
    return held


@pytest.mark.parametrize("name", sorted(COVER_FAMILIES))
def test_held_balls_hold_the_same_centres(name):
    # dropping the ranges that hold no centre at each pullback step keeps
    # every range that holds one, whole or as a part of a joined range
    m = COVER_FAMILIES[name]
    pts = np.sort(m.domain.sample(spawn_rng(2, f"held-{name}"), 200))
    for n, eps in ((3, 0.2), (8, 0.2), (6, 0.05)):
        full = metric.ball_intervals(m, pts, n, eps)
        held = metric.ball_intervals(m, pts, n, eps, held=True)
        assert np.bincount(held[0]).max() <= pts.size
        assert all(_centres_held(m, pts, k[None], a[None], b[None])[k]
                   for k, a, b in zip(*held))  # each range holds one
        assert (_centres_held(m, pts, *held)
                == _centres_held(m, pts, *full)), (name, n, eps)
        for k, a, b in zip(*held):  # inside a range of the full ball
            mine = full[0] == k
            assert np.any((full[1][mine] <= a) & (b <= full[2][mine]))


def test_covering_counts_balls_past_max_components():
    # perturbed_expanding(4, 0.55) at n = 12, eps = 0.2: some full ball has
    # more than MAX_COMPONENTS ranges, but at most one per sample point
    # holds a sample point, and the cover reads only those
    m = COVER_FAMILIES["perturbed_expanding(4, 0.55)"]
    pts = np.sort(m.domain.sample(spawn_rng(0, "past-max"), 300))
    with pytest.raises(ConfigError, match="n=12, eps=0.2"):
        metric.ball_intervals(m, pts, 12, 0.2)
    assert (metric.covering_number(m, pts, 12, 0.2, 0.1)
            == oracles.direct_cover(m, pts, 12, 0.2, 0.1))


def test_covering_cylinder_takes_no_arc_path(viana):
    # the cover reads 1D ball intervals at every size; a cylinder family
    # gets their typed refusal, not an N x N membership matrix
    pts = viana.domain.sample(spawn_rng(1, "cyl"), 1501)
    for size in (1501, 40):
        with pytest.raises(ConfigError, match="only applies to 1D maps"):
            metric.covering_number(viana, pts[:size], 2, 0.3, 0.1)


def test_covering_scale_doubling(doubling):
    # covering 0.9 of the circle with balls of length 2 eps 2^-n
    pts = spawn_rng(1, "coverscale").random(10000)
    count = metric.covering_number(doubling, pts, 5, 0.1, 0.1)
    ideal = 0.9 / (2 * 0.1 * 2 ** -5)
    assert ideal / 2 <= count <= ideal * 2


def test_covering_monotonicity(doubling):
    pts = spawn_rng(2, "covermono").random(3000)
    c_eps = [metric.covering_number(doubling, pts, 4, e, 0.1)
             for e in (0.2, 0.1, 0.05)]
    assert c_eps[0] <= c_eps[1] <= c_eps[2]
    c_n = [metric.covering_number(doubling, pts, n, 0.1, 0.1)
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


def _range_cover(lo, hi, npts, need):
    """``_greedy_range_cover`` with candidate k owning range k alone."""
    return metric._greedy_range_cover(np.arange(len(lo)), lo, hi, npts, need)


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
    assert (_cover_or_stall(_range_cover, *inst)
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
    assert _range_cover(lo, hi, npts, need) == count
    assert _eager_range_cover(lo, hi, npts, need) == count


# the range cover and its N x N membership-matrix reference
COVERS = pytest.mark.parametrize(
    "cover", [oracles.direct_cover, metric.covering_number],
    ids=["direct", "arc"])


@COVERS
def test_covering_need_rounding(doubling, cover):
    # balls of radius 0.01 round ten points 0.1 apart hold one point each,
    # so the count is the number of points needed: (1 - 0.7) * 10 is
    # 3.0000000000000004 in floating point and still needs 3 points
    pts = (np.arange(10) + 0.5) / 10
    counts = [cover(doubling, pts, 0, 0.01, delta)
              for delta in (0.0, 0.7, 1.0)]
    assert counts == [10, 3, 0]


@COVERS
def test_covering_every_point_of_a_circle_grid(doubling, cover):
    # radius 2/64 round the 64-point grid holds 5 points: ceil(64 / 5)
    pts = np.arange(64) / 64
    assert cover(doubling, pts, 0, 1 / 32, 0.0) == 13


def test_covering_stall_is_reported_in_points():
    with pytest.raises(ImpossibleCoverError, match="2 < 3 points"):
        _range_cover([0], [2], 4, 3)


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
        greedy = _cover_or_stall(_range_cover, lo, hi, npts, need)
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


def test_ball_pairs_refusal_names_depth_and_radius(doubling):
    # at n = 60 the doubling ball about 0.3 is narrower than one ulp
    with pytest.raises(SamplingError, match=r"n=60, delta1=0\.0625"):
        metric.sample_ball_pairs(doubling, 0.3, 60, 0.0625, 10, seed=1)


def test_contraction_doubling_exact(doubling):
    # ratios are exactly 2^-j / sigma^{-j/2} <= 1 for sigma = 1.4
    p = hyp.HyperbolicParams(1.4, 0.1, 0.25, 40)
    rep = metric.backward_contraction_check(doubling, 0.3217, 12, p,
                                            pairs=200, delta1=0.05, seed=3)
    assert rep.pass_fraction == 1.0
    assert rep.worst_ratio <= 1.0 + 1e-9


def test_calibrate_delta1_refuses_when_no_radius_passes(quadratic,
                                                        monkeypatch):
    # a pass fraction cannot reach 1.01, so no radius may be handed out,
    # not even one that every pilot pair passes
    monkeypatch.setattr(metric, "CALIBRATION_THRESHOLD", 1.01)
    p = hyp.default_params(quadratic, n_max=100)
    with pytest.raises(SamplingError, match=r"best pass fraction is 1\.0; "
                                            r"set delta1 by hand"):
        metric.calibrate_delta1(quadratic, p, 21)


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


def _through_centres(m, centers, n, eps):
    """(r_minus, r_plus) of the range of each ball through its centre."""
    own, lo, hi = metric.ball_intervals(m, centers, n, eps)
    mid = (lo <= 0.0) & (hi >= 0.0)
    assert np.array_equal(own[mid], np.arange(len(centers)))
    return -lo[mid], hi[mid]


def test_ball_intervals_match_membership(doubling):
    centers = np.array([0.1, 0.37, 0.52, 0.9])
    r_lo, r_hi = _through_centres(doubling, centers, 6, 0.05)
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
@example("quadratic", 0.505, 3, 0.2)  # the range crosses the turning point
@example("manneville_pomeau", 0.51, 4, 0.2)  # and stops at the jump
@example("perturbed_expanding", 0.16, 3, 0.2)  # the ball is not an interval
@settings(max_examples=200, deadline=None)
def test_ball_intervals_exact_component(name, u, n, eps):
    # every range of the full ball is checked against brute-force
    # membership: its inside is in the ball, and just past each end is
    # not, unless the end is cut at the radius or the domain edge
    m = BRANCH_FAMILIES[name]
    circle = not hasattr(m.domain, "lo")
    x = u if circle else m.domain.lo + u * (m.domain.hi - m.domain.lo)
    # near the turning point a double-precision orbit resolves a level-j
    # displacement only to about one ulp of 1 - a x^2, too coarse for the
    # margins below: membership itself is undecided there
    assume(circle or name != "quadratic"
           or np.min(np.abs(orbit(m, x, n)[:-1]), initial=1.0) > 1e-3)
    try:
        own, lo, hi = metric.ball_intervals(m, np.array([x]), n, eps)
    except ConfigError as exc:  # more than MAX_COMPONENTS ranges
        assert name == "perturbed_expanding", (name, str(exc))
        assert f"B(x, n={n}, eps={eps}) splits" in str(exc)
        return
    assert np.all(own == 0) and np.all(lo[1:] > hi[:-1])
    assert np.all((-eps <= lo) & (lo <= hi) & (hi <= eps))
    assert np.any((lo <= 0.0) & (hi >= 0.0))  # the range through x
    for a, b in zip(lo, hi):
        margin = max(1e-12, 1e-9 * (b - a))
        if b - a > 2.0 * margin:  # a narrower range is a rounding tangency
            scan = x + np.linspace(a + margin, b - margin, 1000)
            assert np.all(_members(m, x, scan % 1.0 if circle else scan, n,
                                   eps))
        for off in (a - margin, b + margin):
            if abs(off) > eps or np.any((lo <= off) & (off <= hi)):
                continue  # cut at the radius, or inside the next range
            edge = x + off
            if circle:
                edge %= 1.0
            elif not m.domain.lo <= edge <= m.domain.hi:
                continue  # the range ends at the domain edge
            assert not oracles.in_dynamical_ball(
                m, edge, metric.BallSpec(x, n, eps))


@pytest.mark.parametrize("d", [2, 4])
def test_ball_intervals_linear_closed_form(d):
    # for x -> d x mod 1 the range through x is x +- eps d^-n; at d = 4,
    # eps = 0.2 the ball also has other ranges
    m = maps.make_perturbed_expanding(d, 0.0)
    xs = spawn_rng(3, "closedform").random(500)
    for n in (0, 2, 5, 9):
        for eps in (0.2, 0.05):
            for r in _through_centres(m, xs, n, eps):
                assert np.max(np.abs(r - eps * float(d) ** -n)) <= 1e-15


def test_ball_intervals_need_a_branch_structure(doubling):
    bare = dataclasses.replace(doubling, branches=None)
    with pytest.raises(CapabilityError, match="doubling: no branch structure"):
        metric.ball_intervals(bare, np.array([0.3]), 4, 0.05)
