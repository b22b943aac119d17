import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devgibbs import maps
from devgibbs.domain import Circle, Cylinder, frac
from devgibbs.dynamics import (Observable, PotentialModel, birkhoff_sum,
                               evaluate, orbit, walk)
from devgibbs.errors import (CapabilityError, DomainError, EvaluationError,
                             SingularityError)
from devgibbs.observables import make_observable
from helpers import count_steps
import oracles
from oracles import expansion_cocycle, truncated_distance


def test_evaluate_doubling(doubling):
    assert evaluate(doubling, 0.2) == pytest.approx(0.4, abs=1e-15)


def test_evaluate_quadratic_at_zero(quadratic):
    assert evaluate(quadratic, 0.0) == 1.0


def test_evaluate_mp_second_branch(mp):
    assert evaluate(mp, 0.75) == pytest.approx(0.5, abs=1e-15)


def test_evaluate_rejects_out_of_domain(quadratic):
    with pytest.raises(DomainError):
        evaluate(quadratic, 1.5)


def test_orbit_period_two(doubling):
    o = orbit(doubling, 1 / 3, 2)
    assert o == pytest.approx([1 / 3, 2 / 3, 1 / 3], abs=1e-12)


def test_orbit_quadratic_fixed(quadratic):
    assert orbit(quadratic, 1.0, 2) == pytest.approx([1.0, -1.0, -1.0])


def test_orbit_mp_indifferent_point(mp):
    assert np.all(orbit(mp, 0.0, 5) == 0.0)


def test_orbit_determinism(doubling):
    a = orbit(doubling, 0.123456789, 200)
    b = orbit(doubling, 0.123456789, 200)
    assert np.array_equal(a, b)


def test_walk_steps_n_times(quadratic):
    m, sizes = count_steps(quadratic)
    xs = np.array([0.1, 0.2, 0.3])
    seen = [(j, cur.copy()) for j, cur in walk(m, xs, 5)]
    assert [j for j, _ in seen] == list(range(6))
    assert sizes == [3] * 5
    assert np.array_equal([cur for _, cur in seen], orbit(quadratic, xs, 5))


def test_walk_stops_once_no_point_is_live(quadratic):
    m, sizes = count_steps(quadratic)
    steps = walk(m, [0.1, 0.2], 5)
    seen = []
    for j, cur in steps:
        seen.append(j)
        steps.keep(np.zeros(len(cur), dtype=bool))
    assert seen == [0] and sizes == []
    # an empty batch yields once, and is never stepped
    assert [j for j, _ in walk(m, np.empty(0), 5)] == [0]
    assert sizes == []
    g = make_observable("identity", m)
    assert birkhoff_sum(m, g, np.empty(0), 3).shape == (0,)


def test_walk_keeps_by_mask_or_index(quadratic):
    m, sizes = count_steps(quadratic)
    xs = np.array([0.1, 0.2, 0.3, 0.4])
    ref = orbit(quadratic, xs, 3)
    steps = walk(m, xs, 3)
    seen = {}
    for j, cur in steps:
        seen[j] = cur.copy()
        if j == 0:
            steps.keep(np.array([True, False, True, True]))  # drops 0.2
        elif j == 1:
            steps.keep(np.array([0, 2]))  # of 0.1, 0.3, 0.4: drops 0.3
    assert sizes == [3, 2, 2]
    assert np.array_equal(seen[1], ref[1, [0, 2, 3]])
    for j in (2, 3):
        assert np.array_equal(seen[j], ref[j, [0, 3]])
    with pytest.raises(DomainError):
        walk(quadratic, [0.3, 1.1], 3)  # checked before any step


def test_walk_scalar_start_point(mp):
    m, sizes = count_steps(mp)
    states = [float(cur) for _, cur in walk(m, 0.75, 2)]
    assert states == list(orbit(mp, 0.75, 2))
    assert sizes == [1, 1]
    assert evaluate(mp, 0.75) == states[1]


def test_birkhoff_constant(doubling):
    g = Observable(fn=lambda x: np.full(np.shape(x), 5.0), label="five")
    assert birkhoff_sum(doubling, g, 0.9, 7) == pytest.approx(35.0)


def test_birkhoff_identity_on_period_two(doubling):
    g = Observable(fn=lambda x: np.asarray(x, dtype=float), label="id")
    assert birkhoff_sum(doubling, g, 1 / 3, 2) == pytest.approx(1.0)


def test_birkhoff_log_deriv_uniform(doubling):
    g = Observable(fn=lambda x: np.log(np.abs(doubling.deriv(x))), label="ld")
    assert birkhoff_sum(doubling, g, 0.3141, 10) == pytest.approx(
        10 * math.log(2), rel=1e-12)


def test_birkhoff_nonfinite_raises(quadratic):
    def logx(x):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(np.asarray(x)))

    g = Observable(fn=logx, label="logx")
    with pytest.raises(EvaluationError) as exc:
        birkhoff_sum(quadratic, g, 0.0, 3)
    assert exc.value.index == 0


def test_birkhoff_nonfinite_index_past_zero(doubling):
    # 0.25 -> 0.5 -> 0: log|x| is first non-finite at orbit index 2
    def logx(x):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(np.asarray(x)))

    g = Observable(fn=logx, label="logx")
    for x in (0.25, np.array([0.3, 0.25])):
        with pytest.raises(EvaluationError) as exc:
            birkhoff_sum(doubling, g, x, 3)
        assert exc.value.index == 2


def test_cocycle_doubling(doubling):
    assert expansion_cocycle(doubling, 0.77, 3) == pytest.approx([0.5] * 3)


def test_cocycle_quadratic_first_entry(quadratic):
    assert expansion_cocycle(quadratic, 0.5, 1)[0] == pytest.approx(0.5)


def test_cocycle_viana_first_entry():
    v = maps.make_viana(16, 2.0, 0.01)
    # at (0, 0.5) the Jacobian is diag(16, -2); the inverse norm is 1/2
    entry = expansion_cocycle(v, np.array([0.0, 0.5]), 1)[0]
    assert entry == pytest.approx(0.5, rel=1e-12)


def test_cocycle_consistency(quadratic):
    inv = expansion_cocycle(quadratic, 0.3, 12)
    prod = np.prod(inv)
    log_sum = np.exp(np.sum(np.log(inv)))
    assert prod == pytest.approx(log_sum, rel=1e-10)


def test_cocycle_near_critical_raises(quadratic):
    with pytest.raises(SingularityError) as exc:
        expansion_cocycle(quadratic, 1e-15, 1)
    assert exc.value.index == 0


def test_cocycle_near_critical_index_past_zero(quadratic):
    # f(sqrt(1/2)) rounds to -2.2e-16, within NEAR_CRITICAL_TOL of 0
    with pytest.raises(SingularityError) as exc:
        expansion_cocycle(quadratic, math.sqrt(0.5), 3)
    assert exc.value.index == 1


def test_truncated_distance_far():
    q = maps.make_quadratic(2.0)
    assert truncated_distance(q, 0.8, 0.01) == 1.0


def test_truncated_distance_near():
    q = maps.make_quadratic(2.0)
    assert truncated_distance(q, 0.001, 0.01) == pytest.approx(0.001)


def test_truncated_distance_empty_critical_set(mp):
    xs = np.linspace(0, 1, 17)
    assert np.all(truncated_distance(mp, xs, 0.05) == 1.0)


def point_preimages(m, y):
    """The solutions of f(x) = y: the preimage of the one-point set {y}."""
    pre = oracles.preimage(m.branches, m.branches.ball(y, 0.0))
    assert all(a == b for a, b in pre.segments)
    return [a for a, _ in pre.segments]


def test_inverse_branches_doubling(doubling):
    assert point_preimages(doubling, 0.5) == pytest.approx([0.25, 0.75])


def test_inverse_branches_quadratic_degenerate(quadratic):
    assert point_preimages(quadratic, 1.0) == [0.0]


def test_inverse_branches_degree_four(pe40):
    # the preimage at 1 is the point 0, counted once
    assert point_preimages(pe40, 0.0) == pytest.approx([0, 0.25, 0.5, 0.75])


def test_inverse_branches_unsupported(viana):
    assert viana.branches is None
    with pytest.raises(CapabilityError):
        oracles.verify_C(viana, [0.1, 0.05, 0.025], anchors=[[0.1, 0.2]])


@pytest.mark.parametrize("family,make", [
    ("doubling", lambda: maps.make_doubling()),
    ("quadratic", lambda: maps.make_quadratic(2.0)),
    ("mp", lambda: maps.make_mp(0.5)),
    ("pe", lambda: maps.make_perturbed_expanding(4, 0.55)),
])
def test_branch_closure_on_grid(family, make):
    m = make()
    if hasattr(m.domain, "lo"):
        grid = np.linspace(m.domain.lo + 1e-3, m.domain.hi - 1e-3, 33)
    else:
        grid = np.linspace(0.0, 1.0, 33, endpoint=False)
    for y in grid:
        pre = point_preimages(m, float(y))
        assert len(pre) == getattr(m.branches, "degree", 2)
        for x in pre:
            assert float(m.domain.distance(evaluate(m, x), y)) <= 1e-9


@pytest.mark.parametrize("make", [
    lambda: maps.make_doubling(),
    lambda: maps.make_quadratic(2.0),
    lambda: maps.make_mp(0.5),
    lambda: maps.make_perturbed_expanding(4, 0.55),
    lambda: maps.make_viana(16, 2.0, 0.01),
])
def test_domain_invariance(make):
    m = make()
    rng = np.random.default_rng(12)
    pts = m.domain.sample(rng, 500)
    cur = pts
    for _ in range(20):
        cur = m.domain.clamp(m.step(cur))
        assert m.domain.contains(cur)


ULP_HALF = (np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0))
CIRCLE_EDGES = (0.0, 5e-324, *ULP_HALF, np.nextafter(1.0, 0.0))


def _edge_points(m):
    """Domain ends, 0.5 +- 1 ulp, critical points, jumps, fiber ends."""
    dom = m.domain
    if dom.ndim == 2:
        fibers = (dom.fiber_lo, np.nextafter(dom.fiber_lo, 0.0), -1.0, 0.0,
                  *ULP_HALF, 1.0, np.nextafter(dom.fiber_hi, 0.0),
                  dom.fiber_hi)
        return np.array([(t, x) for t in CIRCLE_EDGES for x in fibers])
    if hasattr(dom, "lo"):
        return np.array([dom.lo, np.nextafter(dom.lo, dom.hi), 0.0, *ULP_HALF,
                         np.nextafter(dom.hi, dom.lo), dom.hi])
    return np.array(CIRCLE_EDGES)


FAMILY_MAKERS = {
    "doubling": maps.make_doubling,
    "quadratic": lambda: maps.make_quadratic(2.0),
    "mp": lambda: maps.make_mp(0.5),
    "pe4": lambda: maps.make_perturbed_expanding(4, 0.55),
    "viana": lambda: maps.make_viana(16, 2.0, 0.01),
}


@pytest.mark.parametrize("make", FAMILY_MAKERS.values(), ids=FAMILY_MAKERS)
def test_step_stays_in_domain(make):
    # the MapSystem contract: step images need no clamp (on the circle
    # tol=0 also means strictly below 1.0)
    m = make()
    pts = np.concatenate([m.domain.sample(np.random.default_rng(3), 20000),
                          _edge_points(m)])
    assert m.domain.contains(m.step(pts), tol=0)
    ref = np.empty((201,) + pts.shape)
    ref[0] = cur = pts
    for j in range(200):
        cur = m.domain.clamp(m.step(cur))
        ref[j + 1] = cur
    assert np.array_equal(orbit(m, pts, 200), ref)


@pytest.mark.parametrize("make", FAMILY_MAKERS.values(), ids=FAMILY_MAKERS)
def test_birkhoff_sum_adds_in_orbit_order(make):
    # a running sum over the orbit, bit for bit (not numpy's pairwise sum)
    m = make()
    g = make_observable("cos2pi", m)
    pts = m.domain.sample(np.random.default_rng(4), 64)
    for x in (pts, pts[0]):
        orb = orbit(m, x, 39)
        ref = g(orb[0])
        for row in orb[1:]:
            ref = ref + g(row)
        assert np.array_equal(birkhoff_sum(m, g, x, 40), ref)


def test_chart_folds_negative_zero_remainder():
    # (-1e-20) % 1.0 == 1.0, which lies outside the [0, 1) chart
    assert Circle().require(-1e-20) == 0.0
    assert Cylinder(-1.0, 1.0).require([-1e-20, 0.0])[0] == 0.0
    assert orbit(maps.make_doubling(), -1e-20, 2)[0] == 0.0


EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 1e-17, -1e-17, -1e-13,
                1.0 - 2.0 ** -53, 2.0 ** 53, -2.0 ** 53, 1e300, -1e300]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                max_size=40))
@settings(max_examples=300, deadline=None)
def test_frac_matches_float_remainder_bitwise(xs):
    x = np.array(xs + EDGE_DOUBLES)
    assert np.array_equal(frac(x).view(np.int64), (x % 1.0).view(np.int64))
    # Circle.clamp folds twice, so a tiny negative x lands on 0, not 1
    assert np.array_equal(frac(frac(x)).view(np.int64),
                          (x % 1.0 % 1.0).view(np.int64))


def test_no_clamp_on_a_step_result():
    # every step keeps its image in the domain; clamping it again is waste
    pattern = re.compile(r"clamp\(\s*(?:[\w.]+\.)?step\(")
    assert pattern.search("m.domain.clamp(m.step(cur))")
    assert pattern.search("self.m.domain.clamp(\n    step(x))")
    offenders = [path.name
                 for path in sorted(Path(maps.__file__).parent.glob("*.py"))
                 if pattern.search(path.read_text())]
    assert offenders == []


def test_stepping_loops_check_their_input(quadratic):
    # step keeps the domain only from inside it: on quadratic(2) the
    # point 1.1 runs off to -inf, so every loop that steps points it was
    # handed checks them once, on the way in
    from devgibbs.deviation import (DeviationExperiment, free_energy_table,
                                    rate_curve)
    from devgibbs.gibbs import ball_measure
    from devgibbs.hyperbolic import HyperbolicParams, first_times_batch
    from devgibbs.metric import BallSpec
    from devgibbs.sampling import EmpiricalSampler

    outside = EmpiricalSampler(points=np.array([0.3, 1.1]))
    g = make_observable("identity", quadratic)
    exp = DeviationExperiment(map=quadratic, g=g, c=0.0, sampler=outside,
                              n_grid=(4, 8), samples=1000, seed=0)
    loops = [
        lambda: orbit(quadratic, outside.points, 3),
        lambda: rate_curve(exp),
        lambda: free_energy_table(quadratic, outside, g, [0.5], 4, 1000, 0),
        lambda: ball_measure(quadratic, outside, BallSpec(1.0, 2, 0.2),
                             1000, 0),
        lambda: first_times_batch(quadratic, outside.points,
                                  HyperbolicParams(1.2, 0.1, 0.25, 50)),
    ]
    for run in loops:
        with pytest.raises(DomainError):
            run()


@given(st.floats(min_value=-0.999, max_value=0.999),
       st.floats(min_value=-0.999, max_value=0.999))
@settings(max_examples=60, deadline=None)
def test_truncated_distance_lipschitz(x, y):
    q = maps.make_quadratic(2.0)
    delta = 0.25
    tx = float(truncated_distance(q, x, delta))
    ty = float(truncated_distance(q, y, delta))
    if tx < 1.0 and ty < 1.0:
        assert abs(tx - ty) <= abs(x - y) + 1e-12


def test_potential_model_psi():
    pot = PotentialModel(phi=lambda x: np.asarray(x) * 2.0, pressure=0.3)
    assert pot.psi(0.5) == pytest.approx(1.0 - 0.3)
    assert pot.lam == pytest.approx(math.exp(0.3))
