import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devgibbs import maps
from devgibbs.dynamics import (Observable, PotentialModel, birkhoff_sum,
                               evaluate, expansion_cocycle, orbit,
                               truncated_distance)
from devgibbs.errors import (CapabilityError, DomainError, EvaluationError,
                             SingularityError)


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
    pre = m.branches.preimage(m.branches.ball(y, 0.0))
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
        maps.verify_C(viana, [0.1, 0.05, 0.025], anchors=[[0.1, 0.2]])


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
