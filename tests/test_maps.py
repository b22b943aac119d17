import math

import numpy as np
import pytest

from devgibbs import maps
from devgibbs.branching import newton_inverse
from devgibbs.dynamics import orbit
from devgibbs.errors import CapabilityError, ConfigError, ParameterError
from devgibbs.metric import ball_intervals
from helpers import evaluate
import oracles


def test_family_defaults_are_constructor_keywords():
    assert maps.family_defaults("perturbed_expanding") == {"d": 4, "a": 0.55}
    assert maps.family_defaults("doubling") == {}
    pe = maps.make_family("perturbed_expanding", {"a": 0.3})
    assert pe.params["d"] == 4.0 and pe.params["a"] == 0.3


def test_quadratic_values():
    q = maps.make_quadratic(2.0)
    assert evaluate(q, 0.6) == pytest.approx(0.28)
    q14 = maps.make_quadratic(1.4)
    assert evaluate(q14, 1.0) == pytest.approx(-0.4)


def test_quadratic_fixed_points_match_formula():
    # roots of 1 - 2x^2 = x from the quadratic formula
    a = 2.0
    roots = np.roots([-a, -1.0, 1.0])
    q = maps.make_quadratic(a)
    for r in roots:
        assert evaluate(q, float(r)) == pytest.approx(float(r), abs=1e-12)
    assert sorted(roots) == pytest.approx([-1.0, 0.5])


def test_quadratic_parameter_range():
    with pytest.raises(ParameterError):
        maps.make_quadratic(0.0)
    with pytest.raises(ParameterError):
        maps.make_quadratic(2.5)


def test_mp_values():
    mp = maps.make_mp(0.5)
    assert float(mp.deriv(0.0)) == 1.0
    assert evaluate(mp, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert evaluate(mp, 0.25) == pytest.approx(0.4267766952966369, rel=1e-12)


def test_mp_parameter_range():
    with pytest.raises(ParameterError):
        maps.make_mp(0.0)
    with pytest.raises(ParameterError):
        maps.make_mp(1.0)


def test_perturbed_values():
    dbl = maps.make_perturbed_expanding(2, 0.0)
    assert evaluate(dbl, 0.3) == pytest.approx(0.6)
    pe = maps.make_perturbed_expanding(4, 0.55)
    assert float(pe.deriv(0.0)) == pytest.approx(4 - 2 * math.pi * 0.55)
    assert float(pe.deriv(0.0)) < 1.0


def test_perturbed_local_diffeo_grid_minimum():
    pe = maps.make_perturbed_expanding(4, 0.55)
    grid = np.linspace(0.0, 1.0, 4096, endpoint=False)
    assert float(np.min(pe.deriv(grid))) > 0.0


def test_perturbed_parameter_range():
    with pytest.raises(ParameterError):
        maps.make_perturbed_expanding(1, 0.0)
    with pytest.raises(ParameterError):
        maps.make_perturbed_expanding(4, 4 / (2 * math.pi))


def test_perturbed_slow_channel_has_no_fixed_point():
    # derivative dips below 1 near 0 but the rotation offset removes the
    # fixed point there, so orbits pass through in finitely many steps
    pe = maps.make_perturbed_expanding(4, 0.55)
    x = 1e-6
    for n in range(200):
        x = float(evaluate(pe, x))
        if x > 0.25:
            break
    assert x > 0.25


def test_doubling_composition_is_binary_shift():
    dbl = maps.make_perturbed_expanding(2, 0.0)
    x = 0.2721893478
    o = orbit(dbl, x, 30)
    for n in range(31):
        assert float(dbl.domain.distance(o[n], (x * 2 ** n) % 1.0)) <= 1e-9


def test_viana_values():
    v = maps.make_viana(16, 2.0, 0.01)
    img = evaluate(v, np.array([0.0, 0.0]))
    assert img[0] == 0.0
    assert img[1] == pytest.approx(1.01)


def test_viana_parameter_ranges():
    with pytest.raises(ParameterError):
        maps.make_viana(8, 2.0, 0.01)
    with pytest.raises(ParameterError):
        maps.make_viana(16, 2.0, 0.6)


def test_viana_alpha_zero_fiber_bitwise(quadratic):
    v = maps.make_viana(16, 2.0, 0.0)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x0 = float(2 * rng.random() - 1)
        th0 = float(rng.random())
        fiber = orbit(v, np.array([th0, x0]), 150)[:, 1]
        quad = orbit(quadratic, x0, 150)
        assert np.array_equal(fiber, quad)


def test_viana_theta_lyapunov_exact():
    v = maps.make_viana(16, 2.0, 0.01)
    J = v.deriv(np.array([0.37, 0.2]))
    assert J[0, 0] == 16.0 and J[0, 1] == 0.0


def test_family_registry_dispatch():
    m = maps.make_family("mp", {"alpha": 0.5})
    assert m.label.startswith("manneville_pomeau")
    with pytest.raises(ParameterError):
        maps.make_family("nosuch")


def test_verify_h_quadratic():
    fit = oracles.verify_H(maps.make_quadratic(2.0), samples=3000, seed=1)
    assert fit.ok and not fit.vacuous
    assert fit.beta == pytest.approx(1.0)
    # |f'(x)| = 4 dist(x, C), so the admissible constant sits at ~4
    assert 3.5 <= fit.B <= 5.0


def test_verify_h_doubling_vacuous(doubling):
    fit = oracles.verify_H(doubling, samples=100, seed=1)
    assert fit.vacuous and fit.ok and fit.B == 1.0


def test_verify_h_viana_sampled():
    fit = oracles.verify_H(maps.make_viana(16, 2.0, 0.01), samples=3000, seed=2)
    assert fit.ok
    assert np.isfinite(fit.B)


def test_verify_c_doubling_exact(doubling):
    fit = oracles.verify_C(doubling, [2 ** -k for k in range(4, 8)],
                           samples=8, seed=2)
    assert fit.gamma == pytest.approx(1.0, abs=1e-9)
    assert fit.L == pytest.approx(0.5, rel=1e-9)


@pytest.mark.parametrize("make,L,tol", [
    (maps.make_doubling, 0.5, 1e-9),
    (lambda: maps.make_perturbed_expanding(4, 0.0), 0.25, 1e-9),
    (lambda: maps.make_perturbed_expanding(4, 0.55), 1 / (4 - 1.1 * math.pi),
     1e-3),
])
def test_verify_c_across_the_seam(make, L, tol):
    # targets about f(0) = omega: for omega = 0 the target wraps the seam;
    # for a = 0.55, f'(0) < 1 makes the preimage arc through 0 the longest
    m = make()
    fit = oracles.verify_C(m, [2 ** -k for k in range(10, 14)],
                           anchors=[m.params["omega"]])
    assert fit.gamma == pytest.approx(1.0, abs=tol)
    assert fit.L == pytest.approx(L, rel=tol)


def test_verify_c_quadratic_near_one():
    # targets [1 - eps, 1] pull back to |x| <= sqrt(eps/2): exponent 1/2
    q = maps.make_quadratic(2.0)
    eps_grid = [2 ** -k for k in range(5, 10)]
    fit = oracles.verify_C(q, eps_grid, seed=3, anchors=[1.0])
    assert fit.gamma == pytest.approx(0.5, abs=0.02)
    assert fit.L == pytest.approx(math.sqrt(2.0), rel=0.05)


def test_verify_c_perturbed_near_affine():
    pe = maps.make_perturbed_expanding(4, 0.55)
    fit = oracles.verify_C(pe, [2 ** -k for k in range(3, 8)],
                           samples=16, seed=2)
    assert fit.gamma >= 0.9


def test_verify_c_rows_grow_with_eps():
    # the same centres at every eps give nested targets and preimages
    pe = maps.make_perturbed_expanding(4, 0.55)
    fit = oracles.verify_C(pe, [2 ** -k for k in range(3, 8)],
                           samples=16, seed=2)
    arcs = [arc for _, arc in sorted(fit.table)]
    assert arcs == sorted(arcs)


def test_verify_c_needs_three_gridpoints(doubling):
    with pytest.raises(ConfigError):
        oracles.verify_C(doubling, [0.1, 0.05], samples=4, seed=0)


@pytest.mark.parametrize("make", [
    lambda: maps.make_perturbed_expanding(4, 0.55), lambda: maps.make_mp(0.5)],
    ids=["pe4", "mp"])
def test_newton_inverse_keeps_converged_roots(make, monkeypatch):
    # a Newton step that rounds onto t has converged: bisecting there
    # throws the root away and costs ~50 iterations, one fwd call each
    calls = []

    def counted(fwd, dfwd, y, lo, hi):
        calls.append(0)

        def f(t):
            calls[-1] += 1
            return fwd(t)

        return newton_inverse(f, dfwd, y, lo, hi)

    monkeypatch.setattr(maps, "newton_inverse", counted)
    m = make()
    xs = np.sort(m.domain.sample(np.random.default_rng(1), 200))
    ball_intervals(m, xs, 8, 0.2)
    assert calls and np.median(calls) <= 20
