"""Constructors of the benchmark map families.

Five families are shipped:

* ``doubling`` -- x -> 2 x mod 1 on the circle, the uniformly expanding
  benchmark (``perturbed_expanding`` with d = 2, a = 0).
* ``quadratic`` -- f(x) = 1 - a x^2 on [-1, 1], critical set {0}.  The
  textbook parabola needs the symmetric interval to be forward invariant,
  so that is the domain used here.
* ``manneville_pomeau`` -- the intermittent interval map with a neutral
  fixed point at 0 and a jump at 1/2.  Its critical set is empty: the
  obstruction to uniform expansion is the indifferent point, not a
  critical point, so only the derivative condition binds in the
  hyperbolic-time machinery.
* ``perturbed_expanding`` -- the degree-d circle map
  f(x) = d x - a sin(2 pi x) (mod 1), a local diffeomorphism for
  a < d / (2 pi).  With d = 4 and a between 3/(2 pi) and 4/(2 pi) the
  fixed point 0 becomes contracting, giving a concrete bifurcated region.
* ``viana`` -- the cylinder skew product
  (theta, x) -> (d theta mod 1, 1 - a x^2 + alpha cos(2 pi theta)).
  For a = 2 no fiber interval is exactly forward invariant once
  alpha > 0; ``step`` clips the fiber overflow (a band of width ~alpha
  near the fiber edges) to the boundary.  With alpha = 0 the fiber orbits
  reproduce the quadratic family bit for bit.

Every ``step(x, out=None)`` runs the formula's ufuncs in place, into
``out`` with ``x`` as its only scratch, or else on a copy of ``x``: both
give the same bits.  ``deriv(x, out=None)`` and ``crit_dist(x, out=None)``
write into ``out`` or a fresh array, the same bits either way, and
never write ``x``.  Each formula is written once: an interval map's
branch structure evaluates it as a one-step orbit, Newton inverses solve
with ``step`` and ``deriv``, and a circle map's ``step`` is the
fractional part of its ``lift``, which runs the same way.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import replace
from typing import Optional

import numpy as np

from .branching import (CircleBranches, IntervalBranches, MonotonePiece,
                        newton_inverse)
from .domain import Circle, Cylinder, Interval
from .dynamics import MapSystem, orbit
from .errors import ConfigError, ParameterError

TWO_PI = 2.0 * math.pi


def _with_pieces(m: MapSystem, pieces) -> MapSystem:
    """m with the branch structure of an interval map of these pieces,
    which evaluates f as the one-step orbit: ``dynamics.walk`` stays the
    one caller of ``step``."""
    return replace(m, branches=IntervalBranches(
        lambda t: orbit(m, t, 1)[1], pieces))


def _buffers(x, out):
    """A step's scratch and output: x and ``out``, or without ``out`` a
    copy of x and a fresh array."""
    x = np.array(x, dtype=float) if out is None else x
    return x, np.empty_like(x) if out is None else out


def _into(x, out):
    """A kernel's input as a float array, and its output: ``out``, or a
    fresh array."""
    x = np.asarray(x, dtype=float)
    return x, np.empty_like(x) if out is None else out


def _no_critical_set(x, out=None):
    """``crit_dist`` of a 1D map whose critical set is empty."""
    out = np.empty(np.shape(x)) if out is None else out
    out.fill(np.inf)
    return out


def make_quadratic(a: float = 2.0) -> MapSystem:
    """The parabola family f(x) = 1 - a x^2 on [-1, 1]."""
    if not (0.0 < a <= 2.0):
        raise ParameterError(f"quadratic parameter a={a} outside (0, 2]")

    def step(x, out=None):
        # |a x x| <= a <= 2 under monotone rounding, so 1 - a x x is in [-1, 1]
        x, out = _buffers(x, out)
        np.multiply(a, x, out=out)
        out *= x
        return np.subtract(1.0, out, out=out)

    def deriv(x, out=None):
        return np.multiply(-2.0 * a, x, out=out)

    def crit_dist(x, out=None):
        return np.abs(np.asarray(x, dtype=float), out=out)

    root = lambda y: np.sqrt(np.maximum((1.0 - y) / a, 0.0))
    pieces = (
        MonotonePiece(-1.0, 0.0, 1.0 - a, 1.0, inv_array=lambda y: -root(y)),
        MonotonePiece(0.0, 1.0, 1.0, 1.0 - a, inv_array=root),
    )
    return _with_pieces(MapSystem(
        label=f"quadratic(a={a})",
        family="quadratic",
        domain=Interval(-1.0, 1.0),
        params={"a": a},
        step=step,
        deriv=deriv,
        crit_dist=crit_dist,
    ), pieces)


def make_mp(alpha: float = 0.5) -> MapSystem:
    """The intermittent map x(1 + (2x)^alpha) / 2x - 1 on [0, 1]."""
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"intermittency exponent alpha={alpha} outside (0, 1)")

    def step(x, out=None):
        # x (1 + (2x)^alpha) <= 2x on [0, 1/2], and 2x - 1 is in (0, 1]
        # both branches everywhere: a masked ufunc loop is several times slower
        x, out = _buffers(x, out)
        left = x <= 0.5
        np.multiply(2.0, x, out=out)
        np.power(out, alpha, out=out)
        out += 1.0
        out *= x  # the left branch x (1 + (2x)^alpha)
        np.multiply(2.0, x, out=x)
        x -= 1.0  # the right branch 2x - 1
        np.copyto(out, x, where=~left)
        return out

    def deriv(x, out=None):
        # 1 + (1 + alpha) (2x)^alpha on [0, 1/2], 2 on the right branch
        x, out = _into(x, out)
        left = x <= 0.5
        np.multiply(2.0, x, out=out)
        np.power(out, alpha, out=out)
        out *= 1.0 + alpha
        out += 1.0
        np.copyto(out, 2.0, where=~left)
        return out

    def left_inv_array(y):
        # t <= t (1 + (2t)^alpha) <= 2t on [0, 1/2] brackets the root
        return newton_inverse(step, deriv, y, 0.5 * y, np.minimum(y, 0.5))

    pieces = (
        MonotonePiece(0.0, 0.5, 0.0, 1.0, inv_array=left_inv_array),
        MonotonePiece(0.5, 1.0, 0.0, 1.0, inv_array=lambda y: (y + 1.0) / 2.0),
    )
    return _with_pieces(MapSystem(
        label=f"manneville_pomeau(alpha={alpha})",
        family="manneville_pomeau",
        domain=Interval(0.0, 1.0),
        params={"alpha": alpha},
        step=step,
        deriv=deriv,
        crit_dist=_no_critical_set,
    ), pieces)


def _saddle_node_threshold(d: int, a: float) -> float:
    """Largest rotation offset at which dx - a sin(2 pi x) still has a
    fixed point in the slow channel near 0."""
    x_plus = math.acos((d - 1) / (TWO_PI * a)) / TWO_PI
    return (1 - d) * x_plus + a * math.sin(TWO_PI * x_plus)


def make_perturbed_expanding(d: int = 4, a: float = 0.55) -> MapSystem:
    """The circle map f(x) = d x + omega - a sin(2 pi x) mod 1.

    For a < (d-1)/(2 pi) the map is expanding everywhere and omega = 0.
    Past that threshold the derivative dips below 1 near 0; a fixed point
    there would be attracting and would break non-uniform expansion and
    topological exactness, so the rotation offset omega is set just past
    the saddle-node value: the contracting zone survives as a slow
    channel that orbits traverse in finitely many steps, which is the
    bifurcated-but-still-expanding regime the family is meant to probe.
    """
    if d < 2 or int(d) != d:
        raise ParameterError(f"degree d={d} must be an integer >= 2")
    d = int(d)
    if not (0.0 <= a < d / TWO_PI):
        raise ParameterError(
            f"perturbation a={a} outside [0, d/(2 pi)) = [0, {d / TWO_PI:.6f})")

    omega = 0.0
    if a > 0.0 and (d - TWO_PI * a) < 1.0:
        omega = 2.0 * _saddle_node_threshold(d, a)

    # x -> d x - a sin(2 pi x) increases from 0 (its derivative is at least
    # d - 2 pi a > 0), so the lift is >= omega >= 0 on [0, 1) and its
    # remainder mod 1 lies in [0, 1)
    if a == 0.0:

        def lift(x, out=None):
            x, out = _buffers(x, out)
            return np.multiply(d, x, out=out)

        def inv_lift_array(v):
            return v / d

    else:

        def lift(x, out=None):
            x, out = _buffers(x, out)
            np.multiply(d, x, out=out)
            out += omega
            np.multiply(TWO_PI, x, out=x)
            np.sin(x, out=x)
            x *= a
            return np.subtract(out, x, out=out)

        def inv_lift_array(v):
            # |a sin| <= a puts the root within a / d of (v - omega) / d
            c = (np.asarray(v, dtype=float) - omega) / d
            return newton_inverse(lift, deriv, v, c - a / d, c + a / d)

    def step(x, out=None):
        x, out = _buffers(x, out)
        lift(x, out)
        return np.subtract(out, np.floor(out, out=x), out=out)  # frac

    def deriv(x, out=None):
        # d - 2 pi a cos(2 pi x)
        x, out = _into(x, out)
        np.multiply(TWO_PI, x, out=out)
        np.cos(out, out=out)
        out *= TWO_PI * a
        return np.subtract(d, out, out=out)

    label = "doubling" if (d == 2 and a == 0.0) else f"perturbed_expanding(d={d}, a={a})"
    return MapSystem(
        label=label,
        family="perturbed_expanding",
        domain=Circle(),
        params={"d": float(d), "a": a, "omega": omega},
        step=step,
        deriv=deriv,
        crit_dist=_no_critical_set,
        branches=CircleBranches(degree=d, lift=lift,
                                inv_lift_array=inv_lift_array),
        float_horizon=52 / math.log2(d) if a == 0.0 else None,
    )


def make_doubling() -> MapSystem:
    """The doubling map: the uniformly expanding benchmark."""
    return make_perturbed_expanding(2, 0.0)


def make_viana(d: int = 16, a: float = 2.0, alpha: float = 0.01) -> MapSystem:
    """The cylinder skew product over theta -> d theta mod 1."""
    if d < 16 or int(d) != d:
        raise ParameterError(f"base degree d={d} must be an integer >= 16")
    d = int(d)
    if not (0.0 < a <= 2.0):
        raise ParameterError(f"fiber parameter a={a} outside (0, 2]")
    if not (0.0 <= alpha < 0.5):
        raise ParameterError(f"coupling alpha={alpha} outside [0, 0.5)")
    fiber = 1.0 + alpha
    dom = Cylinder(-fiber, fiber)

    def step(p, out=None):
        # alpha = 0 adds +-0.0 and clips nothing: quadratic, bit for bit
        p, out = _buffers(p, out)
        theta, x = p[..., 0], p[..., 1]
        angle, fib = out[..., 0], out[..., 1]
        np.multiply(a, x, out=fib)
        fib *= x
        np.subtract(1.0, fib, out=fib)
        np.multiply(TWO_PI, theta, out=x)
        np.cos(x, out=x)
        x *= alpha
        fib += x
        np.clip(fib, -fiber, fiber, out=fib)
        np.multiply(d, theta, out=angle)
        np.subtract(angle, np.floor(angle, out=theta), out=angle)  # frac
        return out

    def deriv(p, out=None):
        p = np.asarray(p, dtype=float)
        J = np.empty(p.shape[:-1] + (2, 2)) if out is None else out
        J[..., 0, 0], J[..., 0, 1] = d, 0.0
        J[..., 1, 0] = -TWO_PI * alpha * np.sin(TWO_PI * p[..., 0])
        J[..., 1, 1] = -2.0 * a * p[..., 1]
        return J

    def crit_dist(p, out=None):
        return np.abs(np.asarray(p, dtype=float)[..., 1], out=out)

    return MapSystem(
        label=f"viana(d={d}, a={a}, alpha={alpha})",
        family="viana",
        domain=dom,
        params={"d": float(d), "a": a, "alpha": alpha},
        step=step,
        deriv=deriv,
        crit_dist=crit_dist,
        branches=None,
        float_horizon=52 / math.log2(d),
    )


#: name -> (constructor, doc); the constructor's keywords are the [map] keys
FAMILIES = {
    "doubling": (make_doubling,
                 "doubling map on the circle (uniformly expanding benchmark)"),
    "quadratic": (make_quadratic, "f(x) = 1 - a x^2 on [-1, 1], a in (0, 2]"),
    "manneville_pomeau": (
        make_mp, "intermittent interval map, indifferent fixed point at 0"),
    "perturbed_expanding": (
        make_perturbed_expanding,
        "circle map d x + omega - a sin(2 pi x) mod 1, a < d/(2 pi)"),
    "viana": (make_viana, "cylinder skew product over theta -> d theta mod 1"),
}


def family_defaults(name: str) -> dict:
    """The [map] keys of a family with their default values."""
    sig = inspect.signature(FAMILIES[name][0])
    return {key: p.default for key, p in sig.parameters.items()}


def make_family(name: str, params: Optional[dict] = None) -> MapSystem:
    if name == "mp":
        name = "manneville_pomeau"
    if name not in FAMILIES:
        raise ParameterError(f"unknown family {name!r}; see list-families")
    params = params or {}
    takes = family_defaults(name)
    for key in params:
        if key not in takes:
            raise ConfigError(
                f"family = {name} takes no [map] key {key!r}; it takes "
                + (", ".join(takes) if takes else "none"))
    return FAMILIES[name][0](**params)

