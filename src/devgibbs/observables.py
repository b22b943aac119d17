"""Built-in observable registry.

Scalar-domain observables act on the point itself; cylinder variants read
the angle coordinate for the phase-based ones and the fiber for identity.
``log_deriv`` is the log absolute Jacobian determinant and is flagged
singular: it produces non-finite values on the critical set, which the
Birkhoff machinery reports as evaluation errors.  Each observable is a
plain ``fn(x, out=None)`` that writes its values to ``out`` (never to x)
or to a fresh array.
"""

from __future__ import annotations

import numpy as np

from .dynamics import MapSystem, jacobian_data
from .errors import ConfigError


def _coordinate(m: MapSystem, x, which: str):
    x = np.asarray(x, dtype=float)
    if m.domain.ndim == 1:
        return x
    return x[..., 0] if which == "angle" else x[..., 1]


def _on(read, body):
    """``fn(x, out=None)``: ``body(read(x), out)``, with a fresh float
    array for ``out`` when none is given."""
    def fn(x, out=None):
        c = read(x)
        return body(c, np.empty(np.shape(c)) if out is None else out)
    return fn


def _spin(c, out):
    np.less(c, 0.5, out=out)  # 1.0 below 1/2, else 0.0
    out *= 2.0
    return np.subtract(out, 1.0, out=out)


def _cos(c, out):
    return np.cos(np.multiply(2.0 * np.pi, c, out=out), out=out)


def _log_abs(c, out):
    return np.log(np.abs(c, out=out), out=out)


def make_observable(name: str, m: MapSystem, table=None):
    angle = lambda x: _coordinate(m, x, "angle")
    fiber = lambda x: _coordinate(m, x, "fiber")
    if name == "indicator_half":
        return _on(angle, lambda c, out: np.less(c, 0.5, out=out))
    if name == "spin_half":
        return _on(angle, _spin)
    if name == "cos2pi":
        return _on(angle, _cos)
    if name == "identity":
        return _on(fiber, np.positive)
    if name == "log_deriv":
        return _on(lambda x: jacobian_data(m, x)[2], _log_abs)
    if name == "piecewise_linear":
        if table is None:
            raise ConfigError("piecewise_linear needs a table of x,y rows")
        xs = np.asarray([r[0] for r in table], dtype=float)
        ys = np.asarray([r[1] for r in table], dtype=float)
        if np.any(np.diff(xs) <= 0):
            raise ConfigError("piecewise_linear abscissae must increase")
        return _on(fiber, lambda c, out: np.positive(np.interp(c, xs, ys),
                                                     out=out))
    raise ConfigError(f"unknown observable {name!r}; see list-observables")

OBSERVABLES = {
    "indicator_half": "1 on [0, 1/2), 0 elsewhere (discontinuous)",
    "spin_half": "+1 on [0, 1/2), -1 elsewhere (discontinuous)",
    "cos2pi": "cos(2 pi x), angle coordinate on the cylinder",
    "identity": "the point itself (fiber coordinate on the cylinder)",
    "log_deriv": "log |det Df|, singular on the critical set",
    "piecewise_linear": "linear interpolation of an x,y table from file",
}
