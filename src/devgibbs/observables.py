"""Built-in observable registry.

Scalar-domain observables act on the point itself; cylinder variants read
the angle coordinate for the phase-based ones and the fiber for identity.
``log_deriv`` is the log absolute Jacobian determinant and is flagged
singular: it produces non-finite values on the critical set, which the
Birkhoff machinery reports as evaluation errors.
"""

from __future__ import annotations

import numpy as np

from .dynamics import MapSystem, Observable, jacobian_data
from .errors import ConfigError


def _coordinate(m: MapSystem, x, which: str):
    x = np.asarray(x, dtype=float)
    if m.domain.ndim == 1:
        return x
    return x[..., 0] if which == "angle" else x[..., 1]


def make_observable(name: str, m: MapSystem, table=None) -> Observable:
    if name == "indicator_half":
        return Observable(
            fn=lambda x: (_coordinate(m, x, "angle") < 0.5).astype(float),
            label=name)
    if name == "spin_half":
        return Observable(
            fn=lambda x: np.where(_coordinate(m, x, "angle") < 0.5, 1.0, -1.0),
            label=name)
    if name == "cos2pi":
        return Observable(
            fn=lambda x: np.cos(2.0 * np.pi * _coordinate(m, x, "angle")),
            label=name)
    if name == "identity":
        return Observable(fn=lambda x: _coordinate(m, x, "fiber"),
                          label=name)
    if name == "log_deriv":
        return Observable(fn=lambda x: np.log(np.abs(jacobian_data(m, x)[2])),
                          label=name)
    if name == "piecewise_linear":
        if table is None:
            raise ConfigError("piecewise_linear needs a table of x,y rows")
        xs = np.asarray([r[0] for r in table], dtype=float)
        ys = np.asarray([r[1] for r in table], dtype=float)
        if np.any(np.diff(xs) <= 0):
            raise ConfigError("piecewise_linear abscissae must increase")
        return Observable(
            fn=lambda x: np.interp(_coordinate(m, x, "fiber"), xs, ys),
            label=name)
    raise ConfigError(f"unknown observable {name!r}; see list-observables")


OBSERVABLES = {
    "indicator_half": "1 on [0, 1/2), 0 elsewhere (discontinuous)",
    "spin_half": "+1 on [0, 1/2), -1 elsewhere (discontinuous)",
    "cos2pi": "cos(2 pi x), angle coordinate on the cylinder",
    "identity": "the point itself (fiber coordinate on the cylinder)",
    "log_deriv": "log |det Df|, singular on the critical set",
    "piecewise_linear": "linear interpolation of an x,y table from file",
}
