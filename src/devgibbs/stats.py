"""Small statistics helpers: Wilson intervals and least-squares fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# z for a two-sided 95% interval
Z95 = 1.959963984540054


def wilson_ci(hits: int, total: int, z: float = Z95):
    """Wilson score interval for a binomial proportion.

    Chosen over the Wald interval for correct coverage when the
    proportion sits deep in the rare-event tail.
    """
    if total <= 0:
        return (0.0, 1.0)
    p = hits / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2.0 * total)) / denom
    spread = z * np.sqrt((p * (1.0 - p) + z * z / (4.0 * total)) / total) / denom
    return (max(0.0, center - spread), min(1.0, center + spread))


@dataclass(frozen=True)
class OLSFit:
    slope: float
    intercept: float
    stderr: float
    residual: float  # RMS of residuals


def ols_fit(x, y) -> OLSFit:
    """Least-squares line fit with the slope's standard error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least two points to fit a line")
    n = len(x)
    xm, ym = x.mean(), y.mean()
    sxx = np.sum((x - xm) ** 2)
    if sxx == 0.0:
        raise ValueError("degenerate abscissa in line fit")
    slope = np.sum((x - xm) * (y - ym)) / sxx
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    rms = float(np.sqrt(np.mean(resid ** 2)))
    if n > 2:
        se = float(np.sqrt(np.sum(resid ** 2) / (n - 2) / sxx))
    else:
        se = 0.0
    return OLSFit(slope=float(slope), intercept=float(intercept),
                  stderr=se, residual=rms)

