"""Small statistics helpers: Wilson intervals and least-squares fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# z for a two-sided 95% interval
Z95 = 1.959963984540054


def wilson_ci(hits, total):
    """Wilson score 95% intervals for binomial proportions, elementwise.

    ``hits`` and ``total`` are counts or arrays of counts; a row without
    trials gets (0, 1).  Chosen over the Wald interval for correct
    coverage when the proportion sits deep in the rare-event tail.
    """
    hits = np.asarray(hits, dtype=float)
    total = np.asarray(total, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = hits / total
        denom = 1.0 + Z95 * Z95 / total
        center = (p + Z95 * Z95 / (2.0 * total)) / denom
        spread = Z95 * np.sqrt((p * (1.0 - p) + Z95 * Z95 / (4.0 * total))
                               / total) / denom
    empty = total <= 0
    # [()] turns a 0-d result into a scalar and leaves arrays as they are
    return (np.where(empty, 0.0, np.maximum(0.0, center - spread))[()],
            np.where(empty, 1.0, np.minimum(1.0, center + spread))[()])


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

