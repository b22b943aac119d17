"""Helpers shared by the test modules."""

import numpy as np


def combined_se(p1, n1, p2, n2):
    """Standard error of the difference of two independent proportions."""
    v1 = p1 * (1.0 - p1) / max(n1, 1)
    v2 = p2 * (1.0 - p2) / max(n2, 1)
    return float(np.sqrt(v1 + v2))
