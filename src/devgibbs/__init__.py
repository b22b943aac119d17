"""devgibbs: numerical probes for deviation sets of non-uniformly expanding maps.

A laboratory for measuring, on concrete map families, the quantities that
control large deviations of Birkhoff averages with respect to weak Gibbs
reference measures: hyperbolic-time statistics, dynamical-ball masses and
their sandwich constants, covering-number entropy, specification gaps,
and Monte Carlo deviation rates checked against analytic oracles.
"""

__version__ = "0.1.0"

from .dynamics import MapSystem  # noqa: E402,F401
from .maps import (make_doubling, make_family, make_mp,  # noqa: E402,F401
                   make_perturbed_expanding, make_quadratic, make_viana)
from .hyperbolic import HyperbolicParams  # noqa: E402,F401
