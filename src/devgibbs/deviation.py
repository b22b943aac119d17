"""Monte Carlo deviation-set measurement and rate comparison.

Measures the probability that a time average of an observable sits beyond
a level c, tabulates (1/n) log p-hat over an n grid, extracts a decay
slope, and compares it against two reference quantities: the first-time
tail rate and the Legendre transform of the empirical free energy.  For
conformal uniformly-expanding benchmarks the Legendre value stands in for
the variational expression the deviation bounds are stated with; the
report labels it as a proxy.

Each experiment draws one sample set and steps it forward once, in
``dynamics.birkhoff_sums`` on the one stepping loop ``dynamics.walk``:
every row of the rate curve is counted on the same points, and every t of
the free-energy table is evaluated on the same S_n g, so psi-hat is
exactly convex in t as the Legendre transform assumes.  The rows are
therefore correlated.  Over seeds 0-29 of the bundled deviation config the
seed-to-seed sd of the fitted rate is 0.0011, against 0.0006 with an
independent sample set per row; the mean is unchanged (-0.0989 against
-0.0987).  ``rate_stderr``, the OLS standard error of the slope, measures
the misfit of the ceil(c n) lattice, not sampling noise: 0.0153 at seed
42, where the exact binomial log-probabilities alone give 0.0151.

Zero-hit rows are flagged and excluded from regressions rather than
imputed: imputation would bias the slope, exclusion only shortens the
window.  Indicator observables are admitted (the exact binomial oracles
need them) even though the bound statements concern continuous ones; the
report notes discontinuous observables.  A g that is non-finite along an
orbit fails the experiment with an ``EvaluationError``; it is not a miss.

The two estimators draw from differently tagged streams, so they can run
at once: at workers w >= 2, ``runner`` runs ``rate_curve`` on the calling
thread with w - floor(w/2) workers and ``free_energy_table`` beside it
with floor(w/2).  Each combines its chunks in chunk order, so both
outputs equal those at workers 1.

A row of the rate curve counts S_n g >= tau_n, the smallest double whose
rounded quotient by n passes the test against a finite c: division by
n > 0 is monotone, so no S_n g / n array is made.

Each free-energy chunk sorts its S_n g once into distinct values u with
counts c; each t then costs one in-place ``logsumexp`` of t u weighted by
c, the one copy of scipy's steps, which the combine across chunks shares.
As t u is monotone in the sorted u, its top terms are a run at one end,
found by bisection, so no pass over the chunk masks or counts them.  An
indicator's S_12 g takes 13 values per 65,536-point chunk; a continuous g
keeps every point and pays one sort per chunk.  Each chunk value equals
scipy's ``logsumexp(t * u, b=c)`` bit for bit; the plain sum over the
points adds the same terms in another order and can differ in the last
bits.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import MapSystem, birkhoff_sums, check_float_horizon
from .errors import ConfigError, RangeError
from .sampling import chunk_map
from .stats import OLSFit, ols_fit, wilson_ci

MIN_SAMPLES = 1000
NEG_INF = float("-inf")


@dataclass(frozen=True)
class DeviationExperiment:
    map: MapSystem
    g: Callable  # g(x, out=None)
    c: float
    sampler: object
    n_grid: tuple
    samples: int
    seed: int
    direction: str = "ge"  # "ge" for >= c, "gt" for > c

    def __post_init__(self):
        grid = tuple(self.n_grid)
        if not grid or grid[0] < 1:
            raise ConfigError("n grid must be non-empty with every n >= 1")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("n grid must be strictly increasing")
        if self.samples < MIN_SAMPLES:
            raise ConfigError(f"samples={self.samples} below minimum {MIN_SAMPLES}")
        if self.direction not in ("ge", "gt"):
            raise ConfigError("direction must be 'ge' or 'gt'")
        check_level(self.c)
        check_float_horizon(self.map, grid[-1], "n")


def check_level(c) -> None:
    """Refuse a level c that is not finite."""
    if not math.isfinite(c):
        raise ConfigError(f"[deviation] c = {c!r} must be finite")


def level_threshold(c: float, n: int, direction: str = "ge") -> float:
    """The smallest double s whose rounded quotient s / n is >= c (> c
    for ``gt``).  Rounding is monotone, so S_n / n passes iff S_n >= it;
    it lies a few doubles from c n, at most about n / 2 near 0."""
    c = float(c)
    passes = ((lambda s: s / n >= c) if direction == "ge"
              else (lambda s: s / n > c))
    s = c * n
    while passes(s):  # -inf / n fails a finite c
        s = math.nextafter(s, -math.inf)
    while not passes(s):  # inf / n passes it
        s = math.nextafter(s, math.inf)
    return s


@dataclass
class RateCurve:
    n: np.ndarray
    hits: np.ndarray
    samples: np.ndarray
    p_hat: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    log_rate: np.ndarray  # (1/n) log p_hat, -inf on zero-hit rows
    flagged: np.ndarray  # zero-hit rows


def rate_curve(exp: DeviationExperiment, workers: int = 1) -> RateCurve:
    """Hits of S_n/n beyond c at each grid n, all on one sample set."""
    grid = [int(v) for v in exp.n_grid]
    tau = {n: level_threshold(exp.c, n, exp.direction) for n in grid}

    def job(pts):
        passed = np.empty(len(pts), dtype=bool)
        return np.array([np.count_nonzero(np.greater_equal(s, tau[n],
                                                           out=passed))
                         for n, s in birkhoff_sums(exp.map, exp.g, pts, grid)],
                        dtype=np.int64)

    hits = sum(chunk_map(job, exp.sampler, exp.samples, exp.seed, "dev",
                         workers))
    n, total = np.array(grid), exp.samples
    p = hits / total
    ci_low, ci_high = wilson_ci(hits, total)
    with np.errstate(divide="ignore"):
        log_rate = np.where(hits > 0, np.log(np.maximum(p, 1e-300)) / n, NEG_INF)
    return RateCurve(n=n, hits=hits, samples=np.full(len(n), total), p_hat=p,
                     ci_low=ci_low, ci_high=ci_high,
                     log_rate=log_rate, flagged=hits == 0)


def rate_estimate(curve: RateCurve, window: tuple) -> OLSFit:
    """OLS slope of log p-hat against n over unflagged rows in the window."""
    lo, hi = window
    mask = (curve.n >= lo) & (curve.n <= hi) & (~curve.flagged)
    if int(mask.sum()) < 3:
        raise ConfigError("rate estimation needs >= 3 unflagged rows in window")
    return ols_fit(curve.n[mask].astype(float),
                   np.log(curve.p_hat[mask]))


def logsumexp(a, b=None, at_top=None, out=None) -> float:
    """log(sum(b exp(a))) over a float array a with positive weights b (1
    where None), bit for bit as scipy's ``logsumexp(a, b=b)``.

    The steps of scipy 1.17 (Blanchard, Higham & Higham 2021): shift by
    top = max(a), take the top terms out of the sum, and return
    log1p(sum(b exp(a - top)) / k) + log(k) + top, where k is the top
    terms' total weight.  A caller that knows where the top terms sit
    passes them as the slice ``at_top``; otherwise a mask finds them.
    The terms go to ``out`` (which may be ``a`` itself), or to a fresh
    array.
    """
    a = np.asarray(a, dtype=float)
    if at_top is None:
        at_top = a == a.max()
    top_terms = a[at_top]
    top = top_terms[0]
    k = np.float64(len(top_terms) if b is None else b[at_top].sum())
    terms = np.subtract(a, top, out=out)
    np.exp(terms, out=terms)
    if b is not None:
        terms *= b
    terms[at_top] = 0.0  # the top terms, each b exp(0) = b
    return float(np.log1p(terms.sum() / k) + np.log(k) + top)


def log_partition(s, ts) -> np.ndarray:
    """log(sum(exp(t s))) over one chunk's S_n g values s, for each t of
    ts: ``logsumexp(t * u, b=c)`` on the distinct values u of s and their
    counts c.

    Rounding is monotone, so t u is monotone in the sorted u, and its top
    terms are one run at the end that holds t max s (t >= 0) or t min s
    (t < 0); a bisection from that end finds the run.
    """
    u, c = np.unique(s, return_counts=True)
    # weights of 1 change no bit (1 x = x), so all-distinct s skips them
    c = c.astype(float) if len(u) < len(s) else None
    lo, hi = float(u[0]), float(u[-1])
    a = np.empty(len(u))
    lse = np.empty(len(ts))
    for k, t in enumerate(ts):
        if not (math.isfinite(t * lo) and math.isfinite(t * hi)):
            raise RangeError(f"[deviation] t_grid: t = {t!r} overflows "
                             f"t * S_n g for S_n g in [{lo!r}, {hi!r}]")
        np.multiply(t, u, out=a)
        if t < 0:  # a falls from a[0], so -a rises
            at_top = slice(0, bisect.bisect_right(a, -a[0], key=operator.neg))
        else:
            at_top = slice(bisect.bisect_left(a, a[-1]), None)
        lse[k] = logsumexp(a, c, at_top, out=a)
    return lse


def check_t_grid(t_grid) -> None:
    """Refuse a t grid that is empty, not finite or not strictly
    increasing: ``legendre_rate`` reads the grid's edges by position."""
    ts = [float(t) for t in t_grid]
    if (not ts or not all(map(math.isfinite, ts))
            or ts != sorted(set(ts))):
        raise ConfigError(f"[deviation] t_grid = {ts} must be non-empty, "
                          f"finite and strictly increasing")


def free_energy_table(m: MapSystem, sampler, g, t_grid, n: int, samples: int,
                      seed: int, workers: int = 1):
    """psi-hat(t) for every t of the grid, all on one sample set."""
    if n < 1:
        raise ConfigError(f"free-energy depth n={n} must be >= 1")
    if samples < 1:
        raise ConfigError(f"[deviation] fe_samples = {samples} must be >= 1")
    check_t_grid(t_grid)
    check_float_horizon(m, n, "fe_n")
    ts = np.asarray(list(t_grid), dtype=float)

    def job(pts):
        _, s = next(birkhoff_sums(m, g, pts, (n,)))
        return log_partition(s, ts.tolist())

    lse = np.array(chunk_map(job, sampler, samples, seed, f"fe:{n}", workers))
    psi = np.array([(logsumexp(lse[:, k]) - math.log(samples)) / n
                    for k in range(len(ts))])
    return ts, psi


@dataclass(frozen=True)
class LegendreResult:
    value: float  # I(c) >= 0
    t_star: float
    boundary: bool  # argmax at grid edge: grid failed to bracket


def legendre_rate(ts, psi, c: float) -> LegendreResult:
    """I(c) = max over the t grid of (t c - psi(t))."""
    ts = np.asarray(ts, dtype=float)
    psi = np.asarray(psi, dtype=float)
    vals = ts * c - psi
    k = int(np.argmax(vals))
    return LegendreResult(value=float(vals[k]), t_star=float(ts[k]),
                          boundary=k in (0, len(ts) - 1))


@dataclass
class BoundReport:
    """Comparison of the measured rate against the two-sided bound shape.

    ``legendre_rate`` is -I(c), the reference decay rate; the upper
    reference is max(tail_rate, legendre_rate).  ``uninformative_upper``
    marks the polynomial-tail case where that maximum is ~0 and the upper
    inequality carries no information.
    """

    measured_rate: float
    tail_rate: float
    legendre_rate: float
    slack: float
    upper_ok: bool
    lower_ok: bool
    uninformative_upper: bool
    discontinuous_g: bool = False
    proxy_note: str = ("legendre_rate is a Gartner-Ellis proxy for the "
                       "variational supremum on conformal benchmarks")


def bound_report(measured_rate: float, tail_rate: float, legendre_value: float,
                 slack: float = 0.02, discontinuous_g: bool = False) -> BoundReport:
    """Verdicts for measured <= max(tail, -I) + slack and measured >= -I - slack."""
    neg_i = -legendre_value
    upper_ref = max(tail_rate, neg_i)
    upper_ok = measured_rate <= upper_ref + slack
    lower_ok = measured_rate >= neg_i - slack
    return BoundReport(
        measured_rate=measured_rate,
        tail_rate=tail_rate,
        legendre_rate=neg_i,
        slack=slack,
        upper_ok=bool(upper_ok),
        lower_ok=bool(lower_ok),
        uninformative_upper=bool(upper_ref > -1e-9),
        discontinuous_g=discontinuous_g,
    )
