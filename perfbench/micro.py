"""Per-point cost of the map, domain and observable kernels.

Chunk kernels run on ``sampling.CHUNK`` = 65,536 float64 points, i.e.
512 KiB per array, which fits in a 2 MiB L2 cache: the numbers read as
per-call plus compute cost, not memory bandwidth.  The single-point
kernels are called on 0-d arrays, the way ``hyperbolic_times`` drives
them one start point at a time.  Each figure is the median over repeats.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CHUNK_REPEATS = 31
CALL_REPEATS = 7
CALLS = 2000


def _median_ns(fn, arg, repeats: int, calls: int = 1) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            fn(arg)
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / calls


def kernel_costs(dg, seed: int) -> dict:
    """ns per point on a full chunk, and ns per call on a single point."""
    chunk, spawn_rng = dg.sampling.CHUNK, dg.sampling.spawn_rng
    doubling = dg.make_doubling()
    quadratic = dg.make_quadratic(2.0)
    pert = dg.make_perturbed_expanding(4, 0.55)
    xc = doubling.domain.sample(spawn_rng(seed, "perfbench-circle"), chunk)
    yc = doubling.step(xc)
    xq = quadratic.domain.sample(spawn_rng(seed, "perfbench-interval"), chunk)
    yq = quadratic.step(xq)
    indicator = dg.observables.make_observable("indicator_half", doubling)

    per_point = {
        "maps.step_ns.doubling": (doubling.step, xc),
        "domain.clamp_ns.circle": (doubling.domain.clamp, yc),
        "domain.distance_ns.circle":
            (lambda x: doubling.domain.distance(x, yc), xc),
        "observables.eval_ns.indicator_half": (indicator, xc),
        "maps.step_ns.quadratic": (quadratic.step, xq),
        "maps.deriv_ns.quadratic": (quadratic.deriv, xq),
        "maps.crit_dist_ns.quadratic": (quadratic.crit_dist, xq),
        "domain.clamp_ns.interval": (quadratic.domain.clamp, yq),
    }
    out = {name: _median_ns(fn, x, CHUNK_REPEATS) / chunk
           for name, (fn, x) in per_point.items()}

    x0 = np.asarray(float(pert.domain.sample(
        spawn_rng(seed, "perfbench-point"), 1)[0]))
    per_call = {
        "maps.step_call_ns.perturbed_expanding": pert.step,
        "maps.deriv_call_ns.perturbed_expanding": pert.deriv,
        "maps.crit_dist_call_ns.perturbed_expanding": pert.crit_dist,
    }
    for name, fn in per_call.items():
        out[name] = _median_ns(fn, x0, CALL_REPEATS, CALLS)
    return out
