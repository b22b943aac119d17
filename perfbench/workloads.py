"""The benchmark workloads: devgibbs configs generated from a seed.

Four configs each stress one layer.  A workload runs two of them back to
back, a parallel one (workers = 2, large chunks) and a one-thread one, so
that every layer is measured while each workload's runs are long enough
to steady its median on a shared machine.  The program sees only the
generated config text; the seed is the one input the benchmark varies
between runs.  ``workers`` is part of each config.  ``reason`` names the
spans that should carry most of a traced run of the config (the layer it
was chosen to stress).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Config:
    name: str
    default_seed: int
    workers: int
    template: str
    reason: tuple

    def config_text(self, seed: int) -> str:
        return self.template.format(seed=int(seed), workers=self.workers)


DEVIATION_N = list(range(10, 31))
T_GRID_POINTS = 61  # runner default: t = -1.00, -0.95, ..., 2.00

DEVIATION = Config(
    name="deviation",
    default_seed=42,
    workers=2,
    reason=("deviation.rate_curve", "deviation.free_energy_table"),
    template="""\
# doubling-map deviation rate: the bundled deviation_doubling shape
family = doubling
kind = deviation
seed = {seed}
samples = 200000
workers = {workers}

[deviation]
g = indicator_half
c = 0.7
n = [""" + ", ".join(map(str, DEVIATION_N)) + """]
window = [14, 30]
tail_rate = neg_inf
fe_n = 12
fe_samples = 100000

[check]
rate_target = -0.0822829
rate_tol = 0.02
require_upper_ok = true
require_lower_ok = true
legendre_target = 0.0822829
legendre_tol = 0.01
""")

ENTROPY = Config(
    name="entropy",
    default_seed=7,
    workers=1,
    reason=("metric.ball_intervals",),
    template="""\
# doubling-map covering-number entropy: the bundled entropy_doubling
family = doubling
kind = entropy
seed = {seed}
samples = 60000
workers = {workers}

[entropy]
n_grid = [3, 4, 5]
eps_grid = [0.2, 0.1, 0.05]
mass_deficit = 0.1

[check]
entropy_target = 0.6931472
entropy_rel_tol = 0.05
""")

TAIL = Config(
    name="tail",
    default_seed=7,
    workers=2,
    reason=("hyperbolic.first_times_batch",),
    template="""\
# quadratic (a = 2) first-time tail over 8 full chunks
family = quadratic
kind = tail
seed = {seed}
samples = 524288
workers = {workers}

[map]
a = 2.0

[hyperbolic]
n_max = 400

[check]
kind_expected = exponential
slope_max = -0.01
""")

SPEC = Config(
    name="spec",
    default_seed=3,
    workers=1,
    reason=("hyperbolic.hyperbolic_times",),
    template="""\
# perturbed expanding circle map: one-point-at-a-time hyperbolic scans
family = perturbed_expanding
kind = spec
seed = {seed}
workers = {workers}

[map]
d = 4
a = 0.55

[spec]
eps_grid = [0.015625]
n_grid = [100, 1000]
base_points = 25

[check]
headline_max = 0.05
""")

@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple  # run in this order, each once per timed run


# Each optimisation the ROADMAP plans moves one workload and leaves the
# other as its control: batching one-point scans (spec) against the
# batched scanner (tail), exact balls and lazy greedy (entropy) against
# code without balls or covers (deviation, spec).
WORKLOADS = {w.name: w for w in (
    Workload("deviation-spec", (DEVIATION, SPEC)),
    Workload("tail-entropy", (TAIL, ENTROPY)),
)}


def deviation_point_steps(cfg) -> int:
    """Orbit loop iterations of rate_curve plus free_energy_table.

    Each grid n costs ``samples * n`` (one observable evaluation and one
    step per point and time); the free-energy table repeats
    ``fe_samples * fe_n`` for every t on its grid.
    """
    dev = cfg.section("deviation")
    fe_samples = dev.get("fe_samples", max(cfg.samples // 2, 1000))
    t_points = len(dev.get("t_grid", range(T_GRID_POINTS)))
    return (cfg.samples * sum(dev["n"])
            + t_points * fe_samples * dev.get("fe_n", 12))
