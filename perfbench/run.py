"""devgibbs benchmark: timed runner.run calls on seeded workload configs.

Usage, from the repository root:

    python3 perfbench/run.py --workload tail-entropy --seconds 45 --trace 0

The program is imported from the working tree's ``src/`` (the benchmark
refuses to run against any other copy) and ``devgibbs.runner.run`` is
called in-process, timed from outside.  One run of a workload calls
``runner.run`` once for each of its configs, in order.  Every call writes
to a fresh directory under ``.perfbench_out/`` and passes through the
correctness gate in ``gate.py``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the median
wall and CPU time of one run, the median set-up time of a fresh
interpreter, and the peak resident set.  ``--trace 1`` makes a separate
traced run with wrappers around each module's public functions and
reports the per-layer metrics.  The last line of standard output is the
JSON result; a full record with the environment fingerprint is written
next to the spans in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

from gate import Gate, check_margin_min
from micro import kernel_costs
from tracing import Tracer, covered, install, self_time
from workloads import WORKLOADS, deviation_point_steps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
MIN_TIMED_RUNS = 3

SETUP_CODE = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import devgibbs.cli
t1 = time.perf_counter()
from devgibbs.config import parse_config
from devgibbs.maps import make_family
cfgs = []
for path in sys.argv[2:]:
    with open(path) as fh:
        cfgs.append(parse_config(fh.read()))
t2 = time.perf_counter()
for cfg in cfgs:
    make_family(cfg.family, cfg.map_params)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1,
                  "build_s": t3 - t2}))
"""


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def load_program():
    """Import devgibbs from the working tree's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import devgibbs
        import devgibbs.cli  # noqa: F401  (what every CLI invocation loads)
        import devgibbs.config  # noqa: F401
        import devgibbs.runner  # noqa: F401
    except ImportError as exc:
        raise BenchError(f"cannot import devgibbs from {SRC}: {exc}")
    path = Path(devgibbs.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise BenchError(f"devgibbs resolved to {path}, not under {SRC}")
    return devgibbs


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def fingerprint(dg, seeds: dict) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "seeds": seeds,
            "devgibbs_file": str(Path(dg.__file__).resolve())}


def measure_setup(cfg_paths: list) -> dict:
    """Medians over fresh interpreters: import devgibbs.cli, parse, build."""
    rows = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)]
            + [str(p) for p in cfg_paths],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        total = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()}")
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        row["total_s"] = total
        rows.append(row)
    return {key: statistics.median(r[key] for r in rows) for key in rows[0]}


@dataclass
class Run:
    workers: int
    wall: float
    cpu: float
    out: Path
    ok: bool


class Session:
    """The runs of one config at one seed, all judged by one gate."""

    def __init__(self, dg, config, seed: int, work: Path):
        self.dg = dg
        self.config = config
        self.work = work
        self.cfg = dg.config.parse_config(config.config_text(seed))
        self.gate = Gate(self.cfg.section("check"))
        self.runs = []
        self.failures = []

    def run(self, workers: int) -> Run:
        out = self.work / f"{self.config.name}-{len(self.runs) + 1}"
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            try:
                self.dg.runner.run(self.cfg, out_dir=str(out),
                                   workers=workers)
            finally:
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
            reasons = self.gate.judge(out)
        except Exception as exc:  # a run that raises is a failed run
            traceback.print_exc(file=sys.stderr)
            reasons = [f"raised {type(exc).__name__}: {exc}"]
        run = Run(workers, wall, cpu, out, not reasons)
        self.runs.append(run)
        if reasons:
            self.failures.append({"config": self.config.name,
                                  "run": len(self.runs), "workers": workers,
                                  "reasons": reasons})
            print(f"{self.config.name} run {len(self.runs)} "
                  f"(workers={workers}) FAILED: "
                  + "; ".join(reasons), file=sys.stderr)
        return run


@dataclass
class Pass:
    """One run of a workload: each config once, in order."""
    runs: list

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.runs)

    @property
    def cpu(self) -> float:
        return sum(r.cpu for r in self.runs)


def one_pass(sessions, workers=None) -> Pass:
    """Each config at ``workers``, or at its own worker count."""
    return Pass([s.run(workers or s.config.workers) for s in sessions])


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def repeat(sessions, seconds: float, min_runs: int) -> list:
    """Untraced runs until the next one would end after ``seconds``."""
    runs = []
    t_start = time.perf_counter()
    while True:
        runs.append(one_pass(sessions))
        elapsed = time.perf_counter() - t_start
        if (len(runs) >= min_runs and elapsed
                + statistics.median(r.wall for r in runs) > seconds):
            return runs


def timed(sessions, seconds: float, setup: dict) -> dict:
    """End-to-end metrics, tracing off."""
    # untimed warm-up at workers=1, the reference for byte identity
    # across worker counts
    one_pass(sessions, 1)
    timed_runs = repeat(sessions, seconds, MIN_TIMED_RUNS)
    walls = [r.wall for r in timed_runs]
    cpus = [r.cpu for r in timed_runs]
    wq, cq = quartiles(walls), quartiles(cpus)
    attempted = sum(len(s.runs) for s in sessions)
    failed = sum(len(s.failures) for s in sessions)
    print(f"  wall_s      {statistics.median(walls):9.4f} s    "
          f"q1 {wq[0]:.4f}  q3 {wq[1]:.4f}  n={len(walls)}")
    print(f"  cpu_s       {statistics.median(cpus):9.4f} s    "
          f"q1 {cq[0]:.4f}  q3 {cq[1]:.4f}  n={len(cpus)}")
    print(f"  setup_s     {setup['total_s']:9.4f} s    "
          f"median of {SETUP_REPEATS} fresh interpreters")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"  peak_rss_mb {peak:9.1f} MiB")
    print(f"  fail_frac   {failed / attempted:9.4f}      "
          f"{failed} of {attempted} runner.run calls failed")
    return {"wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": setup["total_s"],
            "peak_rss_mb": peak}


def traced(sessions, seconds: float, setup: dict, seed: int,
           tracer: Tracer) -> dict:
    """Per-layer metrics from a traced run at each config's worker count.

    A traced run with every config at workers=1 comes first (it is the
    byte reference, and the base of ``sampling.pool_speedup``).  Untraced
    runs then fill ``seconds``; their median wall is the base of
    ``trace.overhead_frac``.
    """
    dg = sessions[0].dg
    kernels = kernel_costs(dg, seed)
    install(tracer, dg)
    try:
        tracer.run_id = "workers=1"
        serial = one_pass(sessions, 1)
        tracer.run_id = "main"
        main = one_pass(sessions)
    finally:
        tracer.uninstall()
    untraced_wall = statistics.median(
        r.wall for r in repeat(sessions, seconds, 1))
    # the config that uses the pool; its walls give the pool speed-up
    par = next(i for i, s in enumerate(sessions) if s.config.workers > 1)
    par_workers = sessions[par].config.workers

    spans = [s for s in tracer.spans if s.run == "main"]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name):
        return sum(s.duration for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    def attr(name, key):
        return sum(s.attrs[key] for s in by_name[name])

    def self_total(name):
        return sum(self_time(s, spans) for s in by_name[name])

    def per(num_s, count, scale=1e9):
        return num_s * scale / count if count else 0.0

    run_s = total("runner.run")
    job_s, pool_s = total("sampling.job"), total("sampling.parallel_chunk_map")
    dev_s = total("deviation.rate_curve") + total("deviation.free_energy_table")
    dev_steps = sum(deviation_point_steps(s.cfg) for s in sessions
                    if s.cfg.kind == "deviation")
    reason = [(sp.start, sp.end) for s in sessions
              for name in s.config.reason for sp in by_name[name]]
    out = dict(kernels)
    out.update({
        "sampling.sample_s": total("sampling.sample"),
        "sampling.chunks": calls("sampling.sample"),
        "sampling.points": attr("sampling.sample", "points"),
        "sampling.pool_s": pool_s,
        "sampling.job_s": job_s,
        "sampling.pool_busy_frac":
            job_s / (par_workers * pool_s) if pool_s else 0.0,
        "sampling.pool_speedup":
            serial.runs[par].wall / main.runs[par].wall,
        "deviation.rate_curve_s": total("deviation.rate_curve"),
        "deviation.free_energy_table_s": total("deviation.free_energy_table"),
        "deviation.point_steps": dev_steps,
        "deviation.ns_per_point_step": per(dev_s, dev_steps),
        "hyperbolic.first_times_batch_s":
            total("hyperbolic.first_times_batch"),
        "hyperbolic.first_times_batch_calls":
            calls("hyperbolic.first_times_batch"),
        "hyperbolic.batch_point_steps":
            attr("hyperbolic.first_times_batch", "point_steps"),
        "hyperbolic.batch_ns_per_point_step":
            per(total("hyperbolic.first_times_batch"),
                attr("hyperbolic.first_times_batch", "point_steps")),
        "hyperbolic.hyperbolic_times_s": total("hyperbolic.hyperbolic_times"),
        "hyperbolic.hyperbolic_times_calls":
            calls("hyperbolic.hyperbolic_times"),
        "hyperbolic.single_steps": attr("hyperbolic.hyperbolic_times", "steps"),
        "hyperbolic.single_ns_per_step":
            per(total("hyperbolic.hyperbolic_times"),
                attr("hyperbolic.hyperbolic_times", "steps")),
        "metric.katok_entropy_s": total("metric.katok_entropy"),
        "metric.ball_intervals_s": total("metric.ball_intervals"),
        "metric.ball_intervals_calls": calls("metric.ball_intervals"),
        "metric.ball_intervals_point_steps":
            attr("metric.ball_intervals", "point_steps"),
        "metric.covering_number_s": total("metric.covering_number"),
        "metric.cover_self_s": self_total("metric.covering_number"),
        "metric.cover_balls": attr("metric.covering_number", "balls"),
        "metric.cover_points": attr("metric.covering_number", "points"),
        "specprobe.nonuniform_spec_statistic_s":
            total("specprobe.nonuniform_spec_statistic"),
        "specprobe.exactness_time_s": total("specprobe.exactness_time"),
        "specprobe.self_s": self_total("specprobe.nonuniform_spec_statistic"),
        "runner.run_s": run_s,
        "runner.self_s": self_total("runner.run"),
        "runner.bytes_written": sum(p.stat().st_size for r in main.runs
                                    for p in r.out.iterdir()),
        "runner.check_margin_min":
            min(check_margin_min(s.cfg.section("check"), r.out)
                for s, r in zip(sessions, main.runs)),
        "config.parse_s": setup["parse_s"],
        "setup.import_s": setup["import_s"],
        "trace.overhead_frac": main.wall / untraced_wall - 1.0,
        "trace.reason_cover_frac": covered(reason) / run_s,
        "trace.wall_w1_s": serial.runs[par].wall,
        "trace.wall_w2_s": main.runs[par].wall,
    })
    for name, value in out.items():
        print(f"  {name:42s} {value:.6g}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of every config (default: each "
                        "config's bundled seed)")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="how long the timed runs measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        declared = declared_metrics()
        dg = load_program()
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    seeds = {c.name: c.default_seed if args.seed is None else args.seed
             for c in workload.configs}
    env = fingerprint(dg, seeds)
    seed_tag = "default" if args.seed is None else args.seed
    tag = f"{workload.name}-seed{seed_tag}-trace{args.trace}"
    work = OUT / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = Tracer()
    try:
        sessions, cfg_paths = [], []
        for config in workload.configs:
            cfg_paths.append(work / f"{config.name}.cfg")
            cfg_paths[-1].write_text(config.config_text(seeds[config.name]))
            sessions.append(Session(dg, config, seeds[config.name], work))
        print(f"{workload.name} " + " ".join(
            f"{c.name}(seed={seeds[c.name]}, workers={c.workers})"
            for c in workload.configs)
            + f" trace={args.trace}  python {env['python']} numpy "
              f"{env['numpy']} scipy {env['scipy']} nproc {env['nproc']} "
              f"cpu {env['cpu_model']!r}")
        print(f"  devgibbs from {env['devgibbs_file']}")
        setup = measure_setup(cfg_paths)
        if args.trace:
            values = traced(sessions, args.seconds, setup,
                            seeds[workload.configs[0].name], tracer)
            kind = "per_layer"
        else:
            values = timed(sessions, args.seconds, setup)
            kind = "end_to_end"
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = declared[kind]
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} "
              f"disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    failures = [f for s in sessions for f in s.failures]
    result = {"correct": not failures,
              "attempted": sum(len(s.runs) for s in sessions),
              "failed": len(failures),
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    record = dict(result, workload=workload.name, trace=args.trace,
                  environment=env, failures=failures,
                  runs=[{"config": s.config.name, "workers": r.workers,
                         "wall_s": r.wall, "cpu_s": r.cpu, "ok": r.ok}
                        for s in sessions for r in s.runs])
    (OUT / f"result-{tag}.json").write_text(
        json.dumps(record, indent=1, allow_nan=False) + "\n")
    if tracer.spans:
        (OUT / f"spans-{tag}.json").write_text(
            json.dumps([asdict(s) for s in tracer.spans]) + "\n")
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
