"""Experiment orchestration: one stage per kind, deterministic emission.

``STAGES`` maps each experiment kind to its stage.  Every stage is called
as ``stage(cfg, m, sampler, workers, emit)``, hands each output file to
``emit(name, text)`` and returns the results that the ``[check]`` keys
read.  Adding a kind is one ``config`` schema section plus one stage.

Data files (CSV/JSON) are byte-deterministic under a fixed config: floats
are serialized with their shortest round-trip representation, JSON keys
are sorted, and all Monte Carlo work is chunk-keyed so the worker count
cannot change any number.  On failure, partial outputs, the manifest,
the data files an earlier run's manifest names and a directory the run
made and left empty are removed, and the failing stage is reported.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .config import CHECKS, ExperimentConfig
from .deviation import (DeviationExperiment, bound_report, free_energy_table,
                        legendre_rate, rate_curve, rate_estimate)
from .dynamics import PotentialModel, check_float_horizon
from .errors import ConfigError, DevgibbsError, SamplingError
from .gibbs import delta_grid, delta_set_rate, subexp_check
from .hyperbolic import (classify_tail, default_params, sample_anchors,
                         straddling_times, tail_curve)
from .maps import make_family
from .metric import backward_contraction_check, calibrate_delta1, \
    distortion_estimate, katok_entropy
from .observables import make_observable
from .sampling import UniformSampler, load_empirical, read_table, spawn_rng
from .specprobe import nonuniform_spec_statistic
from .svg import line_plot


def fmt_float(v) -> str:
    """Shortest round-trip decimal text for a float (nan, inf and -inf too)."""
    return repr(float(v))


def csv_text(header, rows) -> str:
    return "".join(",".join(fmt_float(v) if isinstance(v, float) else str(v)
                            for v in row) + "\n" for row in [header, *rows])


def _json_default(o):
    if isinstance(o, np.generic):
        return o.item()  # the Python number a numpy scalar holds
    raise TypeError(type(o).__name__)


def json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1,
                      default=_json_default) + "\n"


@dataclass
class RunManifest:
    files: dict  # data file name -> SHA-256 of the bytes written
    checks: dict
    failures: list
    workers: int


def _hyper_params(cfg: ExperimentConfig, m, n_max_default=1000):
    return replace(default_params(m, n_max=n_max_default),
                   **cfg.section("hyperbolic"))


def _log_deriv_potential(m) -> PotentialModel:
    """phi = -log |det Df| with zero pressure: the conformal benchmark."""
    g = make_observable("log_deriv", m)
    return PotentialModel(phi=lambda x: -g.fn(x), pressure=0.0,
                          label="-log|det Df|")


def _manifest_files(out):
    """Paths of the data files an earlier run's manifest in ``out`` names."""
    try:
        with open(os.path.join(out, "manifest.json")) as fh:
            names = list(json.load(fh)["checksums"])
    except (OSError, ValueError, KeyError, TypeError):
        return []  # no readable manifest: no earlier files are known
    # the base name keeps an edited manifest from reaching outside ``out``
    return [os.path.join(out, os.path.basename(name)) for name in names]


def run(cfg: ExperimentConfig, out_dir=None, workers=None) -> RunManifest:
    if workers is None:
        workers = cfg.workers
    if workers < 1:
        raise ConfigError(f"worker count {workers} must be >= 1")
    m = make_family(cfg.family, cfg.map_params)
    out = out_dir or cfg.out
    earlier = _manifest_files(out)
    made = not os.path.isdir(out)
    t0 = time.time()
    files = {}

    def emit(name, text):
        os.makedirs(out, exist_ok=True)
        data = text.encode()
        files[name] = hashlib.sha256(data).hexdigest()
        with open(os.path.join(out, name), "wb") as fh:
            fh.write(data)

    try:
        if m.domain.ndim != 1 and cfg.kind in ("entropy", "contraction",
                                               "distortion"):
            raise ConfigError(
                f"family = {cfg.family} is not one-dimensional; kind = "
                f"{cfg.kind} needs an interval or circle map")
        results = STAGES[cfg.kind](cfg, m, UniformSampler(m.domain), workers,
                                   emit)
    except Exception as exc:
        for path in ([os.path.join(out, name) for name in files] + earlier
                     + [os.path.join(out, "manifest.json")]):
            if os.path.isfile(path):
                os.remove(path)
        if made and os.path.isdir(out) and not os.listdir(out):
            os.rmdir(out)  # a refused run leaves no directory that it made
        if isinstance(exc, ConfigError):
            raise  # a setting the stage refuses stays a config error
        raise DevgibbsError(f"stage {cfg.kind!r} failed: {exc}") from exc

    checks, failures = _evaluate_checks(cfg.section("check"), results)
    manifest = {
        "version": __version__,
        "kind": cfg.kind,
        "family": cfg.family,
        "seed": cfg.seed,
        "workers": workers,
        "wall_time_s": round(time.time() - t0, 3),
        "config": cfg.raw_text,
        "checksums": files,
        "checks": checks,
        "check_failures": failures,
    }
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        fh.write(json_text(manifest))
    return RunManifest(files=files, checks=checks, failures=failures,
                       workers=workers)


def _run_deviation(cfg, m, sampler, workers, emit):
    dev = cfg.section("deviation")
    table = None
    if dev.get("g") == "piecewise_linear":
        if dev.get("g_file") is None:
            raise ConfigError("piecewise_linear needs g_file")
        table = read_table(dev["g_file"])
    g = make_observable(dev["g"], m, table=table)
    if "sampler_file" in dev:
        sampler = load_empirical(dev["sampler_file"], m.domain)
    exp = DeviationExperiment(
        map=m, g=g, c=dev["c"], sampler=sampler,
        n_grid=tuple(dev["n"]), samples=cfg.samples, seed=cfg.seed,
        direction=dev.get("direction", "ge"))
    t_grid = dev.get("t_grid", [round(-1.0 + 0.05 * k, 2) for k in range(61)])
    fe_n = dev.get("fe_n", 12)
    fe_samples = dev.get("fe_samples", max(cfg.samples // 2, 1000))
    check_float_horizon(m, fe_n, "fe_n")  # before the rate curve steps a point

    def free_energy(w):
        return free_energy_table(m, sampler, g, t_grid, fe_n, fe_samples,
                                 cfg.seed, workers=w)

    # at workers >= 2 the free energy runs beside the rate curve on
    # workers // 2 of them; errors keep the one-thread order, and leaving
    # the block joins the helper on every path
    with ThreadPoolExecutor(max_workers=1) as helper:
        side = helper.submit(free_energy, workers // 2) if workers > 1 else None
        curve = rate_curve(exp, workers=workers - workers // 2)
        emit("rate_curve.csv", csv_text(
            ["n", "hits", "samples", "p_hat", "ci_low", "ci_high",
             "log_rate"],
            zip(curve.n, curve.hits, curve.samples, curve.p_hat,
                curve.ci_low, curve.ci_high, curve.log_rate)))
        window = tuple(dev.get("window", (int(curve.n[0]),
                                          int(curve.n[-1]))))
        fit = rate_estimate(curve, window)
        ts, psi = side.result() if side else free_energy(1)
    leg = legendre_rate(ts, psi, dev["c"])

    tail_spec = dev.get("tail_rate", "neg_inf")
    if tail_spec == "measure":
        params = _hyper_params(cfg, m)
        tc = tail_curve(m, sampler, params, max(cfg.samples // 10, 1000),
                        cfg.seed, workers=workers)
        try:
            tf = classify_tail(tc)
            tail_rate = tf.rate if tf.kind == "exponential" else 0.0
        except ConfigError as exc:
            if not tc.truncated:  # points survive to n_max: a short window
                raise ConfigError(
                    f"tail_rate = measure: {str(exc).partition(';')[0]}; "
                    f"raise [hyperbolic] n_max (now {params.n_max})") from None
            tail_rate = float("-inf")  # the tail dies out: too little mass
    elif tail_spec in ("neg_inf", "none"):
        tail_rate = float("-inf")
    else:
        tail_rate = float(tail_spec)

    rep = bound_report(fit.slope, tail_rate, leg.value, slack=0.02,
                       discontinuous_g=dev["g"] in ("indicator_half",
                                                    "spin_half"))
    emit("bound_report.json", json_text({
        **asdict(rep),
        "rate_stderr": fit.stderr,
        "legendre_t_star": leg.t_star,
        "legendre_boundary": leg.boundary,
        "window": list(window),
        "free_energy": {"t": list(map(float, ts)),
                        "psi": list(map(float, psi)),
                        "n": fe_n, "samples": fe_samples},
    }))
    emit("rate_curve.svg", line_plot(
        curve.n, curve.p_hat, f"deviation probabilities: {m.label}", "n",
        "p_hat", logy=True))
    return {"rate": fit.slope, "legendre": leg.value,
            "upper_ok": rep.upper_ok, "lower_ok": rep.lower_ok}


def _run_tail(cfg, m, sampler, workers, emit):
    params = _hyper_params(cfg, m)
    check_float_horizon(m, params.n_max, "n_max")
    tc = tail_curve(m, sampler, params, cfg.samples or 100000, cfg.seed,
                    workers=workers)
    emit("tail.csv", csv_text(
        ["n", "survivors", "fraction", "ci_low", "ci_high"],
        zip(tc.n, tc.survivors, tc.fraction, tc.ci_low, tc.ci_high)))
    window = cfg.section("tail").get("window")
    fit = classify_tail(tc, window=tuple(window) if window else None)
    emit("tail_fit.json", json_text(
        {**asdict(fit), "truncated": tc.truncated, "samples": tc.samples}))
    emit("tail.svg", line_plot(tc.n, tc.fraction,
                               f"first-time tail: {m.label}", "n",
                               "fraction", logy=True))
    return {"tail_kind": fit.kind, "tail_rate": fit.rate,
            "tail_exponent": fit.exponent}


def _run_entropy(cfg, m, sampler, workers, emit):
    sec = cfg.section("entropy")
    est = katok_entropy(m, sampler, sec.get("n_grid", [3, 4, 5, 6, 7]),
                        sec.get("eps_grid", [0.2, 0.1, 0.05]),
                        sec.get("mass_deficit", 0.1),
                        cfg.samples or 100000, cfg.seed)
    emit("entropy_table.csv", csv_text(
        ["epsilon", "n", "covering_count", "log_count"], est.table))
    emit("entropy.json", json_text({
        "entropy": est.entropy, "slope_stderr": est.slope_stderr,
        "slopes": {fmt_float(k): v for k, v in est.slopes.items()},
    }))
    xs = sorted({row[1] for row in est.table})
    emit("entropy.svg", line_plot(
        [float(v) for v in xs],
        [math.exp(min(lc for e, n, c, lc in est.table if n == v))
         for v in xs],
        f"covering growth: {m.label}", "n", "N(n,eps,delta)", logy=True))
    return {"entropy": est.entropy}


def _run_gibbs(cfg, m, sampler, workers, emit):
    sec = cfg.section("gibbs")
    n_grid = sec.get("n_grid", [4, 10])
    # ball masses and S_n phi read the orbit on every map
    check_float_horizon(m, max(n_grid), "[gibbs] n_grid")
    beta = sec.get("beta")
    if beta is not None:  # refuse a bad grid before any ball mass is measured
        grid = delta_grid(sec.get("delta_n_grid", [200, 350, 500, 650]))
    pot = _log_deriv_potential(m)
    rep = subexp_check(m, pot, sampler, n_grid,
                       sec.get("eps", 2.0 ** -6), cfg.samples or 100000,
                       cfg.seed, n_points=sec.get("points", 12),
                       workers=workers)
    emit("gibbs_probe.csv", csv_text(
        ["x_id", "n", "mass", "ci_low", "ci_high", "snphi", "k_hat",
         "log_k_over_n"],
        [(int(pid), int(n), float(mass), float(lo), float(hi),
          float(snphi), float(k), float(lkn))
         for pid, n, mass, lo, hi, snphi, k, lkn in rep.rows]))
    out = {"subexp_statistic": rep.statistic, "flagged": rep.flagged}
    if beta is not None:
        dr = delta_set_rate(m, _hyper_params(cfg, m), sampler, beta, grid,
                            sec.get("delta_samples", 50000), cfg.seed, pot,
                            workers=workers)
        out.update(delta_hat=dr.delta_hat,
                   delta_rows=[list(r) for r in dr.rows],
                   delta_censored=dr.censored, c_beta=dr.c_beta,
                   sup_phi=dr.sup_phi, sup_phi_clipped=dr.clipped)
    emit("subexp.json", json_text(out))
    return {"subexp": rep.statistic, "delta_hat": out.get("delta_hat")}


def _run_spec(cfg, m, sampler, workers, emit):
    sec = cfg.section("spec")
    rep = nonuniform_spec_statistic(
        m, sampler, sec.get("eps_grid", [1 / 64, 1 / 32]),
        sec.get("n_grid", [100, 1000]),
        _hyper_params(cfg, m),
        sec.get("base_points", 100), cfg.seed,
        probe_count=sec.get("probes", 12), cap=sec.get("cap", 60))
    emit("gap_report.json", json_text({
        "rows": [{"eps": eps, "n": n, "p_hat": val * n, "p_over_n": val}
                 for (eps, n), val in sorted(rep.sup_table.items())],
        "headline": rep.headline,
        "exactness": [{"eps": eps, "time": n}
                      for eps, n in sorted(rep.exactness.items())],
        "censored_fraction": rep.censored_fraction,
        "sampling": rep.sampling,
    }))
    return {"headline": rep.headline,
            "exactness": rep.exactness[rep.eps_grid[0]]}


def _anchors(cfg, m, cap=None):
    """Section, params, delta1, (x, n) anchors and settings of a probe.

    A calibrated delta1 is held to at most ``cap * delta`` when a cap is
    given; each anchor has a hyperbolic time n in [depth_lo, depth_hi].
    """
    sec = cfg.section(cfg.kind)
    params = _hyper_params(cfg, m, n_max_default=100)
    d1 = sec.get("delta1", "auto")
    if d1 == "auto":
        d1 = calibrate_delta1(m, params, cfg.seed)
        if cap is not None:
            d1 = min(d1, cap * params.delta)
    rng = spawn_rng(cfg.seed, f"{cfg.kind}-anchors")
    lo = sec.get("depth_lo", 8)
    hi = sec.get("depth_hi", 16)
    want = sec.get("instances", 100)
    instances, guard = sample_anchors(
        m, lambda: float(m.domain.sample(rng, 1)[0]), params, lo, hi, want,
        100 * want)
    settings = (f"depth_lo = {lo}, depth_hi = {hi}, instances = {want}, "
                f"n_max = {params.n_max}")
    if not instances:
        raise SamplingError(
            f"no hyperbolic time in [depth_lo, depth_hi] for any of {guard} "
            f"sampled points; widen the depth window within n_max or raise "
            f"n_max ({settings})")
    return sec, params, d1, instances, settings


def _run_contraction(cfg, m, sampler, workers, emit):
    sec, params, d1, instances, _ = _anchors(cfg, m)
    pairs = sec.get("pairs", 1000)
    fracs, worst = [], 0.0
    for i, (x, n) in enumerate(instances):
        rep = backward_contraction_check(m, x, n, params, pairs, d1,
                                         cfg.seed + i)
        fracs.append(rep.pass_fraction)
        worst = max(worst, rep.worst_ratio)
    emit("contraction.json", json_text({
        "delta1": d1, "instances": len(instances),
        "pass_fraction_min": min(fracs), "pass_fraction_mean":
            float(np.mean(fracs)), "worst_ratio": worst,
    }))
    return {"pass_min": min(fracs)}


def _run_distortion(cfg, m, sampler, workers, emit):
    # Jacobian ratios need pairs clear of the critical set, so the pair
    # radius stays well inside the recurrence clearance
    sec, params, d1, instances, settings = _anchors(cfg, m, cap=0.25)
    pairs = sec.get("pairs", 1000)
    pot = _log_deriv_potential(m)
    # the second depth is the first hyperbolic time in [1.8 n, 2.2 n]:
    # the first time past ceil(1.8 n) - 1, when it is at most 2.2 n
    depths = sorted({n for _, n in instances})
    _, after = straddling_times(m, [x for x, _ in instances], params,
                                [math.ceil(1.8 * n) - 1 for n in depths])
    ratios = []
    for i, (x, n) in enumerate(instances):
        n2 = int(after[depths.index(n), i])
        if not 0 < n2 <= 2.2 * n:
            continue
        k1 = distortion_estimate(m, pot, x, n, pairs, d1, cfg.seed + i)
        k2 = distortion_estimate(m, pot, x, n2, pairs, d1, cfg.seed + 50021 + i)
        ratios.append(max(k1 / k2, k2 / k1))
    if not ratios:
        raise SamplingError(
            f"none of the {len(instances)} instances has a hyperbolic time "
            f"within 10 % of twice its depth; move the depth window or raise "
            f"instances ({settings})")
    emit("distortion.json", json_text({
        "delta1": d1, "instances": len(ratios),
        "ratio_median": float(np.median(ratios)),
        "ratio_max": float(np.max(ratios)),
        "ratio_mean": float(np.mean(ratios)),
    }))
    return {"ratio_max": float(np.max(ratios))}


STAGES = {
    "deviation": _run_deviation,
    "tail": _run_tail,
    "entropy": _run_entropy,
    "gibbs": _run_gibbs,
    "spec": _run_spec,
    "contraction": _run_contraction,
    "distortion": _run_distortion,
}


_OPS = {"==": operator.eq, "<": operator.lt, "<=": operator.le,
        ">=": operator.ge}
# tolerance key -> the target key whose check it modifies
_TOLERANCES = {how[1]: key for key, (_, _, _, how) in CHECKS.items()
               if isinstance(how, tuple)}


def _evaluate_checks(spec: dict, results: dict):
    """One verdict per [check] key; a result that is missing fails.

    A key with no evaluator, or a tolerance without its target, records a
    failing check rather than passing unseen.
    """
    checks = {}
    failures = []

    def record(name, ok, detail):
        checks[name] = {"ok": bool(ok), "detail": detail}
        if not ok:
            failures.append(name)

    for key, val in spec.items():
        if key in _TOLERANCES:
            if _TOLERANCES[key] not in spec:
                record(key, False, f"{key} without {_TOLERANCES[key]}")
            continue
        if key not in CHECKS:
            record(key, False, f"no evaluator for [check] {key}")
            continue
        _, name, field, how = CHECKS[key]
        got = results.get(field)
        if isinstance(how, tuple):
            mode, tol_key, default = how
            tol = spec.get(tol_key, default)
            ok = got is not None and abs(
                got - val if mode == "abs" else got / val - 1.0) <= tol
            record(name, ok, f"{field}={got} target={val} {tol_key}={tol}")
        else:
            record(name, got is not None and _OPS[how](got, val),
                   f"{field}={got} {how} {val}")
    return checks, failures
