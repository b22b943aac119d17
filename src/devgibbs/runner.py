"""Experiment orchestration: dispatch, deterministic emission, manifest.

Data files (CSV/JSON) are byte-deterministic under a fixed config: floats
are serialized with their shortest round-trip representation, JSON keys
are sorted, and all Monte Carlo work is chunk-keyed so the worker count
cannot change any number.  On failure, partial outputs, the manifest and
the data files an earlier run's manifest names are removed, and the
failing stage is reported.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .config import CHECKS, ExperimentConfig
from .deviation import (DeviationExperiment, bound_report, free_energy_table,
                        legendre_rate, rate_curve, rate_estimate)
from .dynamics import PotentialModel
from .errors import ConfigError, DevgibbsError, SamplingError
from .gibbs import delta_set_rate, subexp_check
from .hyperbolic import (HyperbolicParams, classify_tail, default_params,
                         hyperbolic_times_batch, sample_anchors, tail_curve)
from .maps import make_family
from .metric import backward_contraction_check, calibrate_delta1, \
    distortion_estimate, katok_entropy
from .observables import make_observable
from .sampling import UniformSampler, load_empirical, read_table, spawn_rng
from .specprobe import nonuniform_spec_statistic
from .svg import line_plot


def fmt_float(v) -> str:
    """Shortest round-trip decimal text for a float."""
    v = float(v)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return repr(v)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            fmt_float(v) if isinstance(v, float) else str(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, obj):
    def default(o):
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.floating,)):
            return float(o)
        raise TypeError(type(o).__name__)

    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1, default=default)
        fh.write("\n")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


@dataclass
class RunManifest:
    files: dict
    checks: dict
    failures: list
    wall_time: float
    workers: int


def _hyper_params(cfg: ExperimentConfig, m, n_max_default=1000):
    sec = cfg.section("hyperbolic")
    base = default_params(m, n_max=sec.get("n_max", n_max_default))
    return HyperbolicParams(
        sigma=sec.get("sigma", base.sigma),
        delta=sec.get("delta", base.delta),
        b=sec.get("b", base.b),
        n_max=sec.get("n_max", base.n_max),
    )


def _log_deriv_potential(m) -> PotentialModel:
    """phi = -log |det Df| with zero pressure: the conformal benchmark."""
    from .observables import make_observable as mk
    g = mk("log_deriv", m)
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
    out = out_dir or cfg.out
    workers = workers or cfg.workers
    os.makedirs(out, exist_ok=True)
    earlier = _manifest_files(out)
    written = []
    t0 = time.time()
    m = make_family(cfg.family, cfg.map_params)
    sampler = UniformSampler(m.domain)
    results = {}

    def emit_csv(name, header, rows):
        path = os.path.join(out, name)
        write_csv(path, header, rows)
        written.append(path)

    def emit_json(name, obj):
        path = os.path.join(out, name)
        write_json(path, obj)
        written.append(path)

    def emit_svg(name, *args, **kw):
        path = os.path.join(out, name)
        with open(path, "w") as fh:
            fh.write(line_plot(*args, **kw))
        written.append(path)

    try:
        if cfg.kind == "deviation":
            results.update(_run_deviation(cfg, m, sampler, workers,
                                          emit_csv, emit_json, emit_svg))
        elif cfg.kind == "tail":
            results.update(_run_tail(cfg, m, sampler, workers,
                                     emit_csv, emit_json, emit_svg))
        elif cfg.kind == "entropy":
            results.update(_run_entropy(cfg, m, sampler, workers,
                                        emit_csv, emit_json, emit_svg))
        elif cfg.kind == "gibbs":
            results.update(_run_gibbs(cfg, m, sampler, workers,
                                      emit_csv, emit_json))
        elif cfg.kind == "spec":
            results.update(_run_spec(cfg, m, sampler, emit_json))
        elif cfg.kind in ("contraction", "distortion"):
            results.update(_run_contraction(cfg, m, emit_json))
        else:
            raise ConfigError(f"kind {cfg.kind} not dispatchable")
    except Exception as exc:
        for path in written + earlier + [os.path.join(out, "manifest.json")]:
            if os.path.isfile(path):
                os.remove(path)
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
        "checksums": {os.path.basename(p): _sha256(p) for p in written},
        "checks": checks,
        "check_failures": failures,
    }
    path = os.path.join(out, "manifest.json")
    write_json(path, manifest)
    return RunManifest(files={os.path.basename(p): _sha256(p) for p in written},
                       checks=checks, failures=failures,
                       wall_time=time.time() - t0, workers=workers)


def _run_deviation(cfg, m, sampler, workers, emit_csv, emit_json, emit_svg):
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
    curve = rate_curve(exp, workers=workers)
    emit_csv("rate_curve.csv",
             ["n", "hits", "samples", "p_hat", "ci_low", "ci_high",
              "log_rate"],
             [(int(n), int(h), int(s), float(p), float(lo), float(hi),
               float(lr))
              for n, h, s, p, lo, hi, lr in zip(
                  curve.n, curve.hits, curve.samples, curve.p_hat,
                  curve.ci_low, curve.ci_high, curve.log_rate)])
    window = tuple(dev.get("window", (int(curve.n[0]), int(curve.n[-1]))))
    fit = rate_estimate(curve, window)

    t_grid = dev.get("t_grid", [round(-1.0 + 0.05 * k, 2) for k in range(61)])
    fe_n = dev.get("fe_n", 12)
    fe_samples = dev.get("fe_samples", max(cfg.samples // 2, 1000))
    ts, psi = free_energy_table(m, sampler, g, t_grid, fe_n, fe_samples,
                                cfg.seed, workers=workers)
    leg = legendre_rate(ts, psi, dev["c"])

    tail_spec = dev.get("tail_rate", "neg_inf")
    if tail_spec == "measure":
        params = _hyper_params(cfg, m)
        tc = tail_curve(m, sampler, params, max(cfg.samples // 10, 1000),
                        cfg.seed, workers=workers)
        try:
            tf = classify_tail(tc)
            tail_rate = tf.rate if tf.kind == "exponential" else 0.0
        except ConfigError:
            tail_rate = float("-inf")  # tail died immediately: no mass
    elif tail_spec in ("neg_inf", "none"):
        tail_rate = float("-inf")
    else:
        tail_rate = float(tail_spec)

    rep = bound_report(fit.slope, tail_rate, leg.value, slack=0.02,
                       discontinuous_g=dev["g"] in ("indicator_half",
                                                    "spin_half"))
    obj = rep.as_dict()
    obj["rate_stderr"] = fit.stderr
    obj["legendre_t_star"] = leg.t_star
    obj["legendre_boundary"] = leg.boundary
    obj["window"] = list(window)
    obj["free_energy"] = {"t": list(map(float, ts)),
                          "psi": list(map(float, psi)),
                          "n": fe_n, "samples": fe_samples}
    emit_json("bound_report.json", obj)
    emit_svg("rate_curve.svg", [float(v) for v in curve.n],
             [float(v) for v in curve.p_hat],
             f"deviation probabilities: {m.label}", "n", "p_hat", logy=True)
    return {"rate": fit.slope, "legendre": leg.value,
            "upper_ok": rep.upper_ok, "lower_ok": rep.lower_ok,
            "psi_table": (ts, psi)}


def _run_tail(cfg, m, sampler, workers, emit_csv, emit_json, emit_svg):
    params = _hyper_params(cfg, m)
    samples = cfg.samples or 100000
    tc = tail_curve(m, sampler, params, samples, cfg.seed, workers=workers)
    emit_csv("tail.csv", ["n", "survivors", "fraction", "ci_low", "ci_high"],
             [(int(n), int(s), float(f), float(lo), float(hi))
              for n, s, f, lo, hi in zip(tc.n, tc.survivors, tc.fraction,
                                         tc.ci_low, tc.ci_high)])
    window = cfg.section("tail").get("window")
    fit = classify_tail(tc, window=tuple(window) if window else None)
    emit_json("tail_fit.json", {
        "kind": fit.kind, "rate": fit.rate, "exponent": fit.exponent,
        "semilog_residual": fit.semilog_residual,
        "loglog_residual": fit.loglog_residual,
        "rate_stderr": fit.rate_stderr,
        "exponent_stderr": fit.exponent_stderr,
        "window": list(fit.window), "truncated": tc.truncated,
        "samples": tc.samples,
    })
    emit_svg("tail.svg", [float(v) for v in tc.n],
             [float(v) for v in tc.fraction],
             f"first-time tail: {m.label}", "n", "fraction", logy=True)
    return {"tail_kind": fit.kind, "tail_rate": fit.rate,
            "tail_exponent": fit.exponent,
            "semilog_residual": fit.semilog_residual,
            "loglog_residual": fit.loglog_residual}


def _run_entropy(cfg, m, sampler, workers, emit_csv, emit_json, emit_svg):
    sec = cfg.section("entropy")
    est = katok_entropy(m, sampler, sec.get("n_grid", [3, 4, 5, 6, 7]),
                        sec.get("eps_grid", [0.2, 0.1, 0.05]),
                        sec.get("mass_deficit", 0.1),
                        cfg.samples or 100000, cfg.seed,
                        method=sec.get("method", "auto"))
    emit_csv("entropy_table.csv",
             ["epsilon", "n", "covering_count", "log_count"],
             [(float(e), int(n), int(c), float(lc))
              for e, n, c, lc in est.table])
    emit_json("entropy.json", {
        "entropy": est.entropy, "slope_stderr": est.slope_stderr,
        "slopes": {fmt_float(k): v for k, v in est.slopes.items()},
    })
    xs = sorted({row[1] for row in est.table})
    emit_svg("entropy.svg", [float(v) for v in xs],
             [math.exp(min(lc for e, n, c, lc in est.table if n == v))
              for v in xs],
             f"covering growth: {m.label}", "n", "N(n,eps,delta)", logy=True)
    return {"entropy": est.entropy}


def _run_gibbs(cfg, m, sampler, workers, emit_csv, emit_json):
    sec = cfg.section("gibbs")
    pot = _log_deriv_potential(m)
    rep = subexp_check(m, pot, sampler, sec.get("n_grid", [4, 10]),
                       sec.get("eps", 2.0 ** -6), cfg.samples or 100000,
                       cfg.seed, n_points=sec.get("points", 12),
                       workers=workers)
    emit_csv("gibbs_probe.csv",
             ["x_id", "n", "mass", "ci_low", "ci_high", "snphi", "k_hat",
              "log_k_over_n"],
             [(int(pid), int(n), float(mass), float(lo), float(hi),
               float(snphi), float(k), float(lkn))
              for pid, n, mass, lo, hi, snphi, k, lkn in rep.rows])
    out = {"subexp_statistic": rep.statistic, "flagged": rep.flagged}
    if "beta" in sec:
        params = _hyper_params(cfg, m)
        dr = delta_set_rate(m, params, sampler, sec["beta"],
                            sec.get("delta_n_grid", [200, 350, 500, 650]),
                            sec.get("delta_samples", 50000), cfg.seed, pot,
                            workers=workers)
        out["delta_hat"] = dr.delta_hat
        out["delta_rows"] = [list(r) for r in dr.rows]
        out["delta_censored"] = dr.censored
        out["c_beta"] = dr.c_beta
        out["sup_phi"] = dr.sup_phi
        out["sup_phi_clipped"] = dr.clipped
    emit_json("subexp.json", out)
    return {"subexp": rep.statistic, "delta_hat": out.get("delta_hat")}


def _run_spec(cfg, m, sampler, emit_json):
    sec = cfg.section("spec")
    params = _hyper_params(cfg, m, n_max_default=1600)
    rep = nonuniform_spec_statistic(
        m, sampler, sec.get("eps_grid", [1 / 64, 1 / 32]),
        sec.get("n_grid", [100, 1000]), params,
        sec.get("base_points", 100), cfg.seed,
        probe_count=sec.get("probes", 12), cap=sec.get("cap", 60))
    emit_json("gap_report.json", {
        "rows": [{"eps": eps, "n": n, "p_hat": val * n, "p_over_n": val}
                 for (eps, n), val in sorted(rep.sup_table.items())],
        "headline": rep.headline,
        "exactness": [{"eps": eps, "time": n}
                      for eps, n in sorted(rep.exactness.items())],
        "censored_fraction": rep.censored_fraction,
        "sampling": rep.sampling,
    })
    return {"headline": rep.headline,
            "exactness": rep.exactness[rep.eps_grid[0]]}


def _run_contraction(cfg, m, emit_json):
    if m.domain.ndim != 1:
        raise ConfigError(f"family = {cfg.family} is not one-dimensional; "
                          f"{cfg.kind} probes need an interval or circle map")
    sec = cfg.section(cfg.kind)
    params = _hyper_params(cfg, m, n_max_default=100)
    d1 = sec.get("delta1", "auto")
    if d1 == "auto":
        d1 = calibrate_delta1(m, params, cfg.seed)
        if cfg.kind == "distortion":
            # Jacobian ratios need pairs clear of the critical set, so the
            # pair radius stays well inside the recurrence clearance
            d1 = min(d1, params.delta / 4.0)
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
    pairs = sec.get("pairs", 1000)
    if cfg.kind == "contraction":
        fracs, worst = [], 0.0
        for i, (x, n) in enumerate(instances):
            rep = backward_contraction_check(m, x, n, params, pairs, d1,
                                             cfg.seed + i)
            fracs.append(rep.pass_fraction)
            worst = max(worst, rep.worst_ratio)
        emit_json("contraction.json", {
            "delta1": d1, "instances": len(instances),
            "pass_fraction_min": min(fracs), "pass_fraction_mean":
                float(np.mean(fracs)), "worst_ratio": worst,
        })
        return {"pass_min": min(fracs)}
    pot = _log_deriv_potential(m)
    deep = {}  # one scan per depth n, to the horizon 3 n
    for n in sorted({n for _, n in instances}):
        xs = [x for x, d in instances if d == n]
        deep[n] = iter(hyperbolic_times_batch(m, xs,
                                              replace(params, n_max=3 * n)))
    ratios = []
    for i, (x, n) in enumerate(instances):
        twos = [t for t in next(deep[n]) if 1.8 * n <= t <= 2.2 * n]
        if not twos:
            continue
        k1 = distortion_estimate(m, pot, x, n, pairs, d1, cfg.seed + i)
        k2 = distortion_estimate(m, pot, x, int(twos[0]), pairs, d1,
                                 cfg.seed + 50021 + i)
        ratios.append(max(k1 / k2, k2 / k1))
    if not ratios:
        raise SamplingError(
            f"none of the {len(instances)} instances has a hyperbolic time "
            f"within 10 % of twice its depth; move the depth window or raise "
            f"instances ({settings})")
    emit_json("distortion.json", {
        "delta1": d1, "instances": len(ratios),
        "ratio_median": float(np.median(ratios)),
        "ratio_max": float(np.max(ratios)),
        "ratio_mean": float(np.mean(ratios)),
    })
    return {"ratio_max": float(np.max(ratios)),
            "ratio_median": float(np.median(ratios))}


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
