import json
import os
import subprocess
import sys
import threading

import pytest
from click.testing import CliRunner

from devgibbs.cli import main
from devgibbs.config import parse_config
from devgibbs import runner as run_mod
from devgibbs.errors import ConfigError, DevgibbsError, SamplingError
from devgibbs.runner import _evaluate_checks

MINIMAL = """\
family = doubling
g = indicator_half
c = 0.7
n = [10, 20, 30]
samples = 1e6
seed = 42
"""

TINY_RUN = """\
family = doubling
kind = deviation
seed = 9
samples = 5000
out = {out}

[deviation]
g = indicator_half
c = 0.7
n = [8, 12, 16]
window = [8, 16]
tail_rate = neg_inf
fe_n = 6
fe_samples = 5000
t_grid = [-0.5, 0.0, 0.5, 1.0, 1.5]
"""


def test_parse_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.family == "doubling"
    assert cfg.kind == "deviation"
    assert cfg.seed == 42
    assert cfg.samples == 1000000
    assert cfg.section("deviation")["n"] == [10, 20, 30]


def test_parse_rejects_small_samples():
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL.replace("samples = 1e6", "samples = 10"))
    assert "minimum" in str(exc.value)


def test_parse_rejects_unknown_key():
    bad = MINIMAL + "sigma_typo = 1.4\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert "sigma_typo" in str(exc.value)
    assert "line 7" in str(exc.value)


def test_parse_rejects_unknown_section_key():
    text = MINIMAL + "[hyperbolic]\nsigmah = 2\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert "sigmah" in str(exc.value)


def test_parse_requires_seed():
    text = MINIMAL.replace("seed = 42\n", "")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert "seed" in str(exc.value)


def test_parse_rejects_decreasing_grid():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("[10, 20, 30]", "[10, 10, 30]"))


def test_parse_rejects_tail_rate_auto():
    with pytest.raises(ConfigError,
                       match="use neg_inf, none, measure or a number"):
        parse_config(MINIMAL + "tail_rate = auto\n")
    # delta1 shares the word parser and keeps auto (calibration)
    cfg = parse_config("family = doubling\nkind = contraction\nseed = 1\n"
                       "delta1 = auto\n")
    assert cfg.section("contraction")["delta1"] == "auto"


def test_validate_command(tmp_path):
    p = tmp_path / "ok.cfg"
    p.write_text(MINIMAL)
    runner = CliRunner()
    res = runner.invoke(main, ["validate", str(p)])
    assert res.exit_code == 0
    assert "ok:" in res.output


def test_validate_command_bad_config(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text(MINIMAL + "bogus_key = 3\n")
    runner = CliRunner()
    res = runner.invoke(main, ["validate", str(p)])
    assert res.exit_code == 1
    assert "bogus_key" in res.output


def test_list_commands():
    runner = CliRunner()
    fams = runner.invoke(main, ["list-families"])
    assert fams.exit_code == 0
    for name in ("doubling", "quadratic", "manneville_pomeau",
                 "perturbed_expanding", "viana"):
        assert name in fams.output
    obs = runner.invoke(main, ["list-observables"])
    assert obs.exit_code == 0
    assert "indicator_half" in obs.output and "log_deriv" in obs.output


def test_run_emits_contract_files(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN.format(out=out))
    runner = CliRunner()
    res = runner.invoke(main, ["run", str(cfg)])
    assert res.exit_code == 0, res.output
    for name in ("rate_curve.csv", "bound_report.json", "rate_curve.svg",
                 "manifest.json"):
        assert (out / name).exists()
    rep = json.loads((out / "bound_report.json").read_text())
    for key in ("measured_rate", "tail_rate", "legendre_rate", "upper_ok",
                "lower_ok", "slack"):
        assert key in rep


def test_run_determinism_across_workers(tmp_path):
    runner = CliRunner()
    digests = []
    for tag, workers in (("a", "1"), ("b", "3")):
        out = tmp_path / tag
        cfg = tmp_path / f"cfg_{tag}.cfg"
        cfg.write_text(TINY_RUN.format(out=out))
        res = runner.invoke(main, ["run", str(cfg), "--workers", workers])
        assert res.exit_code == 0, res.output
        manifest = json.loads((out / "manifest.json").read_text())
        digests.append({k: v for k, v in manifest["checksums"].items()
                        if not k.endswith(".svg")})
        assert manifest["workers"] == int(workers)
    assert digests[0] == digests[1]


@pytest.mark.parametrize("name", ["tail_quadratic.cfg", "spec_doubling.cfg"])
def test_scan_configs_are_worker_invariant(tmp_path, name):
    # the bundled configs that read the hyperbolic-time scan
    from importlib import resources
    text = (resources.files("devgibbs") / "configs" / name).read_text()
    files = [run_mod.run(parse_config(text), out_dir=str(tmp_path / f"w{w}"),
                         workers=w).files for w in (1, 2)]
    assert files[0] == files[1]


def test_run_check_failure_exit_code(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "failing.cfg"
    cfg.write_text(TINY_RUN.format(out=out) + "\n[check]\nrate_target = 0.5\nrate_tol = 0.001\n")
    runner = CliRunner()
    res = runner.invoke(main, ["run", str(cfg), "--check"])
    assert res.exit_code == 3
    assert "FAIL" in res.output


def test_run_config_error_exit_code(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("family = doubling\nnot a kv line\n")
    runner = CliRunner()
    res = runner.invoke(main, ["run", str(cfg)])
    assert res.exit_code == 1
    assert "line 2" in res.output


def test_run_missing_arg_without_check():
    runner = CliRunner()
    res = runner.invoke(main, ["run"])
    assert res.exit_code == 1


def test_tail_run_emits_fit(tmp_path):
    out = tmp_path / "tail"
    cfg = tmp_path / "tail.cfg"
    cfg.write_text(f"""\
family = manneville_pomeau
kind = tail
seed = 5
samples = 5000
out = {out}

[hyperbolic]
n_max = 200
""")
    runner = CliRunner()
    res = runner.invoke(main, ["run", str(cfg)])
    assert res.exit_code == 0, res.output
    fit = json.loads((out / "tail_fit.json").read_text())
    assert "rate" in fit and "exponent" in fit
    header = (out / "tail.csv").read_text().splitlines()[0]
    assert header == "n,survivors,fraction,ci_low,ci_high"


def test_bounds_kind_is_unknown(tmp_path):
    # bounds was an alias of deviation: same stage, same files and checks
    text = MINIMAL.replace("seed = 42", "seed = 42\nkind = bounds")
    with pytest.raises(ConfigError,
                       match="unknown experiment kind 'bounds'"):
        parse_config(text)
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text(text)
    res = CliRunner().invoke(main, ["validate", str(cfg)])
    assert res.exit_code == 1
    assert "unknown experiment kind 'bounds'" in res.output


def test_gibbs_run_emits_delta_censored(tmp_path):
    # MP's indifferent fixed point leaves some next times past the horizon,
    # so the count is not zero
    from devgibbs import gibbs, hyperbolic, maps
    from devgibbs.sampling import UniformSampler
    out = tmp_path / "gibbs"
    cfg = tmp_path / "gibbs.cfg"
    cfg.write_text(f"""\
family = manneville_pomeau
kind = gibbs
seed = 4
samples = 20000
out = {out}

[gibbs]
n_grid = [2, 4]
eps = 0.05
points = 6
beta = 3.0
delta_n_grid = [15, 30, 45]
delta_samples = 3000
""")
    res = CliRunner().invoke(main, ["run", str(cfg)])
    assert res.exit_code == 0, res.output
    rep = json.loads((out / "subexp.json").read_text())
    m = maps.make_family("manneville_pomeau")
    dr = gibbs.delta_set_rate(m, hyperbolic.default_params(m),
                              UniformSampler(m.domain), 3.0, [15, 30, 45],
                              3000, 4, run_mod._log_deriv_potential(m))
    assert rep["delta_censored"] == dr.censored > 0
    assert rep["delta_rows"] == [list(r) for r in dr.rows]


def test_piecewise_observable_and_empirical_sampler(tmp_path):
    table = tmp_path / "g.txt"
    table.write_text("0.0 0.0\n0.5 1.0\n1.0 0.0\n")
    pts = tmp_path / "pts.txt"
    pts.write_text("".join(f"{v}\n" for v in
                           [i / 2000 for i in range(2000)]))
    out = tmp_path / "pw"
    cfg = tmp_path / "pw.cfg"
    cfg.write_text(f"""\
family = doubling
kind = deviation
seed = 4
samples = 2000
out = {out}

[deviation]
g = piecewise_linear
g_file = {table}
sampler_file = {pts}
c = 0.55
n = [4, 6, 8]
fe_n = 4
fe_samples = 2000
t_grid = [0.0, 0.5, 1.0]
""")
    runner = CliRunner()
    res = runner.invoke(main, ["run", str(cfg)])
    assert res.exit_code == 0, res.output
    assert (out / "rate_curve.csv").exists()


def test_empirical_sampler_points_checked_against_domain(tmp_path):
    # quadratic(2) sends a point outside [-1, 1] off to -inf; one within
    # the edge tolerance is moved onto the edge, as if the file said 1.0
    def run(name, edge):
        pts = tmp_path / f"{name}.txt"
        pts.write_text("".join(f"{v!r}\n" for v in
                               [edge] + [i / 500 - 1 for i in range(1000)]))
        out = tmp_path / name
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"""\
family = quadratic
kind = deviation
seed = 4
samples = 2000
out = {out}

[map]
a = 2.0

[deviation]
g = identity
sampler_file = {pts}
c = 0.1
n = [4, 6, 8]
fe_n = 6
fe_samples = 2000
t_grid = [-1.0, 0.0, 1.0]
""")
        return CliRunner().invoke(main, ["run", str(cfg)]), out, pts

    res, edge_out, _ = run("edge", 1.0)
    assert res.exit_code == 0, res.output
    res, near_out, _ = run("near", 1.0000000000005)
    assert res.exit_code == 0, res.output
    data = sorted(f for f in os.listdir(edge_out) if f != "manifest.json")
    assert data and data == sorted(f for f in os.listdir(near_out)
                                   if f != "manifest.json")
    for fname in data:
        assert ((edge_out / fname).read_bytes()
                == (near_out / fname).read_bytes()), fname
    res, _, pts = run("outside", 1.1)
    assert res.exit_code == 2
    assert f"sampler_file {pts}" in res.output


def test_failed_run_removes_stale_manifest(tmp_path):
    out = tmp_path / "out"
    runner = CliRunner()
    good = tmp_path / "good.cfg"
    good.write_text(TINY_RUN.format(out=out))
    assert runner.invoke(main, ["run", str(good)]).exit_code == 0
    assert (out / "rate_curve.csv").exists()
    (out / "notes.txt").write_text("not named by the manifest\n")
    # past the doubling map's floating-point horizon: the stage fails
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_RUN.format(out=out).replace("[8, 12, 16]",
                                                    "[60, 80, 100]"))
    res = runner.invoke(main, ["run", str(bad)])
    assert res.exit_code == 1
    assert "lower n to at most 52" in res.output
    # the earlier run's data files go with its manifest; other files stay
    assert sorted(os.listdir(out)) == ["notes.txt"]


SPEC_RUN = """\
family = doubling
kind = spec
seed = 3
out = {out}

[spec]
eps_grid = [0.015625, 0.03125]
n_grid = [20, 40]
base_points = 3

[check]
exactness_target = {target}
"""


def test_spec_run_checks_exactness_target(tmp_path):
    runner = CliRunner()
    for target, code in ((5, 0), (999, 3)):
        out = tmp_path / f"t{target}"
        cfg = tmp_path / f"spec{target}.cfg"
        cfg.write_text(SPEC_RUN.format(out=out, target=target))
        res = runner.invoke(main, ["run", str(cfg), "--check"])
        assert res.exit_code == code, res.output
        assert "check exactness" in res.output
        gap = json.loads((out / "gap_report.json").read_text())
        assert gap["exactness"][0] == {"eps": 0.015625, "time": 5}
        assert len(gap["exactness"]) == 2


def test_check_ratio_max_reads_the_maximum():
    checks, failures = _evaluate_checks(
        {"ratio_max": 2.0}, {"ratio_max": 3.0, "ratio_median": 1.0})
    assert failures == ["ratio"]
    assert "ratio_max=3.0" in checks["ratio"]["detail"]


def test_check_without_result_or_evaluator_fails():
    checks, failures = _evaluate_checks(
        {"rate_target": -0.08, "bogus_check": 1, "legendre_tol": 0.01},
        {"headline": 0.0})
    assert sorted(failures) == ["bogus_check", "legendre_tol", "rate"]
    assert not any(c["ok"] for c in checks.values())


def test_every_check_key_has_an_evaluator():
    from devgibbs.config import _SCHEMA
    for key in _SCHEMA["check"]:
        if key.endswith("tol"):
            continue
        checks, _ = _evaluate_checks({key: 1}, {})
        assert len(checks) == 1
        assert "no evaluator" not in next(iter(checks.values()))["detail"], key


def test_viana_deviation_past_float_horizon(tmp_path):
    # the base angle theta -> 16 theta mod 1 drops four bits a step
    out = tmp_path / "out"
    cfg = tmp_path / "viana.cfg"
    cfg.write_text(TINY_RUN.format(out=out).replace("family = doubling",
                                                    "family = viana"))
    res = CliRunner().invoke(main, ["run", str(cfg)])
    assert res.exit_code == 1
    assert "n=16 exceeds" in res.output
    assert "lower n to at most 13" in res.output


VIANA_TAIL = """\
family = viana
kind = tail
seed = 7
samples = 20000
out = {out}

[hyperbolic]
n_max = {n_max}

[tail]
window = [1, 12]
"""


def test_viana_tail_past_float_horizon(tmp_path):
    # from step 14 on the base angle of every orbit is exactly 0
    out = tmp_path / "out"
    cfg = tmp_path / "viana.cfg"
    cfg.write_text(VIANA_TAIL.format(out=out, n_max=300))
    res = CliRunner().invoke(main, ["run", str(cfg)])
    assert res.exit_code == 1
    assert "n_max=300 exceeds the floating-point horizon 13" in res.output
    assert "lower n_max to at most 13" in res.output
    assert not out.exists()
    cfg.write_text(VIANA_TAIL.format(out=out, n_max=12))
    res = CliRunner().invoke(main, ["run", str(cfg)])
    assert res.exit_code == 0, res.output
    assert (out / "tail_fit.json").is_file()


SHORT_TAIL = """\
family = quadratic
kind = tail
seed = 1
samples = 5000
out = {out}

[hyperbolic]
n_max = 14
"""


def test_short_tail_names_its_window_and_leaves_no_directory(tmp_path):
    # the default window [8, n_max] holds 7 points when n_max is 14
    out = tmp_path / "out"
    cfg = tmp_path / "tail.cfg"
    cfg.write_text(SHORT_TAIL.format(out=out))
    res = CliRunner().invoke(main, ["run", str(cfg)])
    assert res.exit_code == 1
    assert "in the window [8, 14], found 7" in res.output
    assert "[tail] window" in res.output and "n_max" in res.output
    assert not out.exists()


HYPERBOLIC_RUN = """\
family = doubling
kind = {kind}
seed = 4

[hyperbolic]
n_max = {n_max}

[{kind}]
instances = 2
pairs = 50
delta1 = 0.05
depth_lo = 8
depth_hi = 12
"""


def _stage_error(tmp_path, text):
    with pytest.raises(DevgibbsError) as exc:
        run_mod.run(parse_config(text), out_dir=str(tmp_path / "out"))
    assert isinstance(exc.value.__cause__, SamplingError)
    return str(exc.value)


@pytest.mark.parametrize("kind", ["contraction", "distortion"])
def test_no_hyperbolic_time_in_depth_window(tmp_path, kind):
    # every orbit stops at n_max = 6, below the depth window
    msg = _stage_error(tmp_path, HYPERBOLIC_RUN.format(kind=kind, n_max=6))
    for setting in ("depth_lo = 8", "depth_hi = 12", "instances = 2",
                    "n_max = 6"):
        assert setting in msg


def test_distortion_without_time_near_twice_depth(tmp_path, monkeypatch):
    # a map whose hyperbolic times stop at depth_hi: none lies near 2n
    real = run_mod.straddling_times

    def capped(m, xs, params, n_grid):
        before, after = real(m, xs, params, n_grid)
        return before, after * (after <= 12)

    monkeypatch.setattr(run_mod, "straddling_times", capped)
    msg = _stage_error(tmp_path,
                       HYPERBOLIC_RUN.format(kind="distortion", n_max=100))
    assert "twice its depth" in msg
    for setting in ("depth_lo", "depth_hi", "instances", "n_max"):
        assert setting in msg


@pytest.mark.parametrize("kind", ["contraction", "distortion"])
def test_viana_contraction_probes_refused(tmp_path, kind):
    # the probes draw and perturb one-dimensional points
    cfg = tmp_path / "viana.cfg"
    cfg.write_text(HYPERBOLIC_RUN.format(kind=kind, n_max=100).replace(
        "family = doubling", "family = viana"))
    res = CliRunner().invoke(main, ["run", str(cfg), "--out",
                                    str(tmp_path / "out")])
    assert res.exit_code == 1
    assert "config error" in res.output
    assert "family = viana" in res.output


def test_cli_import_leaves_scipy_unloaded():
    # no module of the package imports scipy; only the tests use it
    src = os.path.dirname(os.path.dirname(run_mod.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, devgibbs.cli; "
         "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_deviation_run_leaves_scipy_unloaded(tmp_path):
    # the free-energy table's log-sum-exp is numpy's, so a deviation run
    # loads no scipy module
    src = os.path.dirname(os.path.dirname(run_mod.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    cfg = os.path.join(os.path.dirname(run_mod.__file__), "configs",
                       "deviation_doubling.cfg")
    code = (
        "import sys\n"
        "from devgibbs.config import parse_config\n"
        "from devgibbs.runner import run\n"
        f"with open({cfg!r}) as fh:\n"
        f"    run(parse_config(fh.read()), out_dir={str(tmp_path / 'out')!r})\n"
        "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_preimage_paths_leave_scipy_optimize_unloaded():
    # every branch inverse is the vectorized Newton solve, not a root finder
    src = os.path.dirname(os.path.dirname(run_mod.__file__))
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    code = (
        "import sys\n"
        "import oracles\n"
        "from devgibbs import maps, metric, specprobe as sp\n"
        "for m in (maps.make_mp(0.5), maps.make_perturbed_expanding(4, 0.55)):\n"
        "    oracles.preimage(m.branches, m.branches.ball(0.3, 0.05))\n"
        "    metric.ball_intervals(m, [0.3, 0.7], 6, 0.05)\n"
        "    sp.exactness_time(m, 0.05, [0.3, 0.7])\n"
        "print('scipy.optimize' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_every_kind_has_one_stage():
    from devgibbs.config import KINDS
    assert set(run_mod.STAGES) == set(KINDS)


@pytest.mark.parametrize("args, env, named", [
    (["--workers", "0"], {}, "worker count 0"),
    (["--workers", "-3"], {}, "worker count -3"),
    ([], {"DEVGIBBS_WORKERS": "two"}, "DEVGIBBS_WORKERS='two'"),
])
def test_bad_worker_count_is_a_config_error(tmp_path, args, env, named):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN.format(out=out))
    res = CliRunner().invoke(main, ["run", str(cfg), *args], env=env)
    assert res.exit_code == 1, res.output
    assert f"config error: {named}" in res.output
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("family, line, takes", [
    ("quadratic", "d = 7", "it takes a"),
    ("doubling", "a = 0.3", "it takes none"),
])
def test_map_key_the_family_does_not_take(tmp_path, family, line, takes):
    out = tmp_path / "out"
    cfg = tmp_path / "map.cfg"
    cfg.write_text(TINY_RUN.format(out=out).replace(
        "family = doubling", f"family = {family}") + f"\n[map]\n{line}\n")
    key = line.split()[0]
    for command in ("validate", "run"):
        res = CliRunner().invoke(main, [command, str(cfg)])
        assert res.exit_code == 1, res.output
        assert f"takes no [map] key {key!r}; {takes}" in res.output
    assert not out.exists()


def test_family_parameter_out_of_range_is_a_config_error(tmp_path):
    cfg = tmp_path / "range.cfg"
    cfg.write_text("family = quadratic\nkind = tail\nseed = 1\n"
                   f"out = {tmp_path / 'out'}\n\n[map]\na = 3.0\n")
    for command in ("validate", "run"):
        res = CliRunner().invoke(main, [command, str(cfg)])
        assert res.exit_code == 1, res.output
        assert "config error: quadratic parameter a=3.0" in res.output


@pytest.mark.parametrize("kind", ["spec", "gibbs"])
def test_n_max_of_a_gap_scan_kind_is_a_config_error(tmp_path, kind):
    # spec and gibbs scan to gap_horizon(max n), whatever n_max says
    out = tmp_path / "out"
    cfg = tmp_path / "gap.cfg"
    cfg.write_text(f"family = doubling\nkind = {kind}\nseed = 3\n"
                   f"out = {out}\n\n[hyperbolic]\nn_max = 100\n")
    for command in ("validate", "run"):
        res = CliRunner().invoke(main, [command, str(cfg)])
        assert res.exit_code == 1, res.output
        assert (f"config error: [hyperbolic] n_max is not read by "
                f"kind = {kind}") in res.output
        assert "1.5 max n + 50" in res.output
    assert not out.exists()


@pytest.mark.parametrize("family,kind,body,condition", [
    ("doubling", "entropy", "", "it runs no hyperbolic-time scan"),
    ("doubling", "deviation",
     "g = indicator_half\nc = 0.7\nn = [8, 12]\ntail_rate = neg_inf\n",
     "it scans only with tail_rate = measure"),
    ("manneville_pomeau", "gibbs", "eps = 0.05\nn_grid = [2, 4]\n",
     "it scans only when [gibbs] beta is set"),
])
def test_unread_hyperbolic_keys_are_a_config_error(tmp_path, family, kind,
                                                   body, condition):
    # these runs write the same bytes with and without the keys
    out = tmp_path / "out"
    cfg = tmp_path / "unread.cfg"
    cfg.write_text(f"family = {family}\nkind = {kind}\nseed = 3\n"
                   f"samples = 5000\nout = {out}\n\n[{kind}]\n{body}\n"
                   f"[hyperbolic]\nsigma = 1.9\ndelta = 0.3\nb = 0.1\n")
    for command in ("validate", "run"):
        res = CliRunner().invoke(main, [command, str(cfg)])
        assert res.exit_code == 1, res.output
        assert (f"config error: [hyperbolic] sigma is not read by "
                f"kind = {kind}: {condition}") in res.output
    assert not out.exists()


def test_hyperbolic_keys_of_a_scanning_run_validate():
    dev = TINY_RUN.replace("tail_rate = neg_inf", "tail_rate = measure")
    gibbs = "family = doubling\nkind = gibbs\nseed = 3\n\n[gibbs]\nbeta = 3\n"
    for text in (dev, gibbs):
        cfg = parse_config(text + "\n[hyperbolic]\nsigma = 1.9\n")
        assert cfg.section("hyperbolic") == {"sigma": 1.9}


def test_deviation_tail_rate_measure(tmp_path):
    # the bound's tail rate is read off a first-time tail of a tenth of the
    # samples, at the run's seed and hyperbolic parameters
    from dataclasses import replace
    from devgibbs import hyperbolic, maps
    from devgibbs.sampling import UniformSampler
    text = (TINY_RUN.replace("family = doubling", "family = quadratic")
            .replace("samples = 5000", "samples = 20000")
            .replace("tail_rate = neg_inf", "tail_rate = measure")
            + "\n[hyperbolic]\nn_max = 200\n")
    m = maps.make_family("quadratic")
    tc = hyperbolic.tail_curve(m, UniformSampler(m.domain),
                               replace(hyperbolic.default_params(m),
                                       n_max=200), 2000, 9)
    try:
        fit = hyperbolic.classify_tail(tc)
        want = fit.rate if fit.kind == "exponential" else 0.0
    except ConfigError:
        if not tc.truncated:
            raise  # points survive to n_max: the run refuses the window
        want = float("-inf")
    for workers in ("1", "2"):
        out = tmp_path / workers
        cfg = tmp_path / f"measure{workers}.cfg"
        cfg.write_text(text.format(out=out))
        res = CliRunner().invoke(main, ["run", str(cfg), "--workers", workers])
        assert res.exit_code == 0, res.output
        rep = json.loads((out / "bound_report.json").read_text())
        assert rep["tail_rate"] == want


MEASURED_TAIL = """\
family = {family}
kind = deviation
seed = 3
samples = 20000
out = {out}

[deviation]
g = cos2pi
c = 0.3
n = [4, 5, 6, 7, 8, 9, 10, 11, 12]
fe_n = 10
tail_rate = measure

[hyperbolic]
n_max = {n_max}
"""


def test_measured_tail_short_window_is_a_config_error(tmp_path):
    # 22 of the 2,000 tail points survive to n = 14: the window is short,
    # the tail is not empty
    out = tmp_path / "out"
    cfg = tmp_path / "short.cfg"
    cfg.write_text(MEASURED_TAIL.format(family="quadratic", out=out,
                                        n_max=14))
    res = CliRunner().invoke(main, ["run", str(cfg)])
    assert res.exit_code == 1, res.output
    assert "tail_rate = measure" in res.output
    assert "raise [hyperbolic] n_max (now 14)" in res.output
    assert "[tail] window" not in res.output
    assert not out.exists()


def test_measured_tail_that_dies_out_reads_neg_inf(tmp_path):
    # every doubling first time is 1: no point survives to n_max
    out = tmp_path / "out"
    cfg = tmp_path / "measure.cfg"
    cfg.write_text(MEASURED_TAIL.format(family="doubling", out=out, n_max=40))
    res = CliRunner().invoke(main, ["run", str(cfg)])
    assert res.exit_code == 0, res.output
    rep = json.loads((out / "bound_report.json").read_text())
    assert rep["tail_rate"] == float("-inf")


@pytest.mark.parametrize("word", ["measure", "neg_inf"])
def test_delta1_words_of_tail_rate_are_a_config_error(tmp_path, word):
    out = tmp_path / "out"
    cfg = tmp_path / "delta1.cfg"
    cfg.write_text(HYPERBOLIC_RUN.format(kind="contraction", n_max=100)
                   .replace("seed = 4", f"seed = 4\nout = {out}")
                   .replace("delta1 = 0.05", f"delta1 = {word}"))
    for command in ("validate", "run"):
        res = CliRunner().invoke(main, [command, str(cfg)])
        assert res.exit_code == 1, res.output
        assert f"cannot parse {word!r}: use auto or a number" in res.output
    assert not out.exists()


@pytest.mark.parametrize("kind,reads", [
    ("spec", "[spec] base_points"),
    ("contraction", "[contraction] instances and pairs"),
    ("distortion", "[distortion] instances and pairs"),
])
def test_samples_of_a_kind_that_draws_by_its_own_keys(tmp_path, kind, reads):
    out = tmp_path / "out"
    cfg = tmp_path / "samples.cfg"
    cfg.write_text(f"family = doubling\nkind = {kind}\nseed = 3\n"
                   f"samples = 1e6\nout = {out}\n")
    for command in ("validate", "run"):
        res = CliRunner().invoke(main, [command, str(cfg)])
        assert res.exit_code == 1, res.output
        assert (f"config error: samples is not read by kind = {kind}: it "
                f"draws {reads}") in res.output
    assert not out.exists()


def test_viana_entropy_refused(tmp_path):
    # a cylinder cover would need a 2,000 x 2,000 membership matrix per
    # cell, and every count saturates at ceil(0.9 * 2,000)
    out = tmp_path / "out"
    cfg = tmp_path / "entropy.cfg"
    cfg.write_text(f"family = viana\nkind = entropy\nseed = 5\n"
                   f"samples = 2000\nout = {out}\n")
    res = CliRunner().invoke(main, ["run", str(cfg)])
    assert res.exit_code == 1, res.output
    assert "config error: family = viana is not one-dimensional" in res.output
    assert not out.exists()


def test_spec_cell_with_every_point_censored_reads_inf(tmp_path):
    # at sigma = 3.9 no sampled point has a hyperbolic time past n = 50
    # within the horizon; a p_hat below the exactness time 8 cannot be true
    out = tmp_path / "out"
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(f"family = perturbed_expanding\nkind = spec\nseed = 5\n"
                   f"out = {out}\n\n[map]\nd = 4\na = 0.55\n\n[hyperbolic]\n"
                   f"sigma = 3.9\n\n[spec]\neps_grid = [0.015625]\n"
                   f"n_grid = [50, 100]\nbase_points = 12\n\n[check]\n"
                   f"headline_max = 0.05\n")
    res = CliRunner().invoke(main, ["run", str(cfg), "--check"])
    assert res.exit_code == 3, res.output
    assert "check headline: FAIL (headline=inf <= 0.05)" in res.output
    gap = json.loads((out / "gap_report.json").read_text())
    assert gap["censored_fraction"] == 1.0
    assert [row["p_hat"] for row in gap["rows"]] == [float("inf")] * 2


@pytest.mark.parametrize("kind,body,line,named", [
    ("spec", "probes = 0", 6, "0 is not a count"),
    ("spec", "base_points = 0", 6, "0 is not a count"),
    ("contraction", "instances = 0", 6, "0 is not a count"),
    ("deviation", "window = [4, 6, 8]", 6, "window [4, 6, 8] is not two"),
    ("tail", "window = [20]", 6, "window [20] is not two"),
    ("tail", "window = [20, 20]", 6, "window [20, 20] is not two"),
])
def test_count_and_window_keys_are_checked_on_parse(tmp_path, kind, body,
                                                    line, named):
    out = tmp_path / "out"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"family = doubling\nkind = {kind}\nseed = 3\n"
                   f"out = {out}\n[{kind}]\n{body}\n")
    for command in ("validate", "run"):
        res = CliRunner().invoke(main, [command, str(cfg)])
        assert res.exit_code == 1, res.output
        assert f"config error: line {line}: {named}" in res.output
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("n_grid", "[3, 3, 3]"),
    ("eps_grid", "[0.2, 0.1, -0.05]"),
])
def test_entropy_grid_is_checked(tmp_path, key, value):
    out = tmp_path / "out"
    cfg = tmp_path / "entropy.cfg"
    cfg.write_text(f"family = doubling\nkind = entropy\nseed = 7\n"
                   f"samples = 5000\nout = {out}\n\n[entropy]\n"
                   f"{key} = {value}\n")
    res = CliRunner().invoke(main, ["run", str(cfg)])
    assert res.exit_code == 1, res.output
    assert f"config error: [entropy] {key} = " in res.output
    assert not out.exists()


@pytest.mark.parametrize("kind,key,value", [
    ("spec", "n_grid", "[0, 100]"),  # p / n at n = 0
    ("spec", "eps_grid", "[0.015625, -0.1]"),
    ("gibbs", "n_grid", "[-1, 4]"),
    ("gibbs", "n_grid", "[4, 4]"),  # one depth: a growth of 0
    ("gibbs", "delta_n_grid", "[0, 100]"),
])
def test_spec_and_gibbs_grids_are_checked(tmp_path, kind, key, value):
    out = tmp_path / "out"
    cfg = tmp_path / f"{kind}.cfg"
    body = {"n_grid": "[1, 2]", "eps": "0.2", "beta": "0.3", "points": "2"}
    body = ({"base_points": "10"} if kind == "spec" else body) | {key: value}
    cfg.write_text(f"family = doubling\nkind = {kind}\nseed = 3\n"
                   + ("samples = 2000\n" if kind == "gibbs" else "")
                   + f"out = {out}\n[{kind}]\n"
                   + "".join(f"{k} = {v}\n" for k, v in body.items()))
    res = CliRunner().invoke(main, ["run", str(cfg)])
    assert res.exit_code == 1, res.output
    assert f"config error: [{kind}] {key} = " in res.output
    assert not out.exists()


@pytest.mark.parametrize("grid", [
    "[1.0, 0.5, 2.0]",  # the Legendre edge flag reads the grid by position
    "[0.5, 0.5, 1.0]",
    "[nan, 1.0, 2.0]",
    "[-1.0, inf]",
])
def test_deviation_t_grid_is_checked(tmp_path, grid):
    out = tmp_path / "out"
    cfg = tmp_path / "dev.cfg"
    cfg.write_text(TINY_RUN.format(out=out).replace(
        "t_grid = [-0.5, 0.0, 0.5, 1.0, 1.5]", f"t_grid = {grid}"))
    for command in ("validate", "run"):
        res = CliRunner().invoke(main, [command, str(cfg)])
        assert res.exit_code == 1, res.output
        assert "config error: [deviation] t_grid = " in res.output
    assert not out.exists()


def test_deviation_single_t_validates(tmp_path):
    cfg = tmp_path / "dev.cfg"
    cfg.write_text(TINY_RUN.format(out=tmp_path / "out").replace(
        "t_grid = [-0.5, 0.0, 0.5, 1.0, 1.5]", "t_grid = [0.5]"))
    res = CliRunner().invoke(main, ["validate", str(cfg)])
    assert res.exit_code == 0, res.output


def test_gibbs_delta_grid_is_checked_before_the_ball_masses(tmp_path):
    # with the default eps the two centres' ball masses starve, so a grid
    # checked only after them is reported as starvation, not as the grid
    out = tmp_path / "out"
    cfg = tmp_path / "gibbs.cfg"
    cfg.write_text(f"family = doubling\nkind = gibbs\nseed = 3\n"
                   f"samples = 2000\nout = {out}\n[gibbs]\npoints = 2\n"
                   f"beta = 0.3\ndelta_n_grid = [0, 100]\n")
    res = CliRunner().invoke(main, ["run", str(cfg)])
    assert res.exit_code == 1, res.output
    assert "config error: [gibbs] delta_n_grid = " in res.output
    assert not out.exists()


MEASURED_PE3 = """\
family = perturbed_expanding
kind = deviation
seed = 3
samples = 20000
out = {out}

[map]
d = 3
a = 0.1

[deviation]
g = cos2pi
c = 0.3
n = [4, 5, 6, 7, 8, 9, 10, 11, 12]
fe_n = 10
tail_rate = measure

[hyperbolic]
n_max = 200
"""


def _bundled(name):
    from importlib import resources
    return (resources.files("devgibbs") / "configs" / name).read_text()


@pytest.mark.parametrize("text", [_bundled("deviation_doubling.cfg"),
                                  MEASURED_PE3.format(out="out")],
                         ids=["deviation_doubling", "measured_tail"])
def test_deviation_files_equal_across_worker_splits(tmp_path, text):
    # at workers >= 2 the free energy runs beside the rate curve on a
    # share of the workers; no byte of either output may move
    cfg = parse_config(text)
    got = []
    for w in (1, 2, 3):
        out = tmp_path / f"w{w}"
        run_mod.run(cfg, out_dir=str(out), workers=w)
        got.append([(out / name).read_bytes()
                    for name in ("rate_curve.csv", "bound_report.json")])
    assert got[0] == got[1] == got[2]


def test_free_energy_runs_beside_the_rate_curve(tmp_path, monkeypatch):
    # every chunk job records its start and end; the rate curve's first
    # job waits (at most 5 s) for a free-energy job to start, so thread
    # timing alone cannot decide the order
    from devgibbs import deviation, sampling
    events = []
    fe_started = threading.Event()

    def chunk_map(job, sampler, samples, seed, tag, workers=1):
        fe = tag.startswith("fe:")

        def wrapped(pts):
            events.append((tag, "start", threading.get_ident()))
            if fe:
                fe_started.set()
            out = job(pts)
            if not fe and not any(e[:2] == (tag, "end") for e in events):
                fe_started.wait(timeout=5)
            events.append((tag, "end", threading.get_ident()))
            return out
        return sampling.chunk_map(wrapped, sampler, samples, seed, tag,
                                  workers)

    monkeypatch.setattr(deviation, "chunk_map", chunk_map)
    run_mod.run(parse_config(_bundled("deviation_doubling.cfg")),
                out_dir=str(tmp_path / "out"), workers=2)
    steps = [e[:2] for e in events]
    assert steps.count(("dev", "end")) == 4  # 200,000 samples
    assert steps.count(("fe:12", "end")) == 2  # 100,000 samples
    first_fe = steps.index(("fe:12", "start"))
    last_dev = len(steps) - 1 - steps[::-1].index(("dev", "end"))
    assert first_fe < last_dev
    # workers 2: the rate curve on the calling thread, the free energy on
    # one helper thread
    threads = {tag: {e[2] for e in events if e[0] == tag}
               for tag in ("dev", "fe:12")}
    assert threads["dev"] == {threading.get_ident()}
    assert len(threads["fe:12"]) == 1
    assert threads["fe:12"] != threads["dev"]


def test_rate_window_error_comes_before_a_free_energy_overflow(tmp_path):
    # t = 1e308 overflows t * S_6 g; a window of two rows is refused too.
    # Either thread layout reports the rate window, as at workers 1, and
    # leaves no helper thread running
    overflow = TINY_RUN.replace("t_grid = [-0.5, 0.0, 0.5, 1.0, 1.5]",
                                "t_grid = [-0.5, 1e308]")
    for workers in (1, 2):
        before = threading.active_count()
        out = tmp_path / f"w{workers}"
        cfg = parse_config(overflow.format(out=out).replace(
            "window = [8, 16]", "window = [8, 12]"))
        with pytest.raises(ConfigError, match="rate estimation needs >= 3"):
            run_mod.run(cfg, workers=workers)
        assert threading.active_count() == before
        assert not out.exists()
        # with the window allowed, the overflow is what the run reports
        with pytest.raises(DevgibbsError, match=r"t_grid: t = 1e\+308"):
            run_mod.run(parse_config(overflow.format(out=out)),
                        workers=workers)
        assert threading.active_count() == before


def test_fe_n_past_horizon_refused_before_the_rate_curve(tmp_path,
                                                         monkeypatch):
    calls, real = [], run_mod.rate_curve

    def rate_curve(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(run_mod, "rate_curve", rate_curve)
    out = tmp_path / "out"
    cfg = tmp_path / "dev.cfg"
    cfg.write_text(TINY_RUN.format(out=out).replace("fe_n = 6", "fe_n = 60"))
    res = CliRunner().invoke(main, ["run", str(cfg)])
    assert res.exit_code == 1, res.output
    assert "fe_n=60 exceeds the floating-point horizon 52" in res.output
    assert calls == []
    assert not out.exists()


def test_gibbs_n_grid_past_float_horizon(tmp_path):
    # the viana base angle is exactly 0 from step 14 on: ball masses and
    # S_n phi at n = 16 would read collapsed orbits
    out = tmp_path / "out"
    cfg = tmp_path / "gibbs.cfg"
    cfg.write_text(f"family = viana\nkind = gibbs\nseed = 3\n"
                   f"samples = 200000\nout = {out}\n[gibbs]\n"
                   f"n_grid = [2, 16]\neps = 0.4\n")
    res = CliRunner().invoke(main, ["run", str(cfg)])
    assert res.exit_code == 1, res.output
    assert "[gibbs] n_grid=16 exceeds the floating-point horizon 13" \
        in res.output
    assert not out.exists()
