"""Command-line entry points.

Exit codes: 0 success, 1 configuration error, 2 runtime error,
3 acceptance-check failure in --check mode.
"""

from __future__ import annotations

import os
import sys
from importlib import resources

import click

from .config import parse_config
from .errors import ConfigError, DevgibbsError, ParameterError
from .maps import FAMILIES, family_defaults, make_family
from .observables import OBSERVABLES
from .runner import run as run_experiment


@click.group()
def main():
    """Deviation-set and weak-Gibbs probes for non-uniformly expanding maps."""


def _load(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    return parse_config(text)


def _refuse(why):
    click.echo(f"config error: {why}", err=True)
    sys.exit(1)


def _bundled_configs():
    pkg = resources.files("devgibbs") / "configs"
    return sorted(p for p in pkg.iterdir() if p.name.endswith(".cfg"))


@main.command()
@click.argument("config", required=False, type=click.Path())
@click.option("--check", is_flag=True,
              help="evaluate the [check] assertions after the run")
@click.option("--out", default=None, help="output directory override")
@click.option("--workers", default=None, type=int,
              help="worker count override (also DEVGIBBS_WORKERS)")
def run(config, check, out, workers):
    """Run one experiment config, or all bundled ones with --check."""
    raw = os.environ.get("DEVGIBBS_WORKERS")
    if workers is None and raw:
        try:
            workers = int(raw)
        except ValueError:
            _refuse(f"DEVGIBBS_WORKERS={raw!r} is not an integer")
    targets = []
    if config is not None:
        targets.append(("file", config))
    elif check:
        targets = [("bundled", p) for p in _bundled_configs()]
    else:
        click.echo("error: config path required unless --check", err=True)
        sys.exit(1)

    any_check_failed = False
    for kind, target in targets:
        try:
            if kind == "file":
                cfg = _load(target)
                name = target
            else:
                cfg = parse_config(target.read_text())
                name = target.name
        except ConfigError as exc:
            _refuse(exc)
        try:
            sub = None
            if kind == "bundled":
                sub = os.path.join(cfg.out, os.path.splitext(name)[0])
            manifest = run_experiment(cfg, out_dir=out or sub,
                                      workers=workers)
        except (ConfigError, ParameterError) as exc:
            _refuse(exc)
        except DevgibbsError as exc:
            click.echo(f"runtime error: {exc}", err=True)
            sys.exit(2)
        for fname, digest in sorted(manifest.files.items()):
            click.echo(f"{name}: wrote {fname} sha256={digest[:12]}")
        if check:
            for cname, res in sorted(manifest.checks.items()):
                status = "PASS" if res["ok"] else "FAIL"
                click.echo(f"{name}: check {cname}: {status} ({res['detail']})")
            if manifest.failures:
                any_check_failed = True
    if check and any_check_failed:
        sys.exit(3)


@main.command()
@click.argument("config", type=click.Path())
def validate(config):
    """Parse and validate a config without running it."""
    try:
        cfg = _load(config)
        make_family(cfg.family, cfg.map_params)
    except (ConfigError, ParameterError) as exc:
        _refuse(exc)
    click.echo(f"ok: kind={cfg.kind} family={cfg.family} seed={cfg.seed}")


@main.command("list-families")
def list_families():
    """Show the built-in map families and their parameters."""
    for name, (_, doc) in FAMILIES.items():
        defaults = ", ".join(f"{k}={v}"
                             for k, v in family_defaults(name).items())
        click.echo(f"{name}: {doc}"
                   + (f" (defaults: {defaults})" if defaults else ""))


@main.command("list-observables")
def list_observables():
    """Show the built-in observable registry."""
    for name, doc in OBSERVABLES.items():
        click.echo(f"{name}: {doc}")


if __name__ == "__main__":
    main()
