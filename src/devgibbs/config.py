"""Experiment configuration: a sectioned key = value text format.

Keys before any [section] header belong to the experiment block, or to
the selected kind's block when they are kind-specific (which makes the
minimal flat files work).  Unknown keys and malformed values are hard
errors carrying the line number.  The seed is mandatory: runs must never
default to wall-clock entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .deviation import check_t_grid
from .errors import ConfigError

# [check] target key -> (value kind, check name, result field, comparison).
# A comparison is an operator applied as ``got <op> target`` or an
# (absolute | relative, tolerance key, default tolerance) triple; every
# tolerance key is a float.
CHECKS = {
    "rate_target": ("float", "rate", "rate", ("abs", "rate_tol", 0.02)),
    "require_upper_ok": ("bool", "upper_ok", "upper_ok", "=="),
    "require_lower_ok": ("bool", "lower_ok", "lower_ok", "=="),
    "legendre_target": ("float", "legendre", "legendre",
                        ("abs", "legendre_tol", 0.01)),
    "kind_expected": ("str", "tail_kind", "tail_kind", "=="),
    "slope_max": ("float", "tail_slope", "tail_rate", "<"),
    "exponent_target": ("float", "tail_exponent", "tail_exponent",
                        ("abs", "exponent_tol", 0.3)),
    "entropy_target": ("float", "entropy", "entropy",
                       ("rel", "entropy_rel_tol", 0.05)),
    "subexp_max": ("float", "subexp", "subexp", "<="),
    "delta_max": ("float", "delta_max", "delta_hat", "<="),
    "delta_min": ("float", "delta_min", "delta_hat", ">="),
    "headline_max": ("float", "headline", "headline", "<="),
    "pass_min": ("float", "pass_min", "pass_min", ">="),
    "ratio_max": ("float", "ratio", "ratio_max", "<="),
    "exactness_target": ("int", "exactness", "exactness", "=="),
}

# value kinds: int, count (an int >= 1), float, str, bool, *_list, window
# (two increasing ints), or (words) for number-or-word
_SCHEMA = {
    "experiment": {
        "family": "str",
        "kind": "str",
        "seed": "int",
        "samples": "count",
        "workers": "count",
        "out": "str",
    },
    "map": {"a": "float", "alpha": "float", "d": "int"},
    "hyperbolic": {"sigma": "float", "delta": "float", "b": "float",
                   "n_max": "count"},
    "deviation": {
        "g": "str", "c": "float", "direction": "str", "n": "int_list",
        "window": "window", "t_grid": "float_list", "fe_n": "count",
        "fe_samples": "count", "tail_rate": ("neg_inf", "none", "measure"),
        "g_file": "str", "sampler_file": "str",
    },
    "tail": {"window": "window"},
    "entropy": {"n_grid": "int_list", "eps_grid": "float_list",
                "mass_deficit": "float"},
    "gibbs": {"eps": "float", "n_grid": "int_list", "points": "count",
              "beta": "float", "delta_n_grid": "int_list",
              "delta_samples": "count"},
    "spec": {"eps_grid": "float_list", "n_grid": "int_list",
             "base_points": "count", "probes": "count", "cap": "count"},
    **{kind: {"instances": "count", "pairs": "count", "delta1": ("auto",),
              "depth_lo": "count", "depth_hi": "count"}
       for kind in ("contraction", "distortion")},
    "check": {**{key: kind for key, (kind, _, _, _) in CHECKS.items()},
              **{how[1]: "float" for _, _, _, how in CHECKS.values()
                 if isinstance(how, tuple)}},
}

# every other section is an experiment kind, run by ``runner.STAGES[kind]``
KINDS = tuple(name for name in _SCHEMA
              if name not in ("experiment", "map", "hyperbolic", "check"))
_EXPERIMENT_KEYS = set(_SCHEMA["experiment"])
# kinds that size their draws by keys of their own section, not samples
_DRAW_KEYS = {"spec": "base_points", "contraction": "instances and pairs",
              "distortion": "instances and pairs"}


def _parse_scalar(raw: str, want, line: int, name: str):
    raw = raw.strip()
    if want == "str" or isinstance(want, tuple) and raw in want:
        return raw
    try:
        if want == "bool":
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError
        v = float(raw)  # an int, a float or the number of a word key
        if not math.isfinite(v):
            raise ConfigError(f"{name} = {raw} must be finite", line=line)
        if want == "int" and not v == int(v):
            raise ValueError
        return int(v) if want == "int" else v
    except ValueError:
        if isinstance(want, tuple):
            raise ConfigError(f"cannot parse {raw!r}: use {', '.join(want)} "
                              f"or a number", line=line)
        raise ConfigError(f"cannot parse {raw!r} as {want}", line=line)


def _parse_value(raw: str, want, line: int, name: str):
    raw = raw.strip()
    if want == "count":
        v = _parse_scalar(raw, "int", line, name)
        if v < 1:
            raise ConfigError(f"{raw} is not a count: use an integer >= 1",
                              line=line)
        return v
    if want == "window":
        v = _parse_value(raw, "int_list", line, name)
        if len(v) != 2 or v[0] >= v[1]:
            raise ConfigError(f"window {raw} is not two increasing "
                              f"integers [lo, hi]", line=line)
        return v
    if isinstance(want, str) and want.endswith("_list"):
        inner = raw[1:-1] if raw.startswith("[") and raw.endswith("]") else raw
        parts = [p for p in (s.strip() for s in inner.split(",")) if p]
        if not parts:
            raise ConfigError("empty list value", line=line)
        base = want[:-5]
        return [_parse_scalar(p, base, line, name) for p in parts]
    return _parse_scalar(raw, want, line, name)


# word keys whose number has a sign: key -> (test, requirement)
_WORD_SIGNS = {"tail_rate": (lambda v: v <= 0, "<= 0: it is a decay rate"),
               "delta1": (lambda v: v > 0, "> 0: it is a ball radius")}


def _parse_key(section: str, key: str, raw: str, line: int):
    """The value of ``key`` in ``section``, checked against the schema."""
    v = _parse_value(raw, _SCHEMA[section][key], line, f"[{section}] {key}")
    ok, need = _WORD_SIGNS.get(key, (None, None))
    if isinstance(v, float) and ok and not ok(v):
        raise ConfigError(f"[{section}] {key} = {raw.strip()} must be {need}",
                          line=line)
    return v


@dataclass
class ExperimentConfig:
    family: str
    kind: str
    seed: int
    samples: Optional[int]
    workers: int
    out: str
    map_params: dict
    sections: dict
    raw_text: str

    def section(self, name: str) -> dict:
        return self.sections.get(name, {})


def parse_config(text: str) -> ExperimentConfig:
    sections: dict = {}
    current: Optional[str] = None
    pending_kind_keys = []  # (line, key, raw) seen before [section] headers

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#") or stripped.startswith(";"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(f"unknown section [{name}]", line=lineno)
            current = name
            sections.setdefault(name, {})
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected key = value, got {stripped!r}",
                              line=lineno)
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if current is None:
            if key in _EXPERIMENT_KEYS:
                sections.setdefault("experiment", {})[key] = _parse_key(
                    "experiment", key, raw, lineno)
            else:
                pending_kind_keys.append((lineno, key, raw))
            continue
        if key not in _SCHEMA[current]:
            raise ConfigError(f"unknown key {key!r} in section [{current}]",
                              line=lineno)
        sections.setdefault(current, {})[key] = _parse_key(
            current, key, raw, lineno)

    exp = sections.get("experiment", {})
    kind = exp.get("kind", "deviation")
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")

    for lineno, key, raw in pending_kind_keys:
        sec = "map" if key in _SCHEMA["map"] else kind
        if key in _SCHEMA[sec]:
            sections.setdefault(sec, {})[key] = _parse_key(sec, key, raw,
                                                           lineno)
        else:
            raise ConfigError(f"unknown key {key!r}", line=lineno)

    if "family" not in exp:
        raise ConfigError("missing required key 'family'")
    if "seed" not in exp:
        raise ConfigError("missing required key 'seed' (runs must be seeded)")

    samples = exp.get("samples")
    if kind == "deviation":
        if samples is None:
            raise ConfigError("missing required key 'samples'")
        if samples < 1000:
            raise ConfigError(
                f"samples={samples} below the minimum of 1000")
        dev = sections.get("deviation", {})
        for req in ("g", "c", "n"):
            if req not in dev:
                raise ConfigError(f"missing required deviation key {req!r}")
        grid = dev["n"]
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("deviation n grid must be strictly increasing")
        if "t_grid" in dev:
            check_t_grid(dev["t_grid"])
    if kind in ("spec", "gibbs") and "n_max" in sections.get("hyperbolic", {}):
        raise ConfigError(
            f"[hyperbolic] n_max is not read by kind = {kind}: its scans "
            f"run to gap_horizon(max n) = 1.5 max n + 50; remove the key")
    # kinds that scan only on a key of their own section: tail_rate or beta
    own = sections.get(kind, {})
    unread = {"entropy": "it runs no hyperbolic-time scan",
              "deviation": "it scans only with tail_rate = measure",
              "gibbs": "it scans only when [gibbs] beta is set"}
    if (sections.get("hyperbolic") and kind in unread
            and own.get("tail_rate") != "measure" and "beta" not in own):
        raise ConfigError(
            f"[hyperbolic] {next(iter(sections['hyperbolic']))} is not read "
            f"by kind = {kind}: {unread[kind]}; remove the key")
    if samples is not None and kind in _DRAW_KEYS:
        raise ConfigError(
            f"samples is not read by kind = {kind}: it draws [{kind}] "
            f"{_DRAW_KEYS[kind]}; remove the key")
    return ExperimentConfig(
        family=exp["family"],
        kind=kind,
        seed=exp["seed"],
        samples=samples,
        workers=exp.get("workers", 1),
        out=exp.get("out", "out"),
        map_params=sections.get("map", {}),
        sections=sections,
        raw_text=text,
    )
