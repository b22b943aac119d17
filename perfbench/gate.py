"""Correctness gate for one runner.run output directory.

A run fails when it raises, when a configured check fails, when a
configured ``[check]`` key has no result in the manifest's ``checks``
(so a key the program parses but never evaluates is a failure, not a
silent pass), or when its data files differ from the workload's reference
run at the same seed.  SVG files are left out of the byte comparison.
"""

from __future__ import annotations

import hashlib
import json
import os

# [check] key -> name of the manifest check that evaluates it
CHECK_NAMES = {
    "rate_target": "rate",
    "require_upper_ok": "upper_ok",
    "require_lower_ok": "lower_ok",
    "legendre_target": "legendre",
    "kind_expected": "tail_kind",
    "slope_max": "tail_slope",
    "exponent_target": "tail_exponent",
    "entropy_target": "entropy",
    "subexp_max": "subexp",
    "delta_max": "delta_max",
    "delta_min": "delta_min",
    "headline_max": "headline",
    "pass_min": "pass_min",
    "ratio_max": "ratio",
}

# tolerance key -> the target key whose check it modifies
TOLERANCES = {
    "rate_tol": "rate_target",
    "legendre_tol": "legendre_target",
    "exponent_tol": "exponent_target",
    "entropy_rel_tol": "entropy_target",
}


def data_digests(out_dir) -> dict:
    """SHA-256 of every data file in a run directory (not SVG, not manifest)."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".svg") or name == "manifest.json":
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Gate:
    """Judges the runs of one workload at one seed against each other."""

    def __init__(self, check_spec: dict):
        self.expected = {}
        self.unchecked = []
        for key in check_spec:
            target = TOLERANCES.get(key, key)
            if target in CHECK_NAMES and target in check_spec:
                self.expected[key] = CHECK_NAMES[target]
            else:
                self.unchecked.append(key)
        self.reference = None

    def judge(self, out_dir) -> list:
        """Reasons the run in ``out_dir`` fails; empty when it passes."""
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        checks = manifest["checks"]
        reasons = [f"check {name} failed: {res['detail']}"
                   for name, res in sorted(checks.items()) if not res["ok"]]
        reasons += [f"[check] {key} has no result {name!r} in the manifest"
                    for key, name in sorted(self.expected.items())
                    if name not in checks]
        reasons += [f"[check] {key} is never evaluated"
                    for key in self.unchecked]
        digests = data_digests(out_dir)
        listed = {name: digest for name, digest
                  in manifest["checksums"].items()
                  if not name.endswith(".svg")}
        if digests != listed:
            reasons.append("data files disagree with the manifest checksums")
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            moved = sorted(n for n in set(digests) | set(self.reference)
                           if digests.get(n) != self.reference.get(n))
            reasons.append(f"data files differ from the reference run: {moved}")
        return reasons


def check_margin_min(check_spec: dict, out_dir) -> float:
    """Smallest (tol - |err|) / tol over the run's numeric checks.

    Results are read back from the data files the run wrote.  Returns
    ``nan`` when the workload configures no numeric check.
    """
    def load(name):
        with open(os.path.join(out_dir, name)) as fh:
            return json.load(fh)

    margins = []
    for key, val in check_spec.items():
        if key == "rate_target":
            got = load("bound_report.json")["measured_rate"]
            tol = check_spec.get("rate_tol", 0.02)
            margins.append((tol - abs(got - val)) / tol)
        elif key == "legendre_target":
            got = -load("bound_report.json")["legendre_rate"]
            tol = check_spec.get("legendre_tol", 0.01)
            margins.append((tol - abs(got - val)) / tol)
        elif key == "entropy_target":
            got = load("entropy.json")["entropy"]
            tol = check_spec.get("entropy_rel_tol", 0.05)
            margins.append((tol - abs(got / val - 1.0)) / tol)
        elif key == "slope_max":
            got = load("tail_fit.json")["rate"]
            margins.append((val - got) / abs(val))
        elif key == "headline_max":
            got = load("gap_report.json")["headline"]
            margins.append((val - got) / abs(val))
    return min(margins) if margins else float("nan")
