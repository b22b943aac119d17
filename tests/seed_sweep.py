"""Seed sweep of the acceptance criteria: how many shifted seeds pass.

Shifts every pinned seed of ``test_acceptance.SEEDS`` by the same offset,
runs the chosen criteria under pytest, and prints each criterion's pass
count over the offsets.  Offset 0 is the pinned table itself.  pytest does
not collect this file; run it from the repository root:

    PYTHONPATH=src python tests/seed_sweep.py                 # 100 .. 1100
    PYTHONPATH=src python tests/seed_sweep.py --criteria 01 05 --offsets 0 100

Criteria 6, 11 and 12 draw no seeded sample; the default set is the six
whose Monte Carlo draws the table pins and that a seed can fail.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
DEFAULT_CRITERIA = ("01", "04", "05", "07", "08", "10")


class Shift:
    """A pytest plugin that shifts the seed table after collection and
    records the outcome of every criterion it runs."""

    base = None  # the pinned table, read once per process

    def __init__(self, offset: int):
        self.offset = offset
        self.passed = {}

    def pytest_collection_finish(self, session):
        seeds = sys.modules["test_acceptance"].SEEDS
        if Shift.base is None:
            Shift.base = dict(seeds)
        seeds.update({k: v + self.offset for k, v in Shift.base.items()})

    def pytest_runtest_logreport(self, report):
        if report.when == "call" or report.failed:
            crit = report.nodeid.split("criterion_")[1][:2]
            self.passed[crit] = self.passed.get(crit, True) and report.passed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--criteria", nargs="+", default=list(DEFAULT_CRITERIA))
    ap.add_argument("--offsets", nargs="+", type=int,
                    default=list(range(100, 1200, 100)))
    args = ap.parse_args(argv)
    select = " or ".join(f"criterion_{c}" for c in args.criteria)
    fails = {c: [] for c in args.criteria}
    for offset in args.offsets:
        shift = Shift(offset)
        pytest.main([str(HERE / "test_acceptance.py"), "-q", "-p",
                     "no:cacheprovider", "--no-header", "-k", select],
                    plugins=[shift])
        for c in args.criteria:
            if not shift.passed.get(c, False):
                fails[c].append(offset)
    print(f"\nseed sweep over offsets {args.offsets}:")
    for c in args.criteria:
        ok = len(args.offsets) - len(fails[c])
        print(f"  criterion {c}: passes at {ok} of {len(args.offsets)}"
              + (f", fails at {fails[c]}" if fails[c] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
