"""Deterministic, scheduling-independent Monte Carlo plumbing.

Every random draw comes from a counter-based Philox generator keyed by
(seed, tag, chunk index), so results are byte-identical however chunks
are scheduled across workers.  Chunk size is a fixed constant; reductions
always combine per-chunk results in chunk-index order.  ``chunk_map``,
the one driver of every chunked estimator, alone draws and pools chunks.
"""

from __future__ import annotations

import hashlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import DomainError

CHUNK = 1 << 16


def _philox_key(seed: int, tag: str, chunk: int) -> int:
    payload = f"{seed}:{tag}:{chunk}".encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=16).digest(), "little")


def spawn_rng(seed: int, tag: str, chunk: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, tag, chunk)))


@dataclass(frozen=True)
class UniformSampler:
    """Lebesgue (uniform) sampling of a domain."""

    domain: object
    label: str = "lebesgue"

    def sample(self, rng, n):
        return self.domain.sample(rng, n)


@dataclass(frozen=True)
class EmpiricalSampler:
    """Resampling with replacement from a fixed cloud of points."""

    points: np.ndarray
    label: str = "empirical"

    def sample(self, rng, n):
        idx = rng.integers(0, len(self.points), size=n)
        return np.asarray(self.points)[idx]


def read_table(path: str) -> list:
    """Rows of floats from a text file, skipping blank and ``#`` lines.

    Values are separated by commas or whitespace.
    """
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                rows.append([float(v) for v in line.replace(",", " ").split()])
    return rows


def load_empirical(path: str, domain) -> "EmpiricalSampler":
    """Empirical sampler from a text file of points of ``domain``, one a line.

    Cylinder points use two comma- or whitespace-separated coordinates.
    The points pass ``domain.require``, which moves a point within the
    edge tolerance onto the domain; a ``DomainError`` names the file.
    """
    pts = [vals[0] if len(vals) == 1 else vals for vals in read_table(path)]
    try:
        pts = domain.require(np.asarray(pts, dtype=float))
    except DomainError as exc:
        raise DomainError(f"sampler_file {path}: {exc}") from None
    return EmpiricalSampler(points=pts, label=f"file:{path}")


def sample_chunks(sampler, total: int, seed: int, tag: str):
    """Yield (chunk_index, points) with the per-chunk keyed generator.

    Every chunk holds ``CHUNK`` draws but the last, which holds the rest.
    """
    for idx, lo in enumerate(range(0, total, CHUNK)):
        size = min(CHUNK, total - lo)
        yield idx, sampler.sample(spawn_rng(seed, tag, idx), size)


def parallel_chunk_map(fn: Callable, jobs: Iterable, workers: int = 1) -> list:
    """Apply fn over (index, payload) jobs; results returned in job order.

    The combination order never depends on worker scheduling, which is
    what makes the output byte-deterministic under any worker count.
    Jobs are drawn lazily, at most ``workers + 1`` ahead of their results.
    """
    if workers <= 1:
        return [fn(idx, payload) for idx, payload in jobs]
    results, pending = [], deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for idx, payload in jobs:
            pending.append(pool.submit(fn, idx, payload))
            if len(pending) > workers:
                results.append(pending.popleft().result())
        results += [fut.result() for fut in pending]
    return results


def chunk_map(job: Callable, sampler, samples: int, seed: int, tag: str,
              workers: int = 1) -> list:
    """``job(points)`` on each keyed chunk, results in chunk order.  The
    pool is looked up when called, so a wrapped one sees every job."""
    return parallel_chunk_map(lambda idx, pts: job(pts),
                              sample_chunks(sampler, samples, seed, tag),
                              workers=workers)
