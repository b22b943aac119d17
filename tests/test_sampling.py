import threading
import time

import numpy as np
import pytest

from devgibbs.domain import Circle
from devgibbs.sampling import (CHUNK, UniformSampler, chunk_map,
                               parallel_chunk_map, sample_chunks)


@pytest.mark.parametrize("workers", [2, 3])
def test_parallel_chunk_map_draws_jobs_lazily(workers):
    drawn, finished, ahead = [], [], []
    lock = threading.Lock()

    def jobs():
        for idx in range(12):
            with lock:
                drawn.append(idx)
                ahead.append(len(drawn) - len(finished))
            yield idx, np.full(4, float(idx))

    def fn(idx, payload):
        time.sleep(0.05 if idx == 0 else 0.002)
        with lock:
            finished.append(idx)
        return float(payload.sum()) + idx

    got = parallel_chunk_map(fn, jobs(), workers=workers)
    assert got == parallel_chunk_map(fn, jobs(), workers=1)
    assert got == [5.0 * idx for idx in range(12)]
    # no job is drawn more than workers + 1 ahead of the finished ones
    assert max(ahead) <= workers + 1


def test_sample_chunks_cover_total_in_order():
    class Counter:
        def sample(self, rng, n):
            return np.arange(n)

    sizes = [(idx, len(pts))
             for idx, pts in sample_chunks(Counter(), 2 * CHUNK + 5, 1, "t")]
    assert sizes == [(0, CHUNK), (1, CHUNK), (2, 5)]
    assert list(sample_chunks(Counter(), 0, 1, "t")) == []


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_chunk_map_returns_results_in_chunk_order(workers):
    sampler = UniformSampler(Circle())

    def job(pts):
        # the partial last chunk finishes first
        time.sleep(0.02 if pts.size == CHUNK else 0.0)
        return pts

    total = 3 * CHUNK + 7
    got = chunk_map(job, sampler, total, 5, "t", workers)
    want = [pts for _, pts in sample_chunks(sampler, total, 5, "t")]
    assert [len(p) for p in got] == [CHUNK, CHUNK, CHUNK, 7]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert chunk_map(job, sampler, 0, 5, "t", workers) == []
