import threading
import time

import numpy as np
import pytest

from devgibbs.sampling import CHUNK, parallel_chunk_map, sample_chunks


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
