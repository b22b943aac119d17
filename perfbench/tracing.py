"""In-memory spans around the public functions of each devgibbs module.

Wrappers are installed on every module attribute through which a caller
looks the function up: ``runner`` binds its callees with
``from .x import f`` and ``specprobe`` does the same for
``hyperbolic_times``, so patching only the defining module would miss
those calls.  Each span records its name, start, end, parent span and run
id; spans opened inside a pool job take the pool span as parent even
though they run on a worker thread.  Nothing is written until the
benchmark ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    run: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_id = ""
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None, **attrs):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            sp = Span(next(self._ids), name, parent, self.run_id,
                      time.perf_counter(), attrs=attrs)
        stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def wrap(self, name: str, fn, counters=None):
        """``fn`` inside a span; ``counters(args, kwargs, result)`` adds attrs."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if counters is not None:
                    sp.attrs.update(counters(args, kwargs, result))
                return result
        return traced

    def patch(self, owner, attr: str, replacement):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, package: str, original, replacement):
        """Replace ``original`` in every loaded module of ``package``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package
                                   or mod_name.startswith(package + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self.patch(mod, attr, replacement)

    def uninstall(self):
        while self._restore:
            owner, attr, val = self._restore.pop()
            setattr(owner, attr, val)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: Span, spans) -> float:
    """Duration minus the part of it that the span's children cover."""
    kids = [(max(s.start, span.start), min(s.end, span.end))
            for s in spans if s.parent == span.id]
    return span.duration - covered([k for k in kids if k[1] > k[0]])


# ---------------------------------------------------------------------------
# where to wrap: (span name, module, attribute, counters)


def _first_times_counters(args, kwargs, first):
    params = args[2] if len(args) > 2 else kwargs["params"]
    # the scan stops at the largest first time once every point has one
    steps = params.n_max if (first == 0).any() else int(first.max())
    return {"point_steps": int(first.size) * steps}


def _hyperbolic_times_counters(args, kwargs, rec):
    return {"steps": int(rec.n_max)}


def _ball_intervals_counters(args, kwargs, result):
    centers, n = args[1], args[2]
    iters = args[4] if len(args) > 4 else kwargs.get("iters", 48)
    # one centre orbit, then per side one full-radius probe and ``iters``
    # bisection orbits, each of n steps per centre
    return {"point_steps": len(centers) * n * (1 + 2 * (1 + iters))}


def _covering_counters(args, kwargs, count):
    return {"balls": int(count), "points": len(args[1])}


def _sample_counters(args, kwargs, pts):
    return {"points": len(pts)}


def install(tracer: Tracer, dg) -> None:
    """Wrap the layer boundaries of the imported ``devgibbs`` package."""
    targets = [
        ("runner.run", dg.runner, "run", None),
        ("deviation.rate_curve", dg.deviation, "rate_curve", None),
        ("deviation.free_energy_table", dg.deviation, "free_energy_table",
         None),
        ("hyperbolic.tail_curve", dg.hyperbolic, "tail_curve", None),
        ("hyperbolic.first_times_batch", dg.hyperbolic, "first_times_batch",
         _first_times_counters),
        ("hyperbolic.hyperbolic_times", dg.hyperbolic, "hyperbolic_times",
         _hyperbolic_times_counters),
        ("metric.katok_entropy", dg.metric, "katok_entropy", None),
        ("metric.ball_intervals", dg.metric, "ball_intervals",
         _ball_intervals_counters),
        ("metric.covering_number", dg.metric, "covering_number",
         _covering_counters),
        ("specprobe.nonuniform_spec_statistic", dg.specprobe,
         "nonuniform_spec_statistic", None),
        ("specprobe.exactness_time", dg.specprobe, "exactness_time", None),
    ]
    for name, mod, attr, counters in targets:
        orig = getattr(mod, attr)
        tracer.patch_everywhere("devgibbs", orig,
                                tracer.wrap(name, orig, counters))

    pool = dg.sampling.parallel_chunk_map

    def traced_pool(fn, jobs, workers=1):
        with tracer.span("sampling.parallel_chunk_map",
                         workers=workers) as pool_span:
            def job(idx, payload):
                with tracer.span("sampling.job", parent=pool_span.id):
                    return fn(idx, payload)
            return pool(job, jobs, workers=workers)

    tracer.patch_everywhere("devgibbs", pool, traced_pool)
    sampler_cls = dg.sampling.UniformSampler
    tracer.patch(sampler_cls, "sample",
                 tracer.wrap("sampling.sample", sampler_cls.sample,
                             _sample_counters))
