"""Spans around the public entry points of each layer.

The benchmark wraps the functions below from its own files; nothing in
``src/`` is instrumented. A span records its name, layer, the benchmark
step (operation id) it belongs to, its parent span and its start and end
time, plus an optional count taken from the call's result. Spans stay in
memory and are written out once, when the benchmark ends. Only calls made
in the benchmark's own process are seen: Spark's Python workers are not
traced.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.core import index as core_index
from repro.core import query as core_query
from repro.core import recovery as core_recovery
from repro.core import run as core_run
from repro.storage import cache as storage_cache
from repro.storage import tiers as storage_tiers
from repro.wildfire import groomer, postgroomer, shard


def _rows(res, *_):
    return len(res["begin_ts"])


def _scan_note(res, args, kwargs):
    return [len(res["begin_ts"]), kwargs.get("method", args[5] if len(args) > 5 else "pq")]


def _maintain_note(events, *_):
    return [len(events), sum(ev.new_run.n_entries for ev in events)]


# (owner, attribute, layer, note(result, args, kwargs) -> count)
TARGETS = [
    (core_query, "batch_lookup", "core.query", _rows),
    (core_query, "range_scan", "core.query", _scan_note),
    (core_index.UmziIndex, "query_snapshot", "core.index", lambda r, *_: len(r.runs)),
    (core_index.UmziIndex, "source_for", "core.index", None),
    (core_run.IndexRun, "synopsis_admits_batch", "core.run", lambda r, *_: int(not r)),
    (core_run.IndexRun, "build", "core.run", lambda r, *_: r.n_entries),
    (core_run.IndexRun, "merge_runs", "core.run", lambda r, *_: r.n_entries),
    (core_run.IndexRun, "search", "core.run", _rows),
    (core_run.IndexRun, "decode_block", "storage.cache", None),
    (core_index.UmziIndex, "maintain", "core.merge", _maintain_note),
    (core_index.UmziIndex, "evolve", "core.index", None),
    (core_index.UmziIndex, "apply_cache_level", "core.index", None),
    (storage_cache.CacheManager, "read_block", "storage.cache", None),
    (storage_cache.CacheManager, "write_run", "storage.cache", None),
    (storage_cache.CacheManager, "purge_run", "storage.cache", None),
    (storage_tiers.DirTier, "get", "storage.tiers", None),
    (storage_tiers.DirTier, "put", "storage.tiers", None),
    (core_recovery, "recover", "core.recovery", None),
    (shard.TableShard, "ingest", "wildfire", None),
    (groomer.Groomer, "groom", "wildfire", None),
    (postgroomer.PostGroomer, "post_groom", "wildfire", None),
    (postgroomer.Indexer, "poll", "wildfire", None),
]

LAYERS = (
    "core.query", "core.index", "core.run", "core.merge", "core.recovery",
    "storage.cache", "storage.tiers", "wildfire",
)

NAME, LAYER, STEP, PARENT, T0, T1, NOTE = range(7)


class Tracer:
    """Records spans while installed; single-threaded callers only."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.step = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install
    def _wrap(self, fn, name: str, layer: str, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, self.step, stack[-1] if stack else -1,
                   time.perf_counter_ns(), 0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[T1] = time.perf_counter_ns()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(out, args, kwargs)
            return out

        return traced

    def install(self) -> None:
        for owner, attr, layer, note in TARGETS:
            raw = inspect.getattr_static(owner, attr)
            name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name, layer, note))
            else:
                wrapped = self._wrap(raw, name, layer, note)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def traced_step(self, step: int):
        """Spans recorded inside belong to ``step``."""
        self.step = step
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # ------------------------------------------------------------ queries
    def roots(self) -> list[int]:
        """Index of the outermost span above each span."""
        root = []
        for i, s in enumerate(self.spans):
            root.append(i if s[PARENT] < 0 else root[s[PARENT]])
        return root

    def self_ns(self) -> list[int]:
        """Span duration minus the time its child spans cover."""
        own = [s[T1] - s[T0] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[T1] - s[T0]
        return own

    def layer_self_ms(self, steps: set[int]) -> dict[str, float]:
        """Self time per layer, summed over ``steps``, in ms per step."""
        tot = defaultdict(float)
        for s, own in zip(self.spans, self.self_ns()):
            if s[STEP] in steps:
                tot[s[LAYER]] += own / 1e6
        n = max(1, len(steps))
        return {layer: tot[layer] / n for layer in LAYERS}

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
