"""Figures 8–11 harness: index build and query microbenchmarks (§8.2–8.3).

Scale-down vs the paper (documented in EXPERIMENTS.md): run sizes sweep
1K…1M (paper: 1K…100M) and the #runs sweep uses 20K-entry runs (paper:
100K) to bound memory; every other parameter matches the paper
(20 runs × 100K entries default, batch 1000, three index definitions).

Each cell is compute wall clock plus the virtual I/O of the paper's
setup, where every run is cached on the local SSD (§8.3). Results keep the
two apart (``wall_seconds``, ``io_seconds``); the normalized rows use
their sum.
"""
from __future__ import annotations

import time

import numpy as np

from repro.core import query as q
from repro.core.runlist import RunHandle
from repro.experiments import defs
from repro.storage import capture_io
from repro.synth_data import ingest_keys, query_keys

DEFAULT_SIZES = (1_000, 10_000, 100_000, 1_000_000)
DEFNS = ("I1", "I2", "I3")
QMODES = ("sequential", "random")


def _timeit(fn, repeats: int = 3) -> tuple[float, float]:
    """Best of N runs of ``fn``: its (compute wall clock, virtual SSD
    block-read time), kept apart; the best run has the smallest sum.

    The virtual component models the paper's setup where every run is
    cached on the local SSD and queries pay one read per index data block
    touched (amortized within a batch) — see ``run.MemorySource``.
    """
    best = (float("inf"), 0.0)
    for _ in range(repeats):
        with capture_io() as cap:
            t0 = time.perf_counter()
            fn()
            wall = time.perf_counter() - t0
        if wall + cap.seconds < sum(best):
            best = (wall, cap.seconds)
    return best


def _split(raw: dict) -> dict:
    """``{key: (wall, io)}`` → the result's ``wall_seconds`` and
    ``io_seconds`` fields."""
    return {
        "wall_seconds": {k: w for k, (w, _io) in raw.items()},
        "io_seconds": {k: io for k, (_w, io) in raw.items()},
    }


def _repeats_for(n: int) -> int:
    return 5 if n <= 10_000 else (3 if n <= 100_000 else 1)


# ------------------------------------------------------------------- Figure 8
def fig08(sizes=DEFAULT_SIZES, defns=DEFNS, seed: int = 0) -> dict:
    """Index-run build time vs #entries per definition, normalized to
    I1 @ smallest size (paper Fig. 8)."""
    raw: dict[tuple[str, int], tuple[float, float]] = {}
    for defn in defns:
        spec = defs.make_spec(defn)
        for n in sizes:
            # Wide key space ≈ the paper's random 8-byte longs: both split
            # columns keep high cardinality at every run size.
            keys = ingest_keys(
                n, mode="random", seed=seed, key_space=max(2_000, n * defs.SPLIT)
            )
            raw[(defn, n)] = _timeit(
                lambda: defs.build_run(spec, defn, keys, gbid=0),
                repeats=_repeats_for(n),
            )
    t = {k: sum(v) for k, v in raw.items()}
    base = t[("I1", sizes[0])]
    rows = [{"n": n, **{d: t[(d, n)] / base for d in defns}} for n in sizes]
    return {"rows": rows, **_split(raw), "baseline_seconds": base}


# ------------------------------------------------------------------- Figure 9
def fig09(sizes=DEFAULT_SIZES, defns=DEFNS, batch: int = 1000, seed: int = 0) -> dict:
    """Single-run batched lookups, sequential vs random query batches,
    normalized to sequential I1 @ smallest size (paper Fig. 9a/9b)."""
    raw: dict[tuple[str, str, int], tuple[float, float]] = {}
    for defn in defns:
        for n in sizes:
            index = defs.make_index(defn)
            keys = ingest_keys(n, mode="sequential")
            run = defs.build_run(index.spec, defn, keys, gbid=0)
            index.groomed.prepend(RunHandle(run))
            for qmode in QMODES:
                qk = query_keys(batch, mode=qmode, key_space=n, seed=seed)
                eq_p, sort_p = defs.probes_for(defn, qk)
                raw[(qmode, defn, n)] = _timeit(
                    lambda: q.batch_lookup(index, eq_p, sort_p, 2**62),
                    repeats=_repeats_for(n),
                )
    t = {k: sum(v) for k, v in raw.items()}
    base = t[("sequential", "I1", sizes[0])]
    tables = {}
    for qmode in QMODES:
        tables[qmode] = [
            {"n": n, **{d: t[(qmode, d, n)] / base for d in defns}}
            for n in sizes
        ]
    return {"tables": tables, **_split(raw), "baseline_seconds": base}


# -------------------------------------------------------------- Figures 10/11
def _build_multi_run_index(
    defn: str,
    n_runs: int,
    run_size: int,
    ingest_mode: str,
    *,
    split: int = defs.SPLIT,
    seed: int = 0,
):
    """Index with ``n_runs`` level-0 runs; sequential ingest gives run i
    the contiguous key range [i·run_size, (i+1)·run_size) (time-
    correlated), random ingest samples each run from the whole space."""
    index = defs.make_index(defn)
    spec = index.spec
    total = n_runs * run_size
    for i in range(n_runs):
        if ingest_mode == "sequential":
            keys = np.arange(i * run_size, (i + 1) * run_size, dtype=np.int64)
        else:
            g = np.random.default_rng(seed * 7919 + i)
            keys = g.integers(0, total, run_size, dtype=np.int64)
        run = defs.build_run(spec, defn, keys, gbid=i, split=split)
        index.groomed.prepend(RunHandle(run))
    return index, total


def _panel(x: str, xs, raw: dict, t: dict) -> dict:
    """One (a)/(b)/(c) panel: ``t`` per (query mode, x) normalized to
    sequential @ ``xs[0]``, plus the raw wall/virtual-I/O split."""
    base = t[("sequential", xs[0])]
    rows = [{x: v, **{m: t[(m, v)] / base for m in QMODES}} for v in xs]
    return {"rows": rows, **_split(raw), "baseline_seconds": base}


def fig10_11_batch(
    ingest_mode: str,
    *,
    n_runs: int = 20,
    run_size: int = 100_000,
    batches=(1, 10, 100, 1_000, 10_000),
    defn: str = "I1",
    seed: int = 0,
) -> dict:
    """(a) panels: per-key lookup time vs batch size, sequential vs
    random query batches; normalized to sequential @ batch=1. The raw
    seconds are per batch."""
    index, total = _build_multi_run_index(defn, n_runs, run_size, ingest_mode, seed=seed)
    raw: dict[tuple[str, int], tuple[float, float]] = {}
    for qmode in QMODES:
        for b in batches:
            qk = query_keys(b, mode=qmode, key_space=total, seed=seed + b)
            eq_p, sort_p = defs.probes_for(defn, qk)
            raw[(qmode, b)] = _timeit(lambda: q.batch_lookup(index, eq_p, sort_p, 2**62))
    # per-key time (paper's y-axis)
    t = {(m, b): sum(v) / b for (m, b), v in raw.items()}
    return _panel("batch", batches, raw, t)


def fig10_11_runs(
    ingest_mode: str,
    *,
    run_counts=(1, 10, 20, 40, 60, 80, 100),
    run_size: int = 20_000,
    batch: int = 1000,
    defn: str = "I1",
    seed: int = 0,
) -> dict:
    """(b) panels: batch lookup time vs #runs; normalized to sequential
    @ 1 run."""
    raw: dict[tuple[str, int], tuple[float, float]] = {}
    for nr in run_counts:
        index, total = _build_multi_run_index(defn, nr, run_size, ingest_mode, seed=seed)
        for qmode in QMODES:
            qk = query_keys(batch, mode=qmode, key_space=total, seed=seed + nr)
            eq_p, sort_p = defs.probes_for(defn, qk)
            raw[(qmode, nr)] = _timeit(lambda: q.batch_lookup(index, eq_p, sort_p, 2**62))
    return _panel("runs", run_counts, raw, {k: sum(v) for k, v in raw.items()})


def fig10_11_scan(
    ingest_mode: str,
    *,
    n_runs: int = 20,
    run_size: int = 100_000,
    ranges=(1, 10, 100, 1_000, 10_000, 100_000),
    defn: str = "I1",
    seed: int = 0,
) -> dict:
    """(c) panels: range-scan time vs scan range size, sequential vs
    random range starts; normalized to sequential @ range=1.

    Uses a large key-split (2^20) so the sort column's space covers the
    largest range inside one equality value.
    """
    split = 1 << 20
    index, total = _build_multi_run_index(
        defn, n_runs, run_size, ingest_mode, split=split, seed=seed
    )
    g = np.random.default_rng(seed)
    raw: dict[tuple[str, int], tuple[float, float]] = {}
    for qmode in QMODES:
        for r in ranges:
            # Range = one equality value (c1), sort col c2 in [lo, lo+r).
            if qmode == "sequential":
                start = 0
            else:
                start = int(g.integers(0, max(1, min(total, split) - r)))
            c1 = start // split
            lo = start % split
            hi = min(lo + r - 1, split - 1)
            raw[(qmode, r)] = _timeit(
                lambda: q.range_scan(index, (c1,), (lo,), (hi,), 2**62, method="pq")
            )
    return _panel("range", ranges, raw, {k: sum(v) for k, v in raw.items()})


PANELS = {"a_batch": fig10_11_batch, "b_runs": fig10_11_runs, "c_scan": fig10_11_scan}


def fig10() -> dict:
    """Figure 10: the three panels with sequentially ingested keys."""
    return {name: panel("sequential") for name, panel in PANELS.items()}


def fig11() -> dict:
    """Figure 11: the three panels with randomly ingested keys."""
    return {name: panel("random") for name, panel in PANELS.items()}
