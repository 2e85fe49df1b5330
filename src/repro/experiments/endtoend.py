"""Figures 12–15 harness: concurrent ingest + groom + post-groom + query;
and the unified multi-zone Spark scan demo.

The paper's setup (§8.4): ~100K random records ingested per second,
groomer every second, post-groomer every 20 s, continuous batches of 1000
random lookups, 100-second runs, IoT update-rate model (p% of the last
cycle, 0.1·p% of the last 50, 0.01·p% of the last 100).

Scale-down (EXPERIMENTS.md): per-cycle ingest and cycle counts are
reduced; a "second" is one loop iteration. Lookup cost is wall-clock
compute **plus** the virtual I/O clock of the storage hierarchy, which is
what carries the purge/evolve effects (Figs. 14/15) independently of
container hardware. Reader concurrency (Fig. 12) uses real threads: the
run chains are read lock-free exactly as in the paper.
"""
from __future__ import annotations

import tempfile
import threading
import time
from dataclasses import dataclass, replace

import numpy as np
import pandas as pd

from repro.core import query as q
from repro.core.index import UmziConfig, UmziIndex
from repro.experiments import defs
from repro.storage import CacheManager, StorageHierarchy, capture_io
from repro.synth_data import iot_update_cycle
from repro.wildfire import Groomer, Indexer, PostGroomer, TableSchema, TableShard


@dataclass(frozen=True)
class E2EConfig:
    """One end-to-end experiment: the paper's §8.4 setup at the scale
    EXPERIMENTS.md documents (Figs. 13–15; Fig. 12 has its own)."""

    cycles: int = 24
    per_cycle: int = 4_000
    p: float = 0.10  # update rate (Fig. 13 sweeps this)
    readers: int = 1  # concurrent reader threads (Fig. 12 sweeps this)
    post_groom_every: int = 8  # paper: every 20 grooms
    evolve: bool = True  # Fig. 15: False = post-groomer disabled
    purge: str = "none"  # Fig. 14: none | half | all
    lookup_batch: int = 1000
    defn: str = "I1"
    seed: int = 0
    K: int = 3
    T: int = 4


@dataclass
class E2EResult:
    per_cycle_lookup_s: list  # avg (wall + virtual I/O) per lookup batch
    per_cycle_io_s: list  # virtual I/O component
    run_counts: list
    io_stats: dict
    final_describe: dict
    reader_batches: int = 0


def _apply_purge(index: UmziIndex, cache: CacheManager, mode: str) -> None:
    """Fig. 14's manual purge control: purge a fraction of the persisted
    runs (oldest first — the paper purges high levels first, §6.2)."""
    if mode == "none":
        return
    handles = list(index.groomed.snapshot() + index.postgroomed.snapshot())
    # Oldest = highest level, lowest gbid: purge from the back of the chain.
    persisted = [h for h in reversed(handles) if not h.run.resident]
    n = len(persisted) if mode == "all" else len(persisted) // 2
    for h in persisted[:n]:
        cache.purge_run(h.run.run_id)


def run_e2e(cfg: E2EConfig) -> E2EResult:
    """Run one configuration; returns the per-cycle lookup-time series.
    The run's storage tiers live in a temporary directory removed at the
    end."""
    with tempfile.TemporaryDirectory(prefix="umzi-e2e-") as tmp:
        return _run_e2e(cfg, StorageHierarchy(tmp))


def _run_e2e(cfg: E2EConfig, hier: StorageHierarchy) -> E2EResult:
    spec = defs.make_spec(cfg.defn)
    key_cols = tuple(spec.eq_cols + spec.sort_cols)
    schema = TableSchema(
        name="iot",
        columns=key_cols + ("v",),
        primary_key=key_cols,
        sharding_key=key_cols[:1],
        partition_key=key_cols[-1:],
    )
    cache = CacheManager(hier)
    index = UmziIndex(spec, UmziConfig(K=cfg.K, T=cfg.T), cache)
    shard = TableShard(schema)
    groomer = Groomer(shard, index, hier)
    pg = PostGroomer(schema, index, hier)
    indexer = Indexer(schema, index, hier, pg)

    rng = np.random.default_rng(cfg.seed)
    next_key = 0
    lookup_s: list[float] = []
    io_s: list[float] = []
    run_counts: list[int] = []
    total_batches = 0

    for cycle in range(cfg.cycles):
        keys, next_key = iot_update_cycle(
            cycle, cfg.per_cycle, p=cfg.p, next_new_key=next_key, seed=cfg.seed
        )
        # The flat key stream maps through the same (c1, c2) split the
        # index definition uses, so ingest and probes agree.
        eq, sorts = defs.key_columns(cfg.defn, keys)
        cols = eq | sorts
        g_val = np.random.default_rng(cfg.seed + cycle)
        frame = pd.DataFrame(
            {**{c: cols[c] for c in key_cols},
             "v": g_val.integers(0, 1 << 40, len(keys), dtype=np.int64)}
        )
        shard.ingest(frame)
        groomer.groom()

        if cfg.evolve and (cycle + 1) % cfg.post_groom_every == 0:
            pg.post_groom(upto_gbid=groomer.next_gbid - 1)
            indexer.poll()

        _apply_purge(index, cache, cfg.purge)

        # Readers: each thread runs one batch of random lookups over the
        # ingested key space and reports wall + captured virtual I/O.
        results: list[tuple[float, float]] = []
        res_lock = threading.Lock()

        def reader(tid: int) -> None:
            g = np.random.default_rng(cfg.seed * 31 + cycle * 7 + tid)
            qk = g.integers(0, max(1, next_key), cfg.lookup_batch, dtype=np.int64)
            eq_p, sort_p = defs.probes_for(cfg.defn, qk)
            with capture_io() as cap:
                t0 = time.perf_counter()
                q.batch_lookup(index, eq_p, sort_p, 2**62)
                wall = time.perf_counter() - t0
            with res_lock:
                results.append((wall, cap.seconds))

        if cfg.readers == 1:
            reader(0)
        else:
            threads = [
                threading.Thread(target=reader, args=(t,))
                for t in range(cfg.readers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        total_batches += len(results)
        lookup_s.append(float(np.mean([w + io for w, io in results])))
        io_s.append(float(np.mean([io for _w, io in results])))
        run_counts.append(index.describe()["visible_runs"])

    return E2EResult(
        per_cycle_lookup_s=lookup_s,
        per_cycle_io_s=io_s,
        run_counts=run_counts,
        io_stats=hier.stats.snapshot(),
        final_describe=index.describe(),
        reader_batches=total_batches,
    )


# ------------------------------------------------------------- figure drivers
# Fig. 12's reader threads serialize on the GIL, so it runs smaller than
# Figs. 13–15: its signal is the virtual I/O staying flat across reader
# counts and no reader blocking on the index, not thread scaling.
FIG12_CFG = E2EConfig(cycles=12, per_cycle=3_000, post_groom_every=6, lookup_batch=500)


def _result(res: dict) -> dict:
    """The fields Figs. 12–15 share: each run's per-cycle lookup time
    normalized to the first run's cycle 0, and its per-cycle virtual I/O."""
    baseline = next(iter(res.values())).per_cycle_lookup_s[0]
    return {
        "series": {
            k: [v / baseline for v in r.per_cycle_lookup_s] for k, r in res.items()
        },
        "io_seconds": {k: r.per_cycle_io_s for k, r in res.items()},
        "baseline_seconds": baseline,
    }


def fig12(reader_counts=(1, 2, 4, 8, 16), cfg: E2EConfig = FIG12_CFG) -> dict:
    """Fig. 12: lookup time vs concurrent readers, normalized to the
    1-reader series' first cycle."""
    res = {r: run_e2e(replace(cfg, readers=r)) for r in reader_counts}
    io_baseline = max(res[reader_counts[0]].per_cycle_io_s[0], 1e-12)
    return {
        **_result(res),
        # The lock-free-design signal independent of GIL scheduling: the
        # virtual I/O work per lookup batch must stay flat vs readers.
        "io_series": {
            k: [v / io_baseline for v in r.per_cycle_io_s] for k, r in res.items()
        },
        "io_baseline_seconds": io_baseline,
    }


def fig13(ps=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0), cfg: E2EConfig = E2EConfig()) -> dict:
    """Fig. 13: lookup time vs update rate p%, normalized to p=0 cycle 0."""
    return _result({p: run_e2e(replace(cfg, p=p)) for p in ps})


def fig14(modes=("none", "half", "all"), cfg: E2EConfig = E2EConfig()) -> dict:
    """Fig. 14: lookup time vs purge level, normalized to 'none' cycle 0;
    ``shared_reads`` counts each series' block reads from shared storage."""
    res = {m: run_e2e(replace(cfg, purge=m)) for m in modes}
    return {
        **_result(res),
        "shared_reads": {m: r.io_stats["reads"]["shared"] for m, r in res.items()},
    }


def fig15(cfg: E2EConfig = E2EConfig()) -> dict:
    """Fig. 15: post-groom (evolve) enabled vs disabled, normalized to
    the enabled series' first cycle; also reports run counts (the evolve
    benefit the paper notes: fewer runs ⇒ faster lookups)."""
    res = {
        "post-groom": run_e2e(replace(cfg, evolve=True)),
        "no post-groom": run_e2e(replace(cfg, evolve=False)),
    }
    return {**_result(res), "run_counts": {k: r.run_counts for k, r in res.items()}}


def unified_scan() -> dict:
    """Demo of the unified multi-zone DataFrame scan (the ``umzi``
    DataSource) on a Wildfire-lite table with both zones populated.

    Runs the same snapshot query three ways: a ``umzi`` scan with a
    pushed equality filter (synopsis data skipping across both zones), a
    full ``umzi`` scan, and the no-index full-scan baseline over the zone
    Parquet blocks. Prints rows and seconds for each and asserts that the
    full scan equals the baseline. Starts its own local SparkSession.
    """
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.master("local[*]")
        .appName("umzi-repro-scan")
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
    with tempfile.TemporaryDirectory(prefix="umzi-scan-") as tmp:
        return _unified_scan(spark, StorageHierarchy(tmp))


def _unified_scan(spark, hier: StorageHierarchy) -> dict:
    from repro.sparkio.scan import full_scan_baseline, unified_view

    schema = TableSchema("iot", ("c1", "c2", "v"), ("c1", "c2"), ("c1",), ("c2",))
    ix = UmziIndex(defs.make_spec("I1"), UmziConfig(K=3, T=2), CacheManager(hier))
    shard = TableShard(schema)
    groomer = Groomer(shard, ix, hier)
    pg = PostGroomer(schema, ix, hier)
    indexer = Indexer(schema, ix, hier, pg)
    for cyc in range(8):
        keys = np.arange(cyc * 2000, cyc * 2000 + 4000, dtype=np.int64)
        eq, sorts = defs.key_columns("I1", keys)
        g = np.random.default_rng(cyc)
        shard.ingest(pd.DataFrame({"c1": eq["c1"], "c2": sorts["c2"],
                                   "v": g.integers(0, 10**6, 4000).astype(np.int64)}))
        groomer.groom()
        if (cyc + 1) % 4 == 0:
            pg.post_groom(upto_gbid=groomer.next_gbid - 1)
            indexer.poll()
    print("index state:", ix.describe())

    def view():
        return unified_view(
            spark, hier.shared.root, query_ts=2**62, key_cols=["c1", "c2"]
        )

    t0 = time.perf_counter()
    filtered = view().filter("c1 = 7").count()
    t1 = time.perf_counter()
    full = view().count()
    t2 = time.perf_counter()
    base = full_scan_baseline(
        spark, hier.shared.root, "iot", query_ts=2**62, key_cols=["c1", "c2"]
    ).count()
    t3 = time.perf_counter()
    print(f"umzi scan, pushed filter c1=7 : {filtered:>8} rows  {t1-t0:6.2f}s")
    print(f"umzi scan, full snapshot     : {full:>8} rows  {t2-t1:6.2f}s")
    print(f"no-index Parquet baseline    : {base:>8} rows  {t3-t2:6.2f}s")
    assert full == base, "unified view must equal the full-scan baseline"
    return {
        "index_state": ix.describe(),
        "rows": {"pushed_filter": filtered, "full": full, "baseline": base},
        "seconds": {"pushed_filter": t1 - t0, "full": t2 - t1, "baseline": t3 - t2},
    }
