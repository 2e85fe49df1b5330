"""The ``umzi`` DataSource V2: unified multi-zone DataFrame scans with
data skipping, checked against the DuckDB oracle (repro hint's core)."""
import json

import numpy as np
import pandas as pd
import pytest

from repro.core.index import UmziConfig, UmziIndex
from repro.core.run import GROOMED, POSTGROOMED, IndexRun, IndexSpec
from repro.oracle import assert_equivalent
from repro.sparkio.datasource import UmziDataSource, UmziReader
from repro.sparkio.scan import full_scan_baseline, unified_view
from repro.storage import CacheManager, StorageHierarchy
from repro.storage.tiers import DirTier

SPEC = IndexSpec(eq_cols=("k",), sort_cols=("s",), include_cols=("v",), hash_bits=4, block_rows=64)
CFG = UmziConfig(K=2, T=2, groomed_max_level=2, pg_min_level=3, pg_max_level=5)


def entries(gbid, n=120, key_lo=0, key_hi=15):
    g = np.random.default_rng(gbid)
    return pd.DataFrame({
        "k": g.integers(key_lo, key_hi, n).astype(np.int64),
        "s": g.integers(0, 10, n).astype(np.int64),
        "ts": (np.int64(gbid + 1) << 16) + np.arange(n, dtype=np.int64),
        "v": g.integers(0, 1000, n).astype(np.int64),
    })


def groomed_run(df, gbid, key_range=None):
    n = len(df)
    return IndexRun.build(
        SPEC, zone=GROOMED, level=0, gbid_lo=gbid, gbid_hi=gbid,
        eq={"k": df.k.values}, sorts={"s": df.s.values}, begin_ts=df.ts.values,
        rid_zone=np.zeros(n), rid_block=np.full(n, gbid), rid_off=np.arange(n),
        includes={"v": df.v.values},
    )


def pg_run(dfs):
    """The post-groomed run covering groomed blocks 0..len(dfs)-1."""
    df = pd.concat(dfs, ignore_index=True)
    n = len(df)
    return IndexRun.build(
        SPEC, zone=POSTGROOMED, level=CFG.pg_min_level, gbid_lo=0, gbid_hi=len(dfs) - 1,
        eq={"k": df.k.values}, sorts={"s": df.s.values}, begin_ts=df.ts.values,
        rid_zone=np.ones(n), rid_block=np.zeros(n), rid_off=np.arange(n),
        includes={"v": df.v.values},
    )


@pytest.fixture
def populated(tmp_path):
    """Index with groomed + post-groomed runs persisted to shared storage."""
    hier = StorageHierarchy(str(tmp_path))
    cm = CacheManager(hier)
    ix = UmziIndex(SPEC, CFG, cm)
    dfs = []
    for gb in range(5):
        df = entries(gb)
        ix.add_groomed_run(groomed_run(df, gb))
        ix.maintain()
        dfs.append(df)
    ix.evolve(pg_run(dfs[:3]), psn=1)
    all_df = pd.concat(dfs, ignore_index=True)
    return hier, ix, all_df


LATEST_SQL = """
SELECT k, s, begin_ts, v FROM (
  SELECT k, s, ts AS begin_ts, v,
         row_number() OVER (PARTITION BY k, s ORDER BY ts DESC) AS rn
  FROM raw WHERE ts <= {qts}
) WHERE rn = 1
"""


def test_unified_view_matches_duckdb_oracle(spark, populated):
    hier, ix, all_df = populated
    got = unified_view(
        spark, hier.shared.root, query_ts=2**62, key_cols=["k", "s"]
    ).select("k", "s", "begin_ts", "v")
    assert_equivalent(got, LATEST_SQL.format(qts=2**62), raw=all_df)


def test_unified_view_time_travel(spark, populated):
    hier, ix, all_df = populated
    qts = int((3 << 16) + 60)  # mid-history snapshot
    got = unified_view(
        spark, hier.shared.root, query_ts=qts, key_cols=["k", "s"]
    ).select("k", "s", "begin_ts", "v")
    assert_equivalent(got, LATEST_SQL.format(qts=qts), raw=all_df)


def test_unified_view_with_pushed_equality_filter(spark, populated):
    hier, ix, all_df = populated
    got = (
        unified_view(spark, hier.shared.root, query_ts=2**62, key_cols=["k", "s"])
        .filter("k = 7")
        .select("k", "s", "begin_ts", "v")
    )
    sql = LATEST_SQL.format(qts=2**62).replace("WHERE rn = 1", "WHERE rn = 1 AND k = 7")
    assert_equivalent(got, sql, raw=all_df)


def test_unified_view_range_filter(spark, populated):
    hier, ix, all_df = populated
    got = (
        unified_view(spark, hier.shared.root, query_ts=2**62, key_cols=["k", "s"])
        .filter("k = 3 AND s >= 2 AND s <= 6")
        .select("k", "s", "begin_ts", "v")
    )
    sql = LATEST_SQL.format(qts=2**62).replace(
        "WHERE rn = 1", "WHERE rn = 1 AND k = 3 AND s BETWEEN 2 AND 6"
    )
    assert_equivalent(got, sql, raw=all_df)


def test_schema_exposes_key_rid_and_include_columns(spark, populated):
    hier, ix, _ = populated
    from repro.sparkio.scan import _ensure_registered

    _ensure_registered(spark)
    df = spark.read.format("umzi").option("path", hier.shared.root).load()
    assert df.columns == ["k", "s", "begin_ts", "rid_zone", "rid_block", "rid_off", "v", "_run_rank"]


def test_reader_synopsis_skipping(tmp_path):
    """Driver-side check: disjoint-key runs are pruned by a pushed
    equality filter (data skipping across zones)."""
    hier = StorageHierarchy(str(tmp_path))
    cm = CacheManager(hier)
    ix = UmziIndex(SPEC, UmziConfig(K=100, T=2), cm)
    for gb in range(4):
        df = entries(gb, key_lo=gb * 100, key_hi=gb * 100 + 10)
        ix.add_groomed_run(groomed_run(df, gb))
    from pyspark.sql.datasource import EqualTo

    ds = UmziDataSource({"path": hier.shared.root})
    reader = ds.reader(ds.schema())
    list(reader.pushFilters([EqualTo(("k",), 205)]))  # key in run gb=2 only
    parts = reader.partitions()
    assert len(parts) == 1
    assert reader.skipped_runs == 3


def test_reader_visibility_excludes_covered_runs(populated):
    hier, ix, _ = populated
    ds = UmziDataSource({"path": hier.shared.root})
    reader = ds.reader(ds.schema())
    parts = reader.partitions()
    part_runs = {p.header["run_id"] for p in parts}
    expected = {h.run.run_id for h in ix.query_snapshot().runs}
    assert part_runs == expected


def test_reader_on_a_missing_path_raises_and_creates_nothing(tmp_path):
    """The reader only reads: a mistyped ``path`` raises, naming it, and
    no directory is left behind."""
    missing = tmp_path / "typo" / "shared"
    with pytest.raises(FileNotFoundError, match="typo"):
        UmziDataSource({"path": str(missing)}).schema()
    assert not (tmp_path / "typo").exists()


def scan_rows(reader):
    """Plan the partitions and read each one, as the driver and executors
    would: (partitions, set of emitted versions)."""
    parts = reader.partitions()
    rows = set()
    for p in parts:
        for batch in reader.read(p):
            d = batch.to_pydict()
            rows |= set(zip(d["k"], d["s"], d["begin_ts"], d["v"]))
    return parts, rows


def reader_for(hier):
    ds = UmziDataSource({"path": hier.shared.root})
    return ds.reader(ds.schema())


def versions(df):
    return set(zip(df.k.tolist(), df.s.tolist(), df.ts.tolist(), df.v.tolist()))


@pytest.mark.parametrize("hook", ["read_state", "list_headers"])
def test_scan_plan_sees_every_version_across_a_racing_evolve(tmp_path, monkeypatch, hook):
    """§5.4: an evolve landing while ``partitions()`` plans — after the
    state read (before the listing) or after the header listing — must
    not hide a version: the scan returns every version written."""
    from repro.core import recovery

    hier = StorageHierarchy(str(tmp_path))
    ix = UmziIndex(SPEC, CFG, CacheManager(hier))
    dfs = [entries(gb) for gb in range(5)]
    for gb, df in enumerate(dfs):
        ix.add_groomed_run(groomed_run(df, gb))
    reader = reader_for(hier)
    real, fired = getattr(recovery, hook), []

    def then_evolve(tier):
        out = real(tier)
        if not fired:
            fired.append(True)
            ix.evolve(pg_run(dfs[:3]), psn=1)
        return out

    monkeypatch.setattr(recovery, hook, then_evolve)
    _, rows = scan_rows(reader)
    assert fired
    assert rows == versions(pd.concat(dfs, ignore_index=True))


def test_scan_leaves_out_half_written_run(populated):
    """A run whose header is on shared storage but a data block is not (a
    write in progress, or a crash mid-write) is left out of the plan, and
    the scan deletes none of its files."""
    hier, ix, all_df = populated
    half = groomed_run(entries(9), 9)
    assert half.n_blocks > 1
    hier.shared.put(f"runs/{half.run_id}/header", json.dumps(half.header_json()).encode())
    hier.shared.put(f"runs/{half.run_id}/block.00000", half.block_bytes(0))
    parts, rows = scan_rows(reader_for(hier))
    assert half.run_id not in {p.header["run_id"] for p in parts}
    assert rows == versions(all_df)
    assert hier.shared.exists(f"runs/{half.run_id}/header")
    assert hier.shared.exists(f"runs/{half.run_id}/block.00000")


def test_full_run_read_returns_rid_columns_unchanged(tmp_path):
    """A partition read without a pushed equality filter decodes the whole
    run: every entry comes back with its three RID columns as built,
    extremes of each part included."""
    hier = StorageHierarchy(str(tmp_path))
    ix = UmziIndex(SPEC, CFG, CacheManager(hier))
    df = entries(0)
    n = len(df)
    g = np.random.default_rng(1)
    rid = [g.integers(0, 2, n), g.integers(0, 1 << 39, n), g.integers(0, 1 << 24, n)]
    for part, top in zip(rid, (1, (1 << 39) - 1, (1 << 24) - 1)):
        part[:2] = (0, top)
    ix.add_groomed_run(IndexRun.build(
        SPEC, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
        eq={"k": df.k.values}, sorts={"s": df.s.values}, begin_ts=df.ts.values,
        rid_zone=rid[0], rid_block=rid[1], rid_off=rid[2], includes={"v": df.v.values},
    ))
    reader = reader_for(hier)
    (part,) = reader.partitions()
    cols = ("k", "s", "begin_ts", "rid_zone", "rid_block", "rid_off", "v")
    got = []
    for b in reader.read(part):
        d = b.to_pydict()
        got += zip(*(d[c] for c in cols))
    assert sorted(got) == sorted(zip(df.k, df.s, df.ts, *rid, df.v))

def test_reader_reads_only_the_blocks_its_search_touches(tmp_path, monkeypatch):
    """A partition read with every equality column pushed reads only the
    data blocks its search touches (§7.1.1), not the whole run; a read
    without one reads each block once and returns every entry."""
    from pyspark.sql.datasource import EqualTo

    hier = StorageHierarchy(str(tmp_path))
    ix = UmziIndex(SPEC, CFG, CacheManager(hier))
    df = entries(0, n=1000)
    ix.add_groomed_run(groomed_run(df, 0))
    n_blocks = ix.groomed.snapshot()[0].run.n_blocks
    assert n_blocks > 4
    reads, get = [], DirTier.get

    def counted_get(tier, key):
        if "/block." in key:
            reads.append(key)
        return get(tier, key)

    monkeypatch.setattr(DirTier, "get", counted_get)
    reader = reader_for(hier)
    list(reader.pushFilters([EqualTo(("k",), 7)]))
    _, rows = scan_rows(reader)
    assert 0 < len(reads) < n_blocks
    latest = df[df.k == 7].sort_values("ts").groupby("s").last().reset_index()
    assert rows == versions(latest)

    reads.clear()
    _, rows = scan_rows(reader_for(hier))
    assert sorted(reads) == sorted(set(reads)) and len(reads) == n_blocks
    assert rows == versions(df)


def test_scan_drops_runs_contained_in_a_merged_run(tmp_path):
    """§5.5: a merged run persisted beside its not-yet-GC'd inputs is the
    only one scanned — the same runs recovery keeps."""
    from repro.core.recovery import recover

    hier = StorageHierarchy(str(tmp_path))
    cm = CacheManager(hier)
    dfs = [entries(gb) for gb in range(3)]
    for gb, df in enumerate(dfs):
        cm.write_run(groomed_run(df, gb), to_ssd=False)
    df = pd.concat(dfs, ignore_index=True)
    n = len(df)
    merged = IndexRun.build(
        SPEC, zone=GROOMED, level=1, gbid_lo=0, gbid_hi=2,
        eq={"k": df.k.values}, sorts={"s": df.s.values}, begin_ts=df.ts.values,
        rid_zone=np.zeros(n), rid_block=np.zeros(n), rid_off=np.arange(n),
        includes={"v": df.v.values},
    )
    cm.write_run(merged, to_ssd=False)
    parts, rows = scan_rows(reader_for(hier))
    assert [p.header["run_id"] for p in parts] == [merged.run_id]
    assert rows == versions(df)
    hier.crash_node()
    ix = recover(SPEC, CFG, CacheManager(hier))
    assert [h.run.run_id for h in ix.query_snapshot().runs] == [merged.run_id]


def test_full_scan_baseline_matches_index_view(spark, tmp_path):
    """The no-index Spark baseline over zone Parquet equals the unified
    index view — on a dataset produced by the real wildfire pipeline."""
    from repro.experiments import defs as edefs
    from repro.wildfire import Groomer, Indexer, PostGroomer, TableSchema, TableShard

    schema = TableSchema("iot", ("c1", "c2", "v"), ("c1", "c2"), ("c1",), ("c2",))
    hier = StorageHierarchy(str(tmp_path))
    cm = CacheManager(hier)
    ix = UmziIndex(edefs.make_spec("I1"), UmziConfig(K=3, T=2), cm)
    shard = TableShard(schema)
    groomer = Groomer(shard, ix, hier)
    pg = PostGroomer(schema, ix, hier)
    indexer = Indexer(schema, ix, hier, pg)
    for cyc in range(4):
        keys = np.arange(cyc * 30, cyc * 30 + 60, dtype=np.int64)  # overlap
        eq, sorts = edefs.key_columns("I1", keys)
        g = np.random.default_rng(cyc)
        shard.ingest(pd.DataFrame({"c1": eq["c1"], "c2": sorts["c2"],
                                   "v": g.integers(0, 99, 60).astype(np.int64)}))
        groomer.groom()
        if cyc == 1:
            pg.post_groom(upto_gbid=groomer.next_gbid - 1)
            indexer.poll()
    base = full_scan_baseline(
        spark, hier.shared.root, "iot", query_ts=2**62, key_cols=["c1", "c2"]
    ).select("c1", "c2", "begin_ts", "v")
    view = unified_view(
        spark, hier.shared.root, query_ts=2**62, key_cols=["c1", "c2"]
    ).select("c1", "c2", "begin_ts", "v")
    a = sorted(map(tuple, base.collect()))
    b = sorted(map(tuple, view.collect()))
    assert a == b
