"""Recovery — paper §5.5 and the non-persisted-level rules of §6.1."""
import numpy as np
import pandas as pd
import pytest

from repro.core import query as q
from repro.core.index import UmziConfig, UmziIndex
from repro.core.recovery import list_headers, recover
from repro.core.run import GROOMED, POSTGROOMED, IndexRun, IndexSpec
from repro.storage import CacheManager, StorageHierarchy
from repro.storage.cache import _block_key

SPEC = IndexSpec(eq_cols=("k",), sort_cols=("s",), hash_bits=4, block_rows=32)
CFG = UmziConfig(K=2, T=2, groomed_max_level=3, pg_min_level=4, pg_max_level=6)


def entries(gbid, n=80):
    g = np.random.default_rng(gbid)
    return pd.DataFrame({
        "k": g.integers(0, 20, n).astype(np.int64),
        "s": g.integers(0, 20, n).astype(np.int64),
        "ts": (np.int64(gbid) << 16) + np.arange(n, dtype=np.int64),
    })


def groomed_run(df, gbid):
    n = len(df)
    return IndexRun.build(
        SPEC, zone=GROOMED, level=0, gbid_lo=gbid, gbid_hi=gbid,
        eq={"k": df.k.values}, sorts={"s": df.s.values}, begin_ts=df.ts.values,
        rid_zone=np.zeros(n), rid_block=np.full(n, gbid), rid_off=np.arange(n),
    )


def pg_run(dfs, lo, hi, psn):
    df = pd.concat(dfs, ignore_index=True)
    n = len(df)
    return IndexRun.build(
        SPEC, zone=POSTGROOMED, level=CFG.pg_min_level, gbid_lo=lo, gbid_hi=hi,
        eq={"k": df.k.values}, sorts={"s": df.s.values}, begin_ts=df.ts.values,
        rid_zone=np.ones(n), rid_block=np.full(n, psn), rid_off=np.arange(n),
    )


def oracle(df, kv, qts=2**62):
    d = df[(df.k == kv) & (df.ts <= qts)].sort_values("ts").groupby("s").last()
    return sorted(zip(d.index.tolist(), d.ts.tolist()))


def make_populated(tmp_path, cfg=CFG, n_groomed=7, evolve_upto=3):
    hier = StorageHierarchy(str(tmp_path))
    cm = CacheManager(hier)
    ix = UmziIndex(SPEC, cfg, cm)
    dfs = []
    for gb in range(n_groomed):
        df = entries(gb)
        ix.add_groomed_run(groomed_run(df, gb))
        ix.maintain()
        dfs.append(df)
    if evolve_upto is not None:
        ix.evolve(pg_run(dfs[: evolve_upto + 1], 0, evolve_upto, psn=1), psn=1)
    return hier, cm, ix, pd.concat(dfs, ignore_index=True)


def assert_queries_match(ix, df):
    for kv in range(20):
        res = q.range_scan(ix, (kv,), None, None, 2**62, method="pq")
        assert sorted(zip(res["s"].tolist(), res["begin_ts"].tolist())) == oracle(df, kv), kv


def test_recover_after_clean_crash(tmp_path):
    hier, cm, ix, df = make_populated(tmp_path)
    before = ix.describe()
    hier.crash_node()
    ix2 = recover(SPEC, CFG, CacheManager(hier))
    assert ix2.pg_covered_gbid == before["covered_gbid"]
    assert ix2.indexed_psn == 1
    assert_queries_match(ix2, df)


def test_failed_state_write_keeps_previous_state(tmp_path, fail_write):
    """state.json is replaced atomically: a crash while the second evolve
    writes it leaves the first evolve's covered gbid and IndexedPSN."""
    hier, cm, ix, df = make_populated(tmp_path)
    first = (ix.pg_covered_gbid, ix.indexed_psn)
    assert first == (3, 1)
    fail_write("index/state.json")
    with pytest.raises(OSError, match="injected"):
        ix.evolve(pg_run([entries(gb) for gb in (4, 5)], 4, 5, psn=2), psn=2)
    hier.crash_node()
    ix2 = recover(SPEC, CFG, CacheManager(hier))
    assert (ix2.pg_covered_gbid, ix2.indexed_psn) == first
    assert_queries_match(ix2, df)


def test_recover_without_any_evolve(tmp_path):
    hier, cm, ix, df = make_populated(tmp_path, evolve_upto=None)
    hier.crash_node()
    ix2 = recover(SPEC, CFG, CacheManager(hier))
    assert ix2.pg_covered_gbid == -1 and ix2.indexed_psn == 0
    assert_queries_match(ix2, df)


def test_recover_drops_already_merged_overlapping_runs(tmp_path):
    """§5.5: if a crash hit between persisting a merged run and deleting
    its inputs, recovery keeps the largest range and deletes the rest."""
    hier, cm, ix, df = make_populated(tmp_path, evolve_upto=None, n_groomed=4)
    # simulate the crash window: re-persist two covered single-gbid runs
    for gb in (0, 1):
        r = groomed_run(entries(gb), gb)
        cm.write_run(r, persisted=True, cache_tier="none")
    hier.crash_node()
    ix2 = recover(SPEC, CFG, CacheManager(hier))
    his = [h.gbid_hi for h in ix2.groomed.snapshot()]
    los = [h.gbid_lo for h in ix2.groomed.snapshot()]
    # no overlapping ranges survived
    for i in range(len(his)):
        for j in range(len(his)):
            if i != j:
                assert his[i] < los[j] or his[j] < los[i]
    assert_queries_match(ix2, df)


def test_recover_deletes_every_file_of_dropped_runs(tmp_path):
    """The data blocks of a run recovery drops go with its header: nothing
    would ever list them again once the header is gone."""
    hier, cm, ix, df = make_populated(tmp_path, evolve_upto=None, n_groomed=4)
    dropped = [groomed_run(entries(gb), gb) for gb in (0, 1)]
    for r in dropped:
        cm.write_run(r, persisted=True, cache_tier="none")
    hier.shared.delete(_block_key(dropped[1].run_id, 0))  # and one incomplete
    hier.crash_node()
    recover(SPEC, CFG, CacheManager(hier))
    for r in dropped:
        assert not hier.shared.list(f"runs/{r.run_id}/")


def test_recover_cleans_incomplete_runs(tmp_path):
    hier, cm, ix, df = make_populated(tmp_path, evolve_upto=None, n_groomed=3)
    # corrupt: a run whose header exists but a data block is missing
    victim = ix.groomed.snapshot()[0].run
    hier.shared.delete(_block_key(victim.run_id, 0))
    hier.crash_node()
    ix2 = recover(SPEC, CFG, CacheManager(hier))
    assert victim.run_id not in {h.run.run_id for h in ix2.groomed.snapshot()}


def test_recovered_runs_start_purged_and_reload_on_demand(tmp_path):
    hier, cm, ix, df = make_populated(tmp_path)
    hier.crash_node()
    cm2 = CacheManager(hier)
    ix2 = recover(SPEC, CFG, cm2)
    for h in ix2.groomed.snapshot() + ix2.postgroomed.snapshot():
        assert cm2.state(h.run.run_id).local == "none"
    hier.stats.reset()
    assert_queries_match(ix2, df)
    assert hier.stats.snapshot()["reads"]["shared"] > 0


def test_nonpersisted_levels_recovery_from_ancestors(tmp_path):
    """§6.1: runs merged into a non-persisted level are lost in a crash,
    but their persisted ancestors on shared storage cover the same data."""
    cfg = UmziConfig(
        K=2, T=2, groomed_max_level=3, pg_min_level=4, pg_max_level=6,
        nonpersisted_levels=frozenset({1}),
    )
    hier = StorageHierarchy(str(tmp_path))
    cm = CacheManager(hier)
    ix = UmziIndex(SPEC, cfg, cm)
    dfs = []
    for gb in range(3):  # 2 runs merge into non-persisted L1; 1 stays L0
        df = entries(gb)
        ix.add_groomed_run(groomed_run(df, gb))
        ix.maintain()
        dfs.append(df)
    df = pd.concat(dfs, ignore_index=True)
    l1 = [h for h in ix.groomed.snapshot() if h.level == 1]
    assert l1 and not cm.state(l1[0].run.run_id).persisted
    assert l1[0].run.ancestors  # persisted ancestry recorded
    # Before the crash the L1 run answers from its own columns: no tier read.
    run = l1[0].run
    want = (
        pd.concat(dfs[run.gbid_lo : run.gbid_hi + 1])
        .sort_values("ts").groupby(["k", "s"]).ts.last()
    )
    hier.stats.reset()
    res = q.batch_lookup(
        ix, [want.index.get_level_values("k").values],
        [want.index.get_level_values("s").values], 2**62, runs=l1,
    )
    got = sorted(zip(res["k"].tolist(), res["s"].tolist(), res["begin_ts"].tolist()))
    assert got == sorted((k, s, ts) for (k, s), ts in want.items())
    assert all(n == 0 for n in hier.stats.snapshot()["reads"].values())
    hier.crash_node()
    ix2 = recover(SPEC, cfg, CacheManager(hier))
    assert_queries_match(ix2, df)


def test_nonpersisted_ancestors_deleted_after_repersist(tmp_path):
    """Once a non-persisted run merges into a persisted level again, its
    ancestors are finally deleted from shared storage (§6.1)."""
    cfg = UmziConfig(
        K=2, T=2, groomed_max_level=3, pg_min_level=4, pg_max_level=6,
        nonpersisted_levels=frozenset({1}),
    )
    hier = StorageHierarchy(str(tmp_path))
    cm = CacheManager(hier)
    ix = UmziIndex(SPEC, cfg, cm)
    dfs = []
    for gb in range(8):
        df = entries(gb)
        ix.add_groomed_run(groomed_run(df, gb))
        ix.maintain()
        dfs.append(df)
    df = pd.concat(dfs, ignore_index=True)
    # L2 is persisted: every shared-storage run must now be queryable and
    # no stale ancestor may shadow newer data.
    hier.crash_node()
    ix2 = recover(SPEC, cfg, CacheManager(hier))
    assert_queries_match(ix2, df)
    # the data re-persisted at a level beyond the non-persisted L1, and
    # no stale single-gbid ancestors survived on shared storage
    assert any(h.level >= 2 for h in ix2.groomed.snapshot())
    assert all(
        h["gbid_hi"] - h["gbid_lo"] > 0 or h["level"] == 0
        for h in list_headers(hier.shared)
    )


def rid_parts(n, seed):
    """RID parts spanning each part's whole range, extremes included."""
    g = np.random.default_rng(seed)
    parts = [g.integers(0, 2, n), g.integers(0, 1 << 39, n), g.integers(0, 1 << 24, n)]
    for p, top in zip(parts, (1, (1 << 39) - 1, (1 << 24) - 1)):
        p[:2] = (0, top)
    return parts


def test_recover_returns_rid_columns_unchanged(tmp_path):
    """The three RID columns of every entry survive persisting, a crash
    and recovery, whichever values the packed field holds."""
    hier = StorageHierarchy(str(tmp_path))
    ix = UmziIndex(SPEC, CFG, CacheManager(hier))
    df = entries(0, n=200)
    z, b, o = rid_parts(200, seed=1)
    run = IndexRun.build(
        SPEC, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
        eq={"k": df.k.values}, sorts={"s": df.s.values}, begin_ts=df.ts.values,
        rid_zone=z, rid_block=b, rid_off=o,
    )
    ix.add_groomed_run(run)
    hier.crash_node()
    ix2 = recover(SPEC, CFG, CacheManager(hier))
    (got,) = [h.run for h in ix2.query_snapshot().runs]

    def rows(r):
        d = r._decode(r.cols)
        cols = ("k", "s", "begin_ts", "rid_zone", "rid_block", "rid_off")
        return sorted(zip(*(d[c].tolist() for c in cols)))

    assert rows(got) == rows(run) == sorted(zip(df.k, df.s, df.ts, z, b, o))
