"""Cross-run query reconciliation — paper §7.1.2 / §7.2 — against a
pandas oracle, with updates, time travel and both reconciliation methods."""
import copy

import numpy as np
import pandas as pd
import pytest

from repro.core import query as q
from repro.core.index import UmziConfig, UmziIndex
from repro.core.run import GROOMED, POSTGROOMED, IndexRun, IndexSpec
from repro.core.runlist import RunHandle
from repro.storage import CacheManager, StorageHierarchy, capture_io

SPEC = IndexSpec(eq_cols=("k",), sort_cols=("s",), include_cols=("v",), hash_bits=5, block_rows=64)


def build_workload(n_runs=8, per_run=150, key_space=40, sort_space=20, seed=0, cache=None):
    """Multi-run index with heavy key overlap (updates across runs)."""
    ix = UmziIndex(SPEC, UmziConfig(K=100, T=2), cache)  # no merging: keep runs
    frames = []
    for gb in range(n_runs):
        g = np.random.default_rng(seed * 1000 + gb)
        n = per_run
        df = pd.DataFrame({
            "k": g.integers(0, key_space, n).astype(np.int64),
            "s": g.integers(0, sort_space, n).astype(np.int64),
            "ts": (np.int64(gb) << 16) + np.arange(n, dtype=np.int64),
            "v": g.integers(0, 10**9, n).astype(np.int64),
        })
        run = IndexRun.build(
            SPEC, zone=GROOMED, level=0, gbid_lo=gb, gbid_hi=gb,
            eq={"k": df.k.values}, sorts={"s": df.s.values}, begin_ts=df.ts.values,
            rid_zone=np.zeros(n), rid_block=np.full(n, gb), rid_off=np.arange(n),
            includes={"v": df.v.values},
        )
        ix.add_groomed_run(run)
        frames.append(df)
    return ix, pd.concat(frames, ignore_index=True)


def oracle_scan(df, kv, lo, hi, qts):
    d = df[(df.k == kv) & (df.s >= lo) & (df.s <= hi) & (df.ts <= qts)]
    d = d.sort_values("ts").groupby("s").last()
    return sorted(zip(d.index.tolist(), d.ts.tolist(), d.v.tolist()))


@pytest.mark.parametrize("method", ["set", "pq"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("qts", [2**62, (4 << 16) + 50])
def test_range_scan_vs_oracle(method, seed, qts):
    ix, df = build_workload(seed=seed)
    for kv in (0, 7, 39):
        for lo, hi in [(0, 19), (3, 9), (5, 5)]:
            res = q.range_scan(ix, (kv,), (lo,), (hi,), qts, method=method)
            got = sorted(zip(res["s"].tolist(), res["begin_ts"].tolist(), res["v"].tolist()))
            assert got == oracle_scan(df, kv, lo, hi, qts)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_set_and_pq_methods_agree(seed):
    ix, df = build_workload(seed=seed)
    for kv in range(0, 40, 5):
        a = q.range_scan(ix, (kv,), (0,), (19,), 2**62, method="set")
        b = q.range_scan(ix, (kv,), (0,), (19,), 2**62, method="pq")
        ka = sorted(zip(a["s"].tolist(), a["begin_ts"].tolist()))
        kb = sorted(zip(b["s"].tolist(), b["begin_ts"].tolist()))
        assert ka == kb


def test_range_scan_unknown_method():
    ix, _ = build_workload()
    with pytest.raises(ValueError, match="unknown reconciliation"):
        q.range_scan(ix, (1,), (0,), (5,), 2**62, method="hash")


@pytest.mark.parametrize("method", ["set", "pq"])
def test_scan_same_version_in_two_zones_keeps_first_run_in_snapshot(method):
    """Evolve window (§5.4): the post-groomed run holding a migrated
    version is on the PG chain, but the covered groomed block ID has not
    moved yet, so the groomed run still holds the same (key, beginTS)
    under its groomed RID. One row comes back, from the run that comes
    first in the snapshot."""
    n = 30
    k = np.full(n, 3, np.int64)
    srt = np.arange(n, dtype=np.int64)
    ts = np.arange(n, dtype=np.int64) + 100
    ix = UmziIndex(SPEC, UmziConfig(K=100, T=2))
    ix.add_groomed_run(IndexRun.build(
        SPEC, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
        eq={"k": k}, sorts={"s": srt}, begin_ts=ts,
        rid_zone=np.zeros(n), rid_block=np.zeros(n), rid_off=np.arange(n),
        includes={"v": srt},
    ))
    ix.postgroomed.prepend(RunHandle(IndexRun.build(  # evolve step 1 only
        SPEC, zone=POSTGROOMED, level=6, gbid_lo=0, gbid_hi=0,
        eq={"k": k}, sorts={"s": srt}, begin_ts=ts,
        rid_zone=np.ones(n), rid_block=np.full(n, 7), rid_off=np.arange(n) + 500,
        includes={"v": srt},
    )))
    first = ix.query_snapshot().runs[0].run
    assert first.zone == GROOMED
    res = q.range_scan(ix, (3,), (5,), (9,), 2**62, method=method)
    assert res["s"].tolist() == [5, 6, 7, 8, 9]
    assert res["begin_ts"].tolist() == [105, 106, 107, 108, 109]
    assert res["rid_zone"].tolist() == [0] * 5
    assert res["rid_block"].tolist() == [0] * 5
    assert res["rid_off"].tolist() == [5, 6, 7, 8, 9]


@pytest.mark.parametrize("method", ["set", "pq"])
@pytest.mark.parametrize("seed", [0, 3])
def test_range_scan_output_order(method, seed):
    """``pq`` emits rows in ascending key order; ``set`` emits the rows
    kept from each run together, newest run first, each run's rows in
    key order."""
    ix, _df = build_workload(seed=seed)
    for kv in (0, 7, 39):
        res = q.range_scan(ix, (kv,), (0,), (19,), 2**62, method=method)
        s, gb = res["s"].tolist(), res["rid_block"].tolist()  # rid_block = gbid
        assert len(s) > 1
        if method == "pq":
            assert s == sorted(set(s))
        else:
            assert gb == sorted(gb, reverse=True)
            runs = [[x for x, b in zip(s, gb) if b == g] for g in dict.fromkeys(gb)]
            assert all(r == sorted(set(r)) for r in runs)


SPEC2 = IndexSpec(
    eq_cols=("k",), sort_cols=("s1", "s2"), include_cols=("v",), hash_bits=4, block_rows=32
)


def build_two_sort_workload(n_runs=7, per_run=120):
    """Seven runs over one equality column and two sort columns. Run 2's
    entries all sit outside the s2 bound used below (its synopsis admits
    the scan, its search returns nothing); run 4 holds only k = 9 (its
    synopsis prunes the scan)."""
    ix = UmziIndex(SPEC2, UmziConfig(K=100, T=2))
    frames = []
    for gb in range(n_runs):
        g = np.random.default_rng(500 + gb)
        n = per_run
        df = pd.DataFrame({
            "k": np.full(n, 9, np.int64) if gb == 4 else g.integers(0, 3, n).astype(np.int64),
            "s1": g.integers(0, 6, n).astype(np.int64),
            "s2": g.integers(50, 60, n).astype(np.int64) if gb == 2
            else g.integers(0, 6, n).astype(np.int64),
            "ts": (np.int64(gb) << 16) + np.arange(n, dtype=np.int64),
            "v": g.integers(0, 10**9, n).astype(np.int64),
        })
        ix.add_groomed_run(IndexRun.build(
            SPEC2, zone=GROOMED, level=0, gbid_lo=gb, gbid_hi=gb,
            eq={"k": df.k.values}, sorts={"s1": df.s1.values, "s2": df.s2.values},
            begin_ts=df.ts.values, rid_zone=np.zeros(n), rid_block=np.full(n, gb),
            rid_off=np.arange(n), includes={"v": df.v.values},
        ))
        frames.append(df)
    return ix, pd.concat(frames, ignore_index=True)


@pytest.mark.parametrize("method", ["set", "pq"])
@pytest.mark.parametrize("qts", [2**62, (5 << 16) + 40])
def test_two_sort_columns_many_runs_vs_oracle(method, qts):
    """Each sort column is bounded on its own, as ``IndexRun.search``
    applies the bounds; the lower ``qts`` hides all of run 6 and most of
    run 5, so older versions of those keys come back instead."""
    ix, df = build_two_sort_workload()
    lo, hi = (1, 0), (4, 3)
    runs = {h.run.gbid_lo: h.run for h in ix.query_snapshot().runs}
    assert len(runs) == 7
    assert runs[2].synopsis_admits((0,), lo, hi)
    assert not len(runs[2].search((0,), lo, hi, qts)["begin_ts"])
    assert not runs[4].synopsis_admits((0,), lo, hi)
    for kv in range(3):
        res = q.range_scan(ix, (kv,), lo, hi, qts, method=method)
        got = sorted(zip(
            res["s1"].tolist(), res["s2"].tolist(), res["begin_ts"].tolist(),
            res["v"].tolist(), res["rid_block"].tolist(),
        ))
        d = df[
            (df.k == kv) & df.s1.between(lo[0], hi[0]) & df.s2.between(lo[1], hi[1])
            & (df.ts <= qts)
        ]
        d = d.sort_values("ts").groupby(["s1", "s2"]).last().reset_index()
        want = sorted(zip(
            d.s1.tolist(), d.s2.tolist(), d.ts.tolist(), d.v.tolist(),
            (d.ts // (1 << 16)).tolist(),
        ))
        assert got and got == want
        if qts < 2**62:
            assert max(b for *_, b in got) <= 5


@pytest.mark.parametrize("seed", [0, 5])
def test_point_lookup_matches_scan(seed):
    ix, df = build_workload(seed=seed)
    g = np.random.default_rng(seed)
    for _ in range(40):
        kv, sv = int(g.integers(0, 40)), int(g.integers(0, 20))
        got = q.point_lookup(ix, (kv,), (sv,), 2**62)
        exp = {s: (ts, v) for s, ts, v in oracle_scan(df, kv, 0, 10**9, 2**62)}
        if sv in exp:
            assert got is not None
            assert (got["begin_ts"], got["v"]) == exp[sv]
        else:
            assert got is None


@pytest.mark.parametrize("batch", [1, 17, 200])
@pytest.mark.parametrize("seed", [0, 1])
def test_batch_lookup_matches_point_lookups(batch, seed):
    ix, df = build_workload(seed=seed)
    g = np.random.default_rng(seed + 99)
    ks = g.integers(0, 40, batch).astype(np.int64)
    ss = g.integers(0, 20, batch).astype(np.int64)
    res = q.batch_lookup(ix, [ks], [ss], 2**62)
    got = {(int(k), int(s)): int(t) for k, s, t in zip(res["k"], res["s"], res["begin_ts"])}
    for kv, sv in set(zip(ks.tolist(), ss.tolist())):
        single = q.point_lookup(ix, (kv,), (sv,), 2**62)
        if single is None:
            assert (kv, sv) not in got
        else:
            assert got[(kv, sv)] == single["begin_ts"]


def test_batch_lookup_with_timestamp():
    ix, df = build_workload(seed=2)
    qts = (3 << 16) + 10
    ks = np.arange(40, dtype=np.int64)
    ss = np.full(40, 4, dtype=np.int64)
    res = q.batch_lookup(ix, [ks], [ss], qts)
    got = {int(k): int(t) for k, t in zip(res["k"], res["begin_ts"])}
    for kv in range(40):
        exp = dict((s, t) for s, t, _ in oracle_scan(df, kv, 4, 4, qts))
        if 4 in exp:
            assert got[kv] == exp[4]
        else:
            assert kv not in got


def test_batch_lookup_runs_override():
    """The runs= override restricts the search (used by the post-groomer
    to consult only the PG portion)."""
    ix, df = build_workload(n_runs=4, seed=3)
    snap = ix.query_snapshot().runs
    oldest_only = snap[-1:]
    ks = df.k.values[:50].astype(np.int64)
    ss = df.s.values[:50].astype(np.int64)
    full = q.batch_lookup(ix, [ks], [ss], 2**62)
    restricted = q.batch_lookup(ix, [ks], [ss], 2**62, runs=oldest_only)
    # restricted search sees only the oldest run's versions
    assert len(restricted["begin_ts"]) <= len(full["begin_ts"])
    if len(restricted["begin_ts"]):
        assert int(restricted["begin_ts"].max()) < (1 << 16)


def test_synopsis_pruning_skips_runs():
    """Sequentially partitioned runs: a narrow batch only searches the
    runs whose synopsis admits it (the Fig. 10 pruning effect)."""
    ix = UmziIndex(SPEC, UmziConfig(K=100, T=2))
    for gb in range(10):
        n = 100
        ks = np.arange(gb * 100, gb * 100 + n, dtype=np.int64)
        run = IndexRun.build(
            SPEC, zone=GROOMED, level=0, gbid_lo=gb, gbid_hi=gb,
            eq={"k": ks}, sorts={"s": np.zeros(n, np.int64)},
            begin_ts=np.arange(n, dtype=np.int64) + (gb << 16),
            rid_zone=np.zeros(n), rid_block=np.full(n, gb), rid_off=np.arange(n),
            includes={"v": ks},
        )
        ix.add_groomed_run(run)
    probes_k = np.arange(250, 260, dtype=np.int64)  # inside run gb=2 only
    admits = [
        h.run.synopsis_admits_batch((int(probes_k.min()),), (int(probes_k.max()),))
        for h in ix.query_snapshot().runs
    ]
    assert sum(admits) == 1
    res = q.batch_lookup(ix, [probes_k], [np.zeros(10, np.int64)], 2**62)
    assert len(res["begin_ts"]) == 10


def test_empty_index_queries():
    ix = UmziIndex(SPEC)
    assert len(q.range_scan(ix, (1,), (0,), (5,), 2**62)["begin_ts"]) == 0
    assert q.point_lookup(ix, (1,), (2,), 2**62) is None
    res = q.batch_lookup(ix, [np.asarray([1, 2])], [np.asarray([0, 0])], 2**62)
    assert len(res["begin_ts"]) == 0


def test_i2_style_two_equality_columns():
    spec = IndexSpec(eq_cols=("a", "b"), include_cols=("v",), hash_bits=5, block_rows=32)
    ix = UmziIndex(spec, UmziConfig(K=100, T=2))
    frames = []
    for gb in range(4):
        g = np.random.default_rng(gb)
        n = 200
        df = pd.DataFrame({
            "a": g.integers(0, 10, n).astype(np.int64),
            "b": g.integers(0, 10, n).astype(np.int64),
            "ts": (gb << 16) + np.arange(n),
            "v": g.integers(0, 100, n).astype(np.int64),
        })
        run = IndexRun.build(
            spec, zone=GROOMED, level=0, gbid_lo=gb, gbid_hi=gb,
            eq={"a": df.a.values, "b": df.b.values}, sorts={},
            begin_ts=df.ts.values.astype(np.int64),
            rid_zone=np.zeros(n), rid_block=np.full(n, gb), rid_off=np.arange(n),
            includes={"v": df.v.values},
        )
        ix.add_groomed_run(run)
        frames.append(df)
    df = pd.concat(frames, ignore_index=True)
    for av in range(10):
        for bv in (0, 5, 9):
            got = q.point_lookup(ix, (av, bv), None, 2**62)
            sub = df[(df.a == av) & (df.b == bv)]
            if len(sub):
                last = sub.loc[sub.ts.idxmax()]
                assert got is not None and got["begin_ts"] == last.ts and got["v"] == last.v
            else:
                assert got is None


@pytest.fixture(params=["memory", "ssd"])
def cache(request, tmp_path):
    """No hierarchy (memory-resident runs) or runs cached on the SSD tier
    (block-backed runs), so a test taking it runs on both sources."""
    if request.param == "memory":
        return None
    return CacheManager(StorageHierarchy(str(tmp_path)))


def test_pure_range_index_batch_lookup(cache):
    """No equality columns: every entry hashes to 0 and the offset-array
    bucket is the whole run."""
    spec = IndexSpec(sort_cols=("s",), include_cols=("v",), hash_bits=4, block_rows=16)
    ix = UmziIndex(spec, UmziConfig(K=100, T=2), cache)
    frames = []
    for gb in range(3):
        g = np.random.default_rng(gb)
        n = 120
        df = pd.DataFrame({
            "s": g.integers(0, 60, n).astype(np.int64),
            "ts": (np.int64(gb) << 16) + np.arange(n, dtype=np.int64),
            "v": g.integers(0, 10**9, n).astype(np.int64),
        })
        ix.add_groomed_run(IndexRun.build(
            spec, zone=GROOMED, level=0, gbid_lo=gb, gbid_hi=gb,
            eq={}, sorts={"s": df.s.values}, begin_ts=df.ts.values,
            rid_zone=np.zeros(n), rid_block=np.full(n, gb), rid_off=np.arange(n),
            includes={"v": df.v.values},
        ))
        frames.append(df)
    df = pd.concat(frames, ignore_index=True)
    probes = np.arange(-5, 70, dtype=np.int64)  # every key, plus misses
    for qts in ((1 << 16) + 60, 2**62):
        res = q.batch_lookup(ix, [], [probes], qts)
        got = sorted(zip(res["s"].tolist(), res["begin_ts"].tolist(), res["v"].tolist()))
        d = df[df.ts <= qts].sort_values("ts").groupby("s").last()
        assert got == sorted(zip(d.index.tolist(), d.ts.tolist(), d.v.tolist()))


@pytest.mark.parametrize("method", ["set", "pq"])
def test_pure_range_index_range_scan(cache, method):
    """No equality columns: a range scan over runs whose keys repeat
    across runs, one (key, beginTS) held by two runs, against a pandas
    oracle; each method's output order; the tie goes to the run that
    comes first in the snapshot."""
    spec = IndexSpec(sort_cols=("s",), include_cols=("v",), hash_bits=4, block_rows=16)
    ix = UmziIndex(spec, UmziConfig(K=100, T=2), cache)
    tie = {"s": 100, "ts": (1 << 16) + 5, "v": 42}  # held by runs 1 and 2
    frames = []
    for gb in range(4):
        g = np.random.default_rng(10 + gb)
        n = 90
        df = pd.DataFrame({
            "s": g.integers(0, 60, n).astype(np.int64),
            "ts": (np.int64(gb) << 16) + np.arange(n, dtype=np.int64),
            "v": g.integers(0, 10**9, n).astype(np.int64),
        })
        if gb in (1, 2):
            df = pd.concat([df, pd.DataFrame([tie])], ignore_index=True)
        df["gb"] = gb
        ix.add_groomed_run(IndexRun.build(
            spec, zone=GROOMED, level=0, gbid_lo=gb, gbid_hi=gb,
            eq={}, sorts={"s": df.s.values}, begin_ts=df.ts.values,
            rid_zone=np.zeros(len(df)), rid_block=df.gb.values, rid_off=np.arange(len(df)),
            includes={"v": df.v.values},
        ))
        frames.append(df)
    df = pd.concat(frames, ignore_index=True)
    assert ix.query_snapshot().runs[0].run.gbid_lo == 3  # newest run first
    for qts in ((1 << 16) + 60, 2**62):
        for lo, hi in ((None, None), (10, 40), (7, 7), (90, 120)):
            res = q.range_scan(
                ix, None, None if lo is None else (lo,), None if hi is None else (hi,),
                qts, method=method,
            )
            s, gb = res["s"].tolist(), res["rid_block"].tolist()
            got = sorted(zip(s, res["begin_ts"].tolist(), res["v"].tolist()))
            d = df[(df.ts <= qts) & (df.s >= (lo or 0)) & (df.s <= (hi or 10**9))]
            d = d.sort_values("ts").groupby("s").last()
            assert got == sorted(zip(d.index.tolist(), d.ts.tolist(), d.v.tolist()))
            if method == "pq":
                assert s == sorted(set(s))
            else:
                assert gb == sorted(gb, reverse=True)
                runs = [[x for x, b in zip(s, gb) if b == g] for g in dict.fromkeys(gb)]
                assert all(r == sorted(set(r)) for r in runs)
            if 100 in s:
                assert gb[s.index(100)] == 2


def test_batch_lookup_duplicate_probes_one_row_per_key(cache):
    ix, df = build_workload(seed=4, cache=cache)
    ks = np.asarray([7, 7, 7, 3, 3, 99, 99], np.int64)  # 99 is never ingested
    ss = np.asarray([4, 4, 4, 0, 0, 1, 1], np.int64)
    res = q.batch_lookup(ix, [ks], [ss], 2**62)
    got = sorted(zip(res["k"].tolist(), res["s"].tolist(), res["begin_ts"].tolist()))
    want = []
    for kv, sv in sorted(set(zip(ks.tolist(), ss.tolist()))):
        hit = oracle_scan(df, kv, sv, sv, 2**62)
        want += [(kv, sv, ts) for _s, ts, _v in hit]
    assert got == want


def test_memory_and_ssd_runs_charge_the_same_block_reads(tmp_path):
    """One modelled SSD read per data block a query touches, of the bytes
    the block holds, whether the run is memory-resident or read block by
    block from the SSD cache; a block counts once per (run, query)."""
    spec = IndexSpec(eq_cols=("k",), sort_cols=("s",), hash_bits=3, block_rows=32)
    n = 8 * 32 + 5  # a partial last block is charged for its 5 rows alone
    g = np.random.default_rng(0)
    run = IndexRun.build(
        spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
        eq={"k": g.integers(0, 50, n)}, sorts={"s": g.integers(0, 5, n)},
        begin_ts=np.arange(n), rid_zone=np.zeros(n), rid_block=np.zeros(n),
        rid_off=np.arange(n),
    )
    mem_ix = UmziIndex(spec)
    mem_ix.add_groomed_run(copy.deepcopy(run))
    ssd_ix = UmziIndex(spec, cache=CacheManager(StorageHierarchy(str(tmp_path))))
    ssd_ix.add_groomed_run(run)  # persisted: the run keeps only its header
    for ks in (g.integers(0, 50, 3), g.integers(0, 50, 400)):
        ss = g.integers(0, 5, len(ks))
        charged = []
        for ix in (mem_ix, ssd_ix):
            with capture_io() as cap:
                q.batch_lookup(ix, [ks], [ss], 2**62)
            charged.append((cap.reads, cap.seconds))
        (mem_reads, mem_s), (ssd_reads, ssd_s) = charged
        assert mem_reads == ssd_reads
        assert mem_s == pytest.approx(ssd_s)
        assert 0 < ssd_reads["ssd"] <= run.n_blocks
    assert ssd_reads["ssd"] == run.n_blocks  # 400 probes touch every block
    with capture_io() as cap:  # each query pays its blocks again
        q.batch_lookup(mem_ix, [ks], [ss], 2**62)
        q.batch_lookup(mem_ix, [ks], [ss], 2**62)
    assert cap.reads["ssd"] == 2 * run.n_blocks
