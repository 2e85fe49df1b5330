"""Single-run search — paper §7.1.1, including the Fig. 2 worked example."""
import numpy as np
import pandas as pd
import pytest

from repro.core.run import GROOMED, IndexRun, IndexSpec, MemorySource


def paper_fig2_run(block_rows=4):
    """The example of Fig. 2: device is the equality column, msg the sort
    column; entries (device, msg, beginTS) as printed in the paper."""
    spec = IndexSpec(eq_cols=("device",), sort_cols=("msg",), hash_bits=3, block_rows=block_rows)
    device = np.asarray([1, 8, 4, 4, 4, 5, 3, 3], np.int64)
    msg = np.asarray([1, 2, 1, 1, 2, 1, 0, 1], np.int64)
    ts = np.asarray([100, 101, 97, 94, 102, 97, 103, 104], np.int64)
    run = IndexRun.build(
        spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=1,
        eq={"device": device}, sorts={"msg": msg}, begin_ts=ts,
        rid_zone=np.zeros(8, np.int64), rid_block=np.zeros(8, np.int64),
        rid_off=np.arange(8, dtype=np.int64),
    )
    return spec, run


class TestPaperFig2Example:
    """§7.1.1's worked query: device = 4, 1 <= msg <= 3, queryTS = 100."""

    def test_returns_most_recent_visible_version(self):
        _, run = paper_fig2_run()
        res = run.search((4,), (1,), (3,), 100)
        # Entry (4,1,97) returned; (4,1,94) older version filtered; (4,2,102)
        # beyond queryTS; (5,1,...) beyond upper bound.
        assert res["device"].tolist() == [4]
        assert res["msg"].tolist() == [1]
        assert res["begin_ts"].tolist() == [97]

    def test_higher_query_ts_sees_second_key(self):
        _, run = paper_fig2_run()
        res = run.search((4,), (1,), (3,), 102)
        assert sorted(zip(res["msg"], res["begin_ts"])) == [(1, 97), (2, 102)]

    def test_time_travel_to_oldest_version(self):
        _, run = paper_fig2_run()
        res = run.search((4,), (1,), (1,), 94)
        assert res["begin_ts"].tolist() == [94]

    def test_before_any_version(self):
        _, run = paper_fig2_run()
        res = run.search((4,), (1,), (3,), 90)
        assert len(res["begin_ts"]) == 0

    def test_synopsis_matches_paper(self):
        _, run = paper_fig2_run()
        assert run.synopsis["msg"] == (0, 2)
        assert run.synopsis["device"] == (1, 8)


def oracle_search(df, dev, lo, hi, qts):
    d = df[(df.device == dev) & (df.msg >= lo) & (df.msg <= hi) & (df.ts <= qts)]
    d = d.sort_values("ts").groupby("msg").last()
    return sorted(zip(d.index.tolist(), d.ts.tolist()))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("hash_bits", [2, 8])
@pytest.mark.parametrize("qts", [50, 200, 10**6])
def test_search_vs_pandas_oracle(seed, hash_bits, qts):
    g = np.random.default_rng(seed)
    n = 600
    device = g.integers(0, 12, n).astype(np.int64)
    msg = g.integers(0, 25, n).astype(np.int64)
    ts = g.integers(1, 300, n).astype(np.int64)
    spec = IndexSpec(eq_cols=("device",), sort_cols=("msg",), hash_bits=hash_bits, block_rows=37)
    run = IndexRun.build(
        spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
        eq={"device": device}, sorts={"msg": msg}, begin_ts=ts,
        rid_zone=np.zeros(n), rid_block=np.zeros(n), rid_off=np.arange(n),
    )
    df = pd.DataFrame({"device": device, "msg": msg, "ts": ts})
    for dev in (0, 5, 11, 99):
        for lo, hi in [(0, 24), (5, 10), (7, 7), (20, 3)]:
            res = run.search((dev,), (lo,), (hi,), qts)
            got = sorted(zip(res["msg"].tolist(), res["begin_ts"].tolist()))
            assert got == oracle_search(df, dev, lo, hi, qts), (dev, lo, hi, qts)


@pytest.mark.parametrize("seed", range(3))
def test_unbounded_sort_range(seed):
    g = np.random.default_rng(seed)
    n = 300
    device = g.integers(0, 5, n).astype(np.int64)
    msg = g.integers(-50, 50, n).astype(np.int64)  # negative sort values
    ts = g.integers(1, 100, n).astype(np.int64)
    spec = IndexSpec(eq_cols=("device",), sort_cols=("msg",), hash_bits=4, block_rows=16)
    run = IndexRun.build(
        spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
        eq={"device": device}, sorts={"msg": msg}, begin_ts=ts,
        rid_zone=np.zeros(n), rid_block=np.zeros(n), rid_off=np.arange(n),
    )
    df = pd.DataFrame({"device": device, "msg": msg, "ts": ts})
    res = run.search((2,), None, None, 10**6)
    got = sorted(zip(res["msg"].tolist(), res["begin_ts"].tolist()))
    assert got == oracle_search(df, 2, -(10**9), 10**9, 10**6)
    # one-sided bounds
    res_lo = run.search((2,), (0,), None, 10**6)
    assert sorted(zip(res_lo["msg"].tolist(), res_lo["begin_ts"].tolist())) == oracle_search(
        df, 2, 0, 10**9, 10**6
    )
    res_hi = run.search((2,), None, (0,), 10**6)
    assert sorted(zip(res_hi["msg"].tolist(), res_hi["begin_ts"].tolist())) == oracle_search(
        df, 2, -(10**9), 0, 10**6
    )


def test_search_requires_all_equality_columns():
    spec, run = paper_fig2_run()
    with pytest.raises(ValueError, match="equality columns"):
        run.search(None, (0,), (3,), 100)
    with pytest.raises(ValueError, match="equality columns"):
        run.search((), (0,), (3,), 100)


def test_pure_hash_index_point_lookup():
    """I3-style: equality column only, no sort columns (§4.1)."""
    spec = IndexSpec(eq_cols=("k",), hash_bits=6, block_rows=8)
    n = 500
    g = np.random.default_rng(0)
    k = g.integers(0, 100, n).astype(np.int64)
    ts = g.integers(1, 1000, n).astype(np.int64)
    run = IndexRun.build(
        spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
        eq={"k": k}, sorts={}, begin_ts=ts,
        rid_zone=np.zeros(n), rid_block=np.zeros(n), rid_off=np.arange(n),
    )
    df = pd.DataFrame({"k": k, "ts": ts})
    for key in range(0, 100, 7):
        res = run.search((key,), None, None, 10**6)
        sub = df[df.k == key]
        if len(sub) == 0:
            assert len(res["begin_ts"]) == 0
        else:
            assert res["begin_ts"].tolist() == [sub.ts.max()]


def test_pure_range_index():
    """Hash index degenerates away: sort columns only (§4.1)."""
    spec = IndexSpec(sort_cols=("s",), hash_bits=4, block_rows=8)
    s = np.asarray([5, 1, 9, 3, 7, 1], np.int64)
    ts = np.asarray([10, 20, 30, 40, 50, 60], np.int64)
    run = IndexRun.build(
        spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
        eq={}, sorts={"s": s}, begin_ts=ts,
        rid_zone=np.zeros(6), rid_block=np.zeros(6), rid_off=np.arange(6),
    )
    res = run.search(None, (1,), (5,), 10**6)
    assert sorted(zip(res["s"].tolist(), res["begin_ts"].tolist())) == [
        (1, 60), (3, 40), (5, 10)
    ]


def test_included_columns_returned():
    spec = IndexSpec(eq_cols=("d",), sort_cols=("m",), include_cols=("v",), hash_bits=4, block_rows=8)
    d = np.asarray([1, 1, 2], np.int64)
    m = np.asarray([0, 1, 0], np.int64)
    ts = np.asarray([5, 6, 7], np.int64)
    v = np.asarray([100, 200, 300], np.int64)
    run = IndexRun.build(
        spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
        eq={"d": d}, sorts={"m": m}, begin_ts=ts,
        rid_zone=np.zeros(3), rid_block=np.zeros(3), rid_off=np.arange(3),
        includes={"v": v},
    )
    res = run.search((1,), (0,), (1,), 10**6)
    assert sorted(zip(res["m"].tolist(), res["v"].tolist())) == [(0, 100), (1, 200)]


def test_rid_decoding():
    spec, run = paper_fig2_run()
    res = run.search((3,), (0,), (1,), 10**6)
    assert set(res["rid_off"].tolist()) == {6, 7}  # original input offsets
    assert (res["rid_zone"] == 0).all()


@pytest.mark.parametrize("block_rows", [1, 3, 8])
def test_block_source_equals_memory_source(block_rows, tmp_path):
    from repro.core import query as q
    from repro.core.index import UmziIndex
    from repro.storage import CacheManager, StorageHierarchy
    from repro.storage.cache import BlockSource

    spec, run = paper_fig2_run(block_rows=block_rows)
    hier = StorageHierarchy(str(tmp_path))
    cm = CacheManager(hier)
    cm.write_run(run, persisted=True, cache_tier="none")
    src = BlockSource(cm, run)
    for dev in (1, 3, 4, 5, 8, 9):
        for qts in (94, 100, 105):
            a = run.search((dev,), (0,), (3,), qts)
            b = run.search((dev,), (0,), (3,), qts, source=src)
            assert a["begin_ts"].tolist() == b["begin_ts"].tolist()
            assert a["msg"].tolist() == b["msg"].tolist()
    # batch_lookup over the same run, memory-resident vs block-backed
    mem_ix = UmziIndex(spec)
    blk_ix = UmziIndex(spec, cache=CacheManager(StorageHierarchy(str(tmp_path / "ix"))))
    for ix in (mem_ix, blk_ix):
        ix.add_groomed_run(run)
    devs = np.asarray([1, 3, 3, 4, 4, 4, 5, 8, 9], np.int64)
    msgs = np.asarray([1, 0, 1, 1, 2, 3, 1, 2, 0], np.int64)
    for qts in (94, 100, 105):
        a = q.batch_lookup(mem_ix, [devs], [msgs], qts)
        b = q.batch_lookup(blk_ix, [devs], [msgs], qts)
        assert {c: v.tolist() for c, v in a.items()} == {c: v.tolist() for c, v in b.items()}


def test_two_sort_columns_tuple_filter():
    spec = IndexSpec(eq_cols=("d",), sort_cols=("s1", "s2"), hash_bits=4, block_rows=8)
    g = np.random.default_rng(0)
    n = 400
    d = g.integers(0, 4, n).astype(np.int64)
    s1 = g.integers(0, 10, n).astype(np.int64)
    s2 = g.integers(0, 10, n).astype(np.int64)
    ts = g.integers(1, 50, n).astype(np.int64)
    run = IndexRun.build(
        spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
        eq={"d": d}, sorts={"s1": s1, "s2": s2}, begin_ts=ts,
        rid_zone=np.zeros(n), rid_block=np.zeros(n), rid_off=np.arange(n),
    )
    df = pd.DataFrame({"d": d, "s1": s1, "s2": s2, "ts": ts})
    res = run.search((2,), (3, 2), (7, 8), 10**6)
    exp = (
        df[(df.d == 2) & (df.s1 >= 3) & (df.s1 <= 7) & (df.s2 >= 2) & (df.s2 <= 8)]
        .sort_values("ts")
        .groupby(["s1", "s2"])
        .last()
        .reset_index()
    )
    got = sorted(zip(res["s1"].tolist(), res["s2"].tolist(), res["begin_ts"].tolist()))
    want = sorted(zip(exp.s1.tolist(), exp.s2.tolist(), exp.ts.tolist()))
    assert got == want


@pytest.mark.parametrize("seed", range(4))
def test_lower_bound_matches_linear_scan(seed):
    """The search kernel against a linear scan, over 1–4 order fields,
    both sides, ranges narrower and wider than a block, and batches small
    enough to split ranges many ways or large enough to bisect."""
    from repro.core.run import lower_bound

    g = np.random.default_rng(seed)
    n = 300
    spec = IndexSpec(eq_cols=("k",), sort_cols=("s",), hash_bits=2, block_rows=int(g.integers(4, 40)))
    run = IndexRun.build(
        spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
        eq={"k": g.integers(0, 4, n)}, sorts={"s": g.integers(0, 6, n)},
        begin_ts=g.integers(0, 9, n), rid_zone=np.zeros(n), rid_block=np.zeros(n),
        rid_off=np.arange(n),
    )
    for nfields in range(1, 5):
        fields = spec.order_fields[:nfields]
        rows = list(zip(*(run.cols[f].tolist() for f in fields)))
        for m in (1, 3, 500):
            pick = g.integers(0, n, m)
            probes = [run.cols[f][pick] + g.integers(0, 2, m).astype(np.uint64) for f in fields]
            lo = g.integers(0, n + 1, m)
            hi = np.minimum(n, lo + g.integers(0, n + 1, m))
            right = g.random(m) < 0.5
            got = lower_bound(MemorySource(run), fields, probes, lo, hi, right=right)
            for i in range(m):
                p = tuple(int(x[i]) for x in probes)
                want = int(lo[i])
                while want < hi[i] and (rows[want] < p or (right[i] and rows[want] == p)):
                    want += 1
                assert got[i] == want, (nfields, m, i)
