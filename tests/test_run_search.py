"""Single-run search — paper §7.1.1, including the Fig. 2 worked example."""
import copy
from functools import partial

import numpy as np
import pandas as pd
import pytest

from repro.core.run import GROOMED, BlockSource, IndexRun, IndexSpec, MemorySource


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

    spec, run = paper_fig2_run(block_rows=block_rows)
    cm = CacheManager(StorageHierarchy(str(tmp_path)))
    cm.write_run(run, to_ssd=False)
    src = BlockSource(cm.read_block, run)
    for dev in (1, 3, 4, 5, 8, 9):
        for qts in (94, 100, 105):
            a = run.search((dev,), (0,), (3,), qts)
            b = run.search((dev,), (0,), (3,), qts, source=src)
            assert a["begin_ts"].tolist() == b["begin_ts"].tolist()
            assert a["msg"].tolist() == b["msg"].tolist()
    # batch_lookup over the same run, memory-resident vs block-backed
    mem_ix = UmziIndex(spec)
    mem_ix.add_groomed_run(copy.deepcopy(run))
    blk_ix = UmziIndex(spec, cache=CacheManager(StorageHierarchy(str(tmp_path / "ix"))))
    blk_ix.add_groomed_run(run)  # persisted: the run keeps only its header
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


_EXTREMES = np.array([-(2**63), -1, 0, 1, 2**63 - 1], np.int64)


@pytest.mark.parametrize("seed", range(4))
def test_search_sorted_matches_linear_scan(seed, tmp_path):
    """The search kernel against a linear scan of the run's keys, through
    a MemorySource and a BlockSource over the same run: equal positions
    and equal touched blocks, for both sides, ranges narrower and wider
    than a block (a sort-only index's bucket is the whole run), and keys
    with INT64 extremes and needles ending in zero bytes."""
    from repro.core import encoding as enc
    from repro.core.run import search_sorted
    from repro.storage import CacheManager, StorageHierarchy

    g = np.random.default_rng(seed)
    n = 300
    u64_max = np.uint64(2**64 - 1)
    for hashed in (True, False):
        spec = IndexSpec(
            eq_cols=("k",) if hashed else (), sort_cols=("s",), hash_bits=2,
            block_rows=int(g.integers(4, 40)),
        )
        eq = {"k": g.choice(_EXTREMES, n)} if hashed else {}
        run = IndexRun.build(
            spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0, eq=eq,
            sorts={"s": g.choice(_EXTREMES, n)}, begin_ts=g.choice(_EXTREMES, n),
            rid_zone=np.zeros(n), rid_block=np.zeros(n), rid_off=np.arange(n),
        )
        cm = CacheManager(StorageHierarchy(str(tmp_path / f"h{int(hashed)}")))
        cm.write_run(run, to_ssd=True)
        table = enc.key_columns(run.key).astype(np.uint64)
        rows = [tuple(r) for r in table.tolist()]
        for m in (1, 3, 200):
            # Needles near entries: a field nudged up by one, or the fields
            # after one padded with zeros or ones.
            cols = table[g.integers(0, n, m)]
            j = g.integers(0, table.shape[1], m)
            cols[np.arange(m), j] += (g.random(m) < 0.5).astype(np.uint64)
            for i in np.flatnonzero(g.random(m) < 0.5):
                cols[i, j[i]:] = 0 if g.random() < 0.5 else u64_max
            needles = enc.memcmp_key(list(cols.T))
            lo, hi = run.bucket(cols[:, 0])
            rand = g.random(m) < 0.5
            lo[rand] = g.integers(0, n + 1, rand.sum())
            hi[rand] = np.minimum(n, lo[rand] + g.integers(0, n + 1, rand.sum()))
            for side in ("left", "right"):
                mem, blk = MemorySource(run), BlockSource(cm.read_block, run)
                got = search_sorted(mem, needles, lo, hi, side)
                assert (search_sorted(blk, needles, lo, hi, side) == got).all()
                assert (mem._touched == blk._touched).all()
                for i in range(m):
                    p = tuple(cols[i].tolist())
                    want = int(lo[i])
                    while want < hi[i] and (rows[want] < p or (side == "right" and rows[want] == p)):
                        want += 1
                    assert got[i] == want, (hashed, m, side, i)


def test_run_key_is_the_order_columns_and_every_form_answers_alike(tmp_path):
    """The order fields are views of the run's memcmp key, not copies;
    and a run answers ``search`` and ``batch_lookup`` identically built in
    memory, read through its cache, and read by its header from shared
    storage."""
    from repro.core import query as q
    from repro.core.index import UmziIndex
    from repro.core.recovery import read_block
    from repro.storage import CacheManager, StorageHierarchy

    g = np.random.default_rng(7)
    n = 2000
    spec = IndexSpec(
        eq_cols=("k",), sort_cols=("s",), include_cols=("v",), hash_bits=3, block_rows=64
    )
    run = IndexRun.build(
        spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
        eq={"k": g.integers(0, 20, n)}, sorts={"s": g.integers(0, 30, n)},
        begin_ts=g.integers(0, 100, n), rid_zone=np.zeros(n), rid_block=np.zeros(n),
        rid_off=np.arange(n), includes={"v": g.integers(0, 10**9, n)},
    )
    for f in spec.order_fields:
        assert np.shares_memory(run.key, run.cols[f]), f
    for f in spec.rest_fields:
        assert not np.shares_memory(run.key, run.cols[f]), f

    built = copy.deepcopy(run)
    cm = CacheManager(StorageHierarchy(str(tmp_path)))
    on_ssd = UmziIndex(spec, cache=cm)
    on_ssd.add_groomed_run(run)
    assert isinstance(on_ssd.source_for(run), BlockSource)
    assert not run.resident  # persisted: the run keeps only its header
    with pytest.raises(ValueError, match="header-only"):
        run.source()  # read without its cache
    shared = IndexRun.from_header(run.header_json())
    indexes = [UmziIndex(spec), on_ssd]
    indexes[0].add_groomed_run(built)
    forms = [
        (built, None),
        (run, BlockSource(cm.read_block, run)),
        (shared, BlockSource(partial(read_block, cm.h.shared), shared)),
    ]

    def searches(r, source):
        return [
            r.search((k,), lo, hi, ts, source=source)
            for k, lo, hi, ts in [(3, (5,), (20,), 60), (7, None, None, 99), (0, (29,), None, 10)]
        ]

    probes = g.integers(0, 32, (2, 300))  # some keys miss

    def lookups(index):
        out = q.batch_lookup(index, [probes[0]], [probes[1]], 50)
        order = np.lexsort([out["s"], out["k"]])
        return {c: a[order].tolist() for c, a in out.items()}

    want = searches(*forms[0])
    for r, source in forms[1:]:
        for a, b in zip(searches(r, source), want):
            assert {c: v.tolist() for c, v in a.items()} == {c: v.tolist() for c, v in b.items()}
    want = lookups(indexes[0])
    assert 0 < len(want["k"]) < 300
    for index in indexes[1:]:
        assert lookups(index) == want


def test_range_search_bisects_both_bounds_together():
    """On a Fig. 11c-shaped index — an equality column with two values,
    so each offset-array bucket holds half the run — a range search
    bisects its lower and upper bound in the same rounds of ``src.keys``:
    fewer rounds than one search per bound, the same positions, and the
    oracle's rows."""
    from repro.core import encoding as enc
    from repro.core.run import search_sorted

    class Counting(MemorySource):
        rounds = 0

        def keys(self, positions):
            self.rounds += 1
            return super().keys(positions)

    split = 1 << 20
    spec = IndexSpec(eq_cols=("c1",), sort_cols=("c2",), hash_bits=10, block_rows=64)
    g = np.random.default_rng(11)
    n = 20_000
    key = g.integers(0, 2 * split, n)
    ts = g.integers(0, 1000, n)
    run = IndexRun.build(
        spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
        eq={"c1": key // split}, sorts={"c2": key % split}, begin_ts=ts,
        rid_zone=np.zeros(n), rid_block=np.zeros(n), rid_off=np.arange(n),
    )
    df = pd.DataFrame({"c1": key // split, "c2": key % split, "ts": ts})
    u64_max = 2**64 - 1
    for c1, lo, hi in [(0, 0, 10), (1, 1000, 200_000), (0, 500_000, split - 1), (1, 7, 7)]:
        src = Counting(run)
        res = run.search((c1,), (lo,), (hi,), 500, source=src)
        hit = df[(df.c1 == c1) & (df.c2 >= lo) & (df.c2 <= hi) & (df.ts <= 500)]
        exp = hit.sort_values("ts").groupby("c2").last()
        assert res["c2"].tolist() == exp.index.tolist()
        assert res["begin_ts"].tolist() == exp.ts.tolist()

        # The same two bounds: the first entry not below (c1, lo) and the
        # first above (c1, hi), searched one call per bound, then together.
        h = enc.hash_columns([np.array([c1])])
        prefix = [int(h[0]), enc.ordered_scalar(c1)]
        needles = enc.memcmp_key(np.array(
            [prefix + [enc.ordered_scalar(lo), 0], prefix + [enc.ordered_scalar(hi), u64_max]],
            np.uint64,
        ).T)
        b_lo, b_hi = run.bucket(h)
        assert b_hi[0] - b_lo[0] > n // 3  # a wide bucket
        apart = Counting(run)
        a = search_sorted(apart, needles[:1], b_lo, b_hi, "left")
        b = search_sorted(apart, needles[1:], b_lo, b_hi, "right")
        both = Counting(run)
        got = search_sorted(
            both, needles, np.repeat(b_lo, 2), np.repeat(b_hi, 2), np.array(["left", "right"])
        )
        assert got.tolist() == [a[0], b[0]]
        assert both.rounds < apart.rounds
        assert src.rounds <= both.rounds + 1  # + one gather of the range's keys
