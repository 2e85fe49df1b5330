"""Cache manager — paper §6.2 (purge/load, write-through, miss path) and
§6.1 (non-persisted-run constraints)."""
import copy
import tracemalloc
from functools import partial

import numpy as np
import pytest

from repro.core.recovery import list_headers, read_block
from repro.core.run import GROOMED, IndexRun, IndexSpec
from repro.storage import CacheManager, StorageHierarchy
from repro.storage.cache import BlockSource, _block_key, _header_key

SPEC = IndexSpec(eq_cols=("k",), sort_cols=("s",), hash_bits=4, block_rows=8)


def mkrun(gbid=0, n=50, level=0):
    g = np.random.default_rng(gbid)
    return IndexRun.build(
        SPEC, zone=GROOMED, level=level, gbid_lo=gbid, gbid_hi=gbid,
        eq={"k": g.integers(0, 10, n).astype(np.int64)},
        sorts={"s": g.integers(0, 10, n).astype(np.int64)},
        begin_ts=np.arange(n, dtype=np.int64),
        rid_zone=np.zeros(n), rid_block=np.full(n, gbid), rid_off=np.arange(n),
    )


@pytest.fixture
def cm(tmp_path):
    return CacheManager(StorageHierarchy(str(tmp_path)))


def test_write_persisted_ssd(cm):
    run = mkrun()
    cm.write_run(run, persisted=True, cache_tier="ssd")
    assert cm.h.shared.exists(_header_key(run.run_id))
    assert cm.h.ssd.exists(_block_key(run.run_id, 0))
    st = cm.state(run.run_id)
    assert st.persisted and st.local == "ssd"


def test_write_nonpersisted_mem_only(cm):
    run = mkrun()
    cm.write_run(run, persisted=False, cache_tier="mem")
    # Resident in the run's own columns: no copy on any tier (§6.1).
    assert cm.h.ssd.list() == [] and cm.h.shared.list() == []
    assert all(n == 0 for n in cm.h.stats.snapshot()["writes"].values())
    assert cm.state(run.run_id).local == "mem"


def test_nonpersisted_must_be_cached(cm):
    with pytest.raises(ValueError, match="must be cached"):
        cm.write_run(mkrun(), persisted=False, cache_tier="none")


def test_read_block_tier_preference(cm):
    run = mkrun()
    cm.write_run(run, persisted=True, cache_tier="ssd")
    cm.h.stats.reset()
    cm.read_block(run.run_id, 0)
    snap = cm.h.stats.snapshot()
    assert snap["reads"]["ssd"] == 1 and snap["reads"]["shared"] == 0


def test_read_block_miss_fetches_and_caches(cm):
    """§7: purged-run access transfers the block shared → SSD and leaves
    it cached for future accesses."""
    run = mkrun()
    cm.write_run(run, persisted=True, cache_tier="none")
    cm.h.stats.reset()
    cm.read_block(run.run_id, 0)
    snap = cm.h.stats.snapshot()
    assert snap["reads"]["shared"] == 1
    assert cm.h.ssd.exists(_block_key(run.run_id, 0))
    cm.h.stats.reset()
    cm.read_block(run.run_id, 0)  # second access: SSD hit
    snap = cm.h.stats.snapshot()
    assert snap["reads"]["shared"] == 0 and snap["reads"]["ssd"] == 1


def test_purge_keeps_header_drops_blocks(cm):
    run = mkrun()
    cm.write_run(run, persisted=True, cache_tier="ssd")
    cm.purge_run(run.run_id)
    assert cm.h.ssd.exists(_header_key(run.run_id))  # header kept (§6.2)
    assert not cm.h.ssd.exists(_block_key(run.run_id, 0))
    assert cm.state(run.run_id).local == "none"
    # data still on shared storage
    assert cm.h.shared.exists(_block_key(run.run_id, 0))


def test_purge_nonpersisted_rejected(cm):
    run = mkrun()
    cm.write_run(run, persisted=False, cache_tier="mem")
    with pytest.raises(ValueError, match="non-persisted"):
        cm.purge_run(run.run_id)


def test_load_restores_all_blocks(cm):
    run = mkrun()
    cm.write_run(run, persisted=True, cache_tier="ssd")
    cm.purge_run(run.run_id)
    cm.load_run(run.run_id)
    for i in range(run.n_blocks):
        assert cm.h.ssd.exists(_block_key(run.run_id, i))
    assert cm.state(run.run_id).local == "ssd"


def test_delete_run_everywhere(cm):
    run = mkrun()
    cm.write_run(run, persisted=True, cache_tier="ssd")
    cm.delete_run(run.run_id)
    assert not cm.h.shared.exists(_header_key(run.run_id))
    assert not cm.h.ssd.exists(_block_key(run.run_id, 0))
    assert run.run_id not in cm.known_runs()


def test_delete_run_keep_shared(cm):
    """§6.1: GC of a run merged into a non-persisted level removes local
    copies only — shared storage keeps the ancestor."""
    run = mkrun()
    cm.write_run(run, persisted=True, cache_tier="ssd")
    cm.delete_run(run.run_id, from_shared=False)
    assert cm.h.shared.exists(_header_key(run.run_id))
    assert not cm.h.ssd.exists(_block_key(run.run_id, 0))


def test_list_shared_headers(cm):
    r1, r2 = mkrun(0), mkrun(1)
    cm.write_run(r1, persisted=True, cache_tier="ssd")
    cm.write_run(r2, persisted=True, cache_tier="none")
    hdrs = list_headers(cm.h.shared)
    assert {h["run_id"] for h in hdrs} == {r1.run_id, r2.run_id}


def test_read_shared_run_roundtrip(cm):
    run = mkrun()
    cm.write_run(run, persisted=True, cache_tier="none")
    hdr = list_headers(cm.h.shared)[0]
    key, cols = IndexRun.read_entries([IndexRun.from_header(hdr)], partial(read_block, cm.h.shared))
    assert (key == run.key).all()
    for f in SPEC.rest_fields:
        assert (cols[f] == run.cols[f]).all()


@pytest.mark.parametrize("a,b", [(0, 5), (3, 27), (7, 8), (0, 50), (49, 50)])
def test_block_source_slice_spans_blocks(cm, a, b):
    """A contiguous take() across block boundaries."""
    run = mkrun(n=50)
    cm.write_run(run, persisted=True, cache_tier="ssd")
    src = BlockSource(cm.read_block, run)
    got = src.take(("h", "t"), np.arange(a, b))
    assert (got["h"] == run.cols["h"][a:b]).all()
    assert (got["t"] == run.cols["t"][a:b]).all()


def test_block_source_value_at(cm):
    """Single-entry take()s, each value as stored."""
    run = mkrun(n=50)
    cm.write_run(run, persisted=True, cache_tier="ssd")
    src = BlockSource(cm.read_block, run)
    for i in (0, 7, 8, 9, 49):
        assert int(src.take(("t",), np.asarray([i]))["t"][0]) == int(run.cols["t"][i])


def test_block_source_caches_blocks_per_query(cm):
    run = mkrun(n=50)
    cm.write_run(run, persisted=True, cache_tier="ssd")
    src = BlockSource(cm.read_block, run)
    cm.h.stats.reset()
    src.take(("h",), np.asarray([0]))
    src.take(("h", "t"), np.asarray([1, 7, 0]))  # same block: no second tier read
    assert cm.h.stats.snapshot()["reads"]["ssd"] == 1
    src.take(("h",), np.asarray([8, 0, 49]))  # two new blocks, one read each
    assert cm.h.stats.snapshot()["reads"]["ssd"] == 3
    # a new source (new query) re-reads — blocks were released (§7)
    src2 = BlockSource(cm.read_block, run)
    src2.take(("h",), np.asarray([0]))
    assert cm.h.stats.snapshot()["reads"]["ssd"] == 4


def test_read_block_survives_purge_mid_read(cm, monkeypatch):
    """A purge that lands between finding a block on SSD and reading it
    falls through to shared storage, which re-caches the block (§7)."""
    run = mkrun()
    cm.write_run(run, persisted=True, cache_tier="ssd")
    key = _block_key(run.run_id, 0)
    ssd_get = cm.h.ssd.get

    def purged_then_get(k):
        cm.h.ssd.delete(k)
        return ssd_get(k)

    monkeypatch.setattr(cm.h.ssd, "get", purged_then_get)
    assert cm.read_block(run.run_id, 0) == run.block_bytes(0)
    assert cm.h.ssd.exists(key)


def test_block_source_reads_each_block_once_per_source(cm):
    """Random takes over a run with a partial last block: each block is
    read from its tier once per source, into arrays of the run's length
    whose values are the run's."""
    run = mkrun(n=50)  # 7 blocks of 8 rows, the last holding 2
    cm.write_run(run, persisted=True, cache_tier="ssd")
    src = BlockSource(cm.read_block, run)
    assert len(src.key) == run.n_entries
    assert all(len(src.cols[f]) == run.n_entries for f in SPEC.fields)
    cm.h.stats.reset()
    rng = np.random.default_rng(3)
    seen: set[int] = set()
    for size in (1, 2, 4, 8, 16, 50):
        pos = rng.integers(0, run.n_entries, size)
        got = src.take(SPEC.fields, pos)
        for f in SPEC.fields:
            assert (got[f] == run.cols[f][pos]).all()
        seen |= set((pos // SPEC.block_rows).tolist())
        assert cm.h.stats.snapshot()["reads"]["ssd"] == len(seen)
    got = src.take(SPEC.fields, np.arange(run.n_entries))
    for f in SPEC.fields:
        assert (got[f] == run.cols[f]).all()
    assert (src.keys(np.arange(run.n_entries)) == run.key).all()
    assert cm.h.stats.snapshot()["reads"]["ssd"] == run.n_blocks


def test_block_source_buffer_is_allocated_once(cm):
    """Takes that touch every block of a 300K-entry run keep the arrays
    allocated with the source: ``key`` and each of ``cols`` are the same
    objects after every load, and the traced peak stays within 1.1x the
    run's block data."""
    spec = IndexSpec(eq_cols=("k",), sort_cols=("s",), include_cols=("v",), block_rows=4096)
    n = 300_000
    g = np.random.default_rng(0)
    run = IndexRun.build(
        spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
        eq={"k": g.integers(0, 1 << 40, n)}, sorts={"s": g.integers(0, 1 << 40, n)},
        begin_ts=np.arange(n), rid_zone=np.zeros(n), rid_block=np.zeros(n),
        rid_off=np.arange(n), includes={"v": g.integers(0, 1 << 40, n)},
    )
    cm.write_run(run, persisted=True, cache_tier="ssd")
    block_bytes = sum(len(run.block_bytes(i)) for i in range(run.n_blocks))
    firsts = np.arange(run.n_blocks) * spec.block_rows
    tracemalloc.start()
    try:
        src = BlockSource(cm.read_block, run)
        key, cols = src.key, dict(src.cols)
        for chunk in np.array_split(firsts, 8):
            src.take(("h",), chunk)
            assert src.key is key
            assert all(src.cols[f] is c for f, c in cols.items())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert src._touched.all()
    assert peak <= 1.1 * block_bytes


def test_merge_of_header_only_runs_equals_merge_of_resident_copies(cm):
    """A merge reads each block of its header-only inputs once — from the
    SSD if cached, else from shared storage, without caching it there —
    and writes the same blocks as a merge of resident copies."""
    # Whole and partial blocks, an empty run, and identical entries across
    # runs (the same gbid twice), which the merge collapses.
    runs = [mkrun(0, n=50), mkrun(1, n=16), mkrun(0, n=50), mkrun(2, n=0), mkrun(3, n=23)]
    for r in runs:
        cm.write_run(r, persisted=True, cache_tier="ssd")
    purged = runs[1::2]
    for r in purged:
        cm.purge_run(r.run_id)
    copies = [copy.deepcopy(r) for r in runs]
    for r in runs:
        r.drop_entries()
    cm.h.stats.reset()
    merged = IndexRun.merge_runs(runs, level=1, read_block=partial(cm.read_block, fill=False))
    reads = cm.h.stats.snapshot()["reads"]
    blocks = [-(-r.n_entries // SPEC.block_rows) for r in runs]
    assert reads["ssd"] + reads["shared"] == sum(blocks)
    assert reads["shared"] == sum(blocks[1::2])
    for r, n in zip(purged, blocks[1::2]):  # nothing read stays on the SSD
        assert not any(cm.h.ssd.exists(_block_key(r.run_id, i)) for i in range(n))
    ref = IndexRun.merge_runs(copies, level=1)
    assert merged.n_entries == ref.n_entries < sum(r.n_entries for r in runs)
    assert [merged.block_bytes(i) for i in range(merged.n_blocks)] == [
        ref.block_bytes(i) for i in range(ref.n_blocks)
    ]
    assert {**merged.header_json(), "run_id": ""} == {**ref.header_json(), "run_id": ""}
