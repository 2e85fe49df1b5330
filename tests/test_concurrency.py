"""Lock-free readers under concurrent maintenance — paper §5.1/§5.4.

Readers hammer the index from multiple threads while a maintenance
thread continuously adds runs, merges, and evolves. Every reader result
must be a consistent snapshot: no missing keys, no duplicate keys, and
version monotonicity (a reader can never see an *older* latest-version
than one that was fully ingested before its query started).
"""
import sys
import threading

import numpy as np
import pandas as pd
import pytest

from repro.core import query as q
from repro.core.index import UmziConfig, UmziIndex
from repro.core.run import GROOMED, POSTGROOMED, IndexRun, IndexSpec
from repro.storage import CacheManager, StorageHierarchy

SPEC = IndexSpec(eq_cols=("k",), sort_cols=("s",), hash_bits=4, block_rows=64)
CFG = UmziConfig(K=2, T=2, groomed_max_level=3, pg_min_level=4, pg_max_level=6)

KEYS = 10
SORTS = 5


def mk_batch(gbid):
    """Every groom batch writes ALL (k, s) pairs with fresh timestamps —
    so a consistent reader must see every key, with ts from some prefix."""
    k = np.repeat(np.arange(KEYS, dtype=np.int64), SORTS)
    s = np.tile(np.arange(SORTS, dtype=np.int64), KEYS)
    n = len(k)
    ts = (np.int64(gbid) << 16) + np.arange(n, dtype=np.int64)
    return IndexRun.build(
        SPEC, zone=GROOMED, level=0, gbid_lo=gbid, gbid_hi=gbid,
        eq={"k": k}, sorts={"s": s}, begin_ts=ts,
        rid_zone=np.zeros(n), rid_block=np.full(n, gbid), rid_off=np.arange(n),
    )


def pg_of(gbids):
    k = np.repeat(np.arange(KEYS, dtype=np.int64), SORTS)
    s = np.tile(np.arange(SORTS, dtype=np.int64), KEYS)
    n = len(k)
    parts_k, parts_s, parts_t = [], [], []
    for gb in gbids:
        parts_k.append(k)
        parts_s.append(s)
        parts_t.append((np.int64(gb) << 16) + np.arange(n, dtype=np.int64))
    kk = np.concatenate(parts_k)
    ss = np.concatenate(parts_s)
    tt = np.concatenate(parts_t)
    m = len(kk)
    return IndexRun.build(
        SPEC, zone=POSTGROOMED, level=CFG.pg_min_level,
        gbid_lo=min(gbids), gbid_hi=max(gbids),
        eq={"k": kk}, sorts={"s": ss}, begin_ts=tt,
        rid_zone=np.ones(m), rid_block=np.full(m, min(gbids)), rid_off=np.arange(m),
    )


@pytest.mark.parametrize("n_readers", [2, 4])
def test_readers_always_consistent_during_maintenance(n_readers):
    ix = UmziIndex(SPEC, CFG)
    ix.add_groomed_run(mk_batch(0))
    stop = threading.Event()
    errors: list[str] = []
    min_gbid_done = [0]  # highest gbid fully ingested (visible floor)

    def maintainer():
        gb = 1
        while not stop.is_set() and gb < 60:
            ix.add_groomed_run(mk_batch(gb))
            min_gbid_done[0] = gb
            ix.maintain()
            if gb % 7 == 0:
                ix.evolve(pg_of(range(ix.pg_covered_gbid + 1, gb - 2)), psn=gb)
            gb += 1
        stop.set()

    def reader(tid):
        g = np.random.default_rng(tid)
        while not stop.is_set():
            floor = min_gbid_done[0]
            kv = int(g.integers(0, KEYS))
            res = q.range_scan(ix, (kv,), (0,), (SORTS - 1,), 2**62,
                               method="set" if tid % 2 else "pq")
            ss = res["s"].tolist()
            ts = res["begin_ts"].tolist()
            if sorted(ss) != list(range(SORTS)):
                errors.append(f"missing/dup keys: {sorted(ss)}")
                return
            for t in ts:
                if (t >> 16) < floor:
                    errors.append(f"stale version {t >> 16} < floor {floor}")
                    return

    threads = [threading.Thread(target=maintainer)] + [
        threading.Thread(target=reader, args=(t,)) for t in range(n_readers)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors, errors[:3]
    assert stop.is_set()


def test_point_lookup_consistent_during_churn():
    ix = UmziIndex(SPEC, CFG)
    ix.add_groomed_run(mk_batch(0))
    stop = threading.Event()
    errors = []
    floor = [0]

    def maintainer():
        for gb in range(1, 40):
            ix.add_groomed_run(mk_batch(gb))
            floor[0] = gb
            ix.maintain()
        stop.set()

    def reader():
        g = np.random.default_rng(0)
        while not stop.is_set():
            f = floor[0]
            got = q.point_lookup(ix, (int(g.integers(0, KEYS)),), (0,), 2**62)
            if got is None or (got["begin_ts"] >> 16) < f:
                errors.append(f"bad lookup {got} floor={f}")
                return

    ts = [threading.Thread(target=maintainer), threading.Thread(target=reader)]
    for t in ts:
        t.start()
    for t in ts:
        t.join(timeout=60)
    assert not errors, errors[:3]


# ------------------------------------------------- block-backed runs and GC
def all_keys_seen(res):
    return sorted(zip(res["k"].tolist(), res["s"].tolist())) == [
        (k, s) for k in range(KEYS) for s in range(SORTS)
    ]


def probes():
    return [np.repeat(np.arange(KEYS), SORTS)], [np.tile(np.arange(SORTS), KEYS)]


def run_files(hier, run_id):
    return hier.ssd.list(f"runs/{run_id}/") + hier.shared.list(f"runs/{run_id}/")


def test_snapshot_outlives_merge_and_evolve_gc(tmp_path):
    """A reader's snapshot, and a BlockSource taken from it, still read a
    run that a merge or an evolve GC'd after the snapshot was taken; the
    run's files go once the snapshot is released."""
    hier = StorageHierarchy(str(tmp_path))
    ix = UmziIndex(SPEC, CFG, CacheManager(hier))
    ix.add_groomed_run(mk_batch(0))
    snap = ix.query_snapshot()
    (h0,) = snap.runs
    src = ix.source_for(h0.run)  # block-backed; no block read yet
    ix.add_groomed_run(mk_batch(1))
    (ev,) = ix.maintain()  # K=2: gbids 0 and 1 merge; run 0 is GC'd
    assert h0.run in ev.merged
    res = h0.run.search((3,), None, None, 2**62, source=src)
    assert res["s"].tolist() == list(range(SORTS))
    got = q.batch_lookup(ix, *probes(), 2**62, runs=snap.runs)
    assert all_keys_seen(got) and (got["begin_ts"] >> 16 == 0).all()

    snap2 = ix.query_snapshot()
    (h1,) = snap2.runs  # the merged run, gbids 0-1
    ix.evolve(pg_of([0, 1]), psn=1)  # covers it: the evolve GC's it
    assert h1.run.run_id not in {h.run.run_id for h in ix.groomed.snapshot()}
    got = q.batch_lookup(ix, *probes(), 2**62, runs=snap2.runs)
    assert all_keys_seen(got) and (got["begin_ts"] >> 16 == 1).all()

    assert run_files(hier, h0.run.run_id) and run_files(hier, h1.run.run_id)
    snap2.release()
    assert run_files(hier, h0.run.run_id)  # still pinned by the older snapshot
    snap.release()
    assert not run_files(hier, h0.run.run_id) and not run_files(hier, h1.run.run_id)
    with ix.query_snapshot() as snap3:
        got = q.batch_lookup(ix, *probes(), 2**62, runs=snap3.runs)
        assert all_keys_seen(got)


def test_readers_consistent_on_block_backed_runs_during_gc_purge_and_load(tmp_path):
    """Readers of an index on a StorageHierarchy, where every run is read
    block by block through the cache, during merges, evolve GC, and
    ``apply_cache_level`` purges and loads: no read fails, every result is
    a consistent snapshot, and once the readers stop no file of a GC'd
    run is left on either tier."""
    hier = StorageHierarchy(str(tmp_path))
    ix = UmziIndex(SPEC, CFG, CacheManager(hier))
    ix.add_groomed_run(mk_batch(0))
    stop = threading.Event()
    errors: list[str] = []
    floor = [0]

    def maintainer():
        try:
            for gb in range(1, 40):
                ix.add_groomed_run(mk_batch(gb))
                floor[0] = gb
                ix.maintain()
                if gb % 7 == 0:
                    ix.evolve(pg_of(range(ix.pg_covered_gbid + 1, gb - 2)), psn=gb)
                ix.apply_cache_level(-1 if gb % 2 else CFG.pg_max_level)
        except Exception as e:  # pragma: no cover - reported below
            errors.append(f"maintainer: {e!r}")
        finally:
            stop.set()

    def reader(tid):
        while not stop.is_set():
            f = floor[0]
            try:
                if tid % 2:
                    res, want = q.batch_lookup(ix, *probes(), 2**62), KEYS * SORTS
                else:
                    res, want = q.range_scan(ix, (tid,), (0,), (SORTS - 1,), 2**62), SORTS
            except Exception as e:
                errors.append(f"reader {tid}: {e!r}")
                return
            if len(set(zip(res["k"].tolist(), res["s"].tolist()))) != want or len(res["k"]) != want:
                errors.append(f"reader {tid}: missing or duplicate keys")
                return
            if ((res["begin_ts"] >> 16) < f).any():
                errors.append(f"reader {tid}: a version older than gbid {f}")
                return

    threads = [threading.Thread(target=maintainer)] + [
        threading.Thread(target=reader, args=(t,)) for t in range(6)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to widen the races
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[:3]
    live = {h.run.run_id for h in ix.groomed.snapshot() + ix.postgroomed.snapshot()}
    on_disk = {k.split("/")[1] for k in hier.ssd.list("runs/") + hier.shared.list("runs/")}
    assert on_disk == live
