"""Current-cached-level management on the index — paper §6.2."""
import numpy as np
import pytest

from repro.core import query as q
from repro.core.index import UmziConfig, UmziIndex
from repro.core.run import GROOMED, IndexRun, IndexSpec
from repro.storage import CacheManager, StorageHierarchy

SPEC = IndexSpec(eq_cols=("k",), sort_cols=("s",), hash_bits=4, block_rows=32)
CFG = UmziConfig(K=2, T=2, groomed_max_level=3, pg_min_level=4, pg_max_level=6)


def mkrun(gbid, n=100):
    g = np.random.default_rng(gbid)
    return IndexRun.build(
        SPEC, zone=GROOMED, level=0, gbid_lo=gbid, gbid_hi=gbid,
        eq={"k": g.integers(0, 20, n).astype(np.int64)},
        sorts={"s": g.integers(0, 20, n).astype(np.int64)},
        begin_ts=(np.int64(gbid) << 16) + np.arange(n, dtype=np.int64),
        rid_zone=np.zeros(n), rid_block=np.full(n, gbid), rid_off=np.arange(n),
    )


@pytest.fixture
def populated(tmp_path):
    hier = StorageHierarchy(str(tmp_path))
    cm = CacheManager(hier)
    ix = UmziIndex(SPEC, CFG, cm)
    for gb in range(7):
        ix.add_groomed_run(mkrun(gb))
        ix.maintain()
    return hier, cm, ix


def _local_states(cm, ix):
    return {
        h.run.run_id: cm.state(h.run.run_id).local
        for h in ix.groomed.snapshot() + ix.postgroomed.snapshot()
    }


def test_apply_cache_level_purges_high_levels(populated):
    hier, cm, ix = populated
    levels = {h.run.run_id: h.level for h in ix.groomed.snapshot()}
    assert len(set(levels.values())) > 1  # multiple levels exist
    cutoff = min(levels.values())
    ix.apply_cache_level(cutoff)
    for run_id, local in _local_states(cm, ix).items():
        if levels[run_id] > cutoff:
            assert local == "none", run_id
        else:
            assert local != "none", run_id


def test_apply_cache_level_reloads(populated):
    hier, cm, ix = populated
    ix.apply_cache_level(0)
    ix.apply_cache_level(CFG.pg_max_level)
    assert all(v != "none" for v in _local_states(cm, ix).values())


def test_purged_queries_still_correct_but_cost_more(populated):
    hier, cm, ix = populated
    res_cached = q.range_scan(ix, (3,), None, None, 2**62, method="pq")
    hier.stats.reset()
    q.range_scan(ix, (3,), None, None, 2**62, method="pq")
    cached_cost = hier.stats.snapshot()["simulated_seconds"]
    ix.apply_cache_level(-1)  # purge everything (Fig. 14 "all")
    hier.stats.reset()
    res_purged = q.range_scan(ix, (3,), None, None, 2**62, method="pq")
    purged_cost = hier.stats.snapshot()["simulated_seconds"]
    assert res_purged["begin_ts"].tolist() == res_cached["begin_ts"].tolist()
    assert purged_cost > cached_cost * 5  # shared-storage latency dominates


def test_partly_refetched_run_is_loaded_again(tmp_path):
    """A query that fetches a few blocks of a purged run from shared
    storage leaves the run partly cached; raising the cached level then
    loads the rest, so no later query pays a shared read (§6.2)."""
    hier = StorageHierarchy(str(tmp_path))
    cm = CacheManager(hier)
    ix = UmziIndex(SPEC, CFG, cm)
    run = mkrun(0, n=20 * SPEC.block_rows)
    ix.add_groomed_run(run)
    ix.apply_cache_level(-1)
    hier.stats.reset()
    q.point_lookup(ix, (3,), (5,), 2**62)
    fetched = hier.stats.snapshot()["reads"]["shared"]
    assert 0 < fetched < run.n_blocks
    assert cm.state(run.run_id).local == "partial"
    ix.apply_cache_level(CFG.pg_max_level)
    assert cm.state(run.run_id).local == "ssd"
    hier.stats.reset()
    for k in range(20):
        q.range_scan(ix, (k,), None, None, 2**62)
    assert hier.stats.snapshot()["reads"]["shared"] == 0


def test_write_through_respects_cache_level(populated, tmp_path):
    hier, cm, ix = populated
    ix.apply_cache_level(-1)
    ix.add_groomed_run(mkrun(100))
    # new level-0 run is above the cache level -> no local copy (§6.2)
    new = ix.groomed.snapshot()[0]
    assert cm.state(new.run.run_id).local == "none"
    ix.apply_cache_level(CFG.pg_max_level)
    ix.add_groomed_run(mkrun(101))
    new = ix.groomed.snapshot()[0]
    assert cm.state(new.run.run_id).local == "ssd"  # write-through


def test_auto_adjust_purges_until_under_capacity(populated):
    hier, cm, ix = populated
    full = hier.ssd.used_bytes()
    assert full > 0
    ix.auto_adjust_cache(ssd_capacity_bytes=full // 4)
    assert hier.ssd.used_bytes() <= full // 4
    assert ix.cache_level < CFG.pg_max_level


def test_auto_adjust_reloads_when_spacious(populated):
    hier, cm, ix = populated
    ix.apply_cache_level(-1)
    small = hier.ssd.used_bytes()
    ix.auto_adjust_cache(ssd_capacity_bytes=10**9)
    assert hier.ssd.used_bytes() > small
    # reloaded at least up to the highest level that actually holds runs
    max_run_level = max(h.level for h in ix.groomed.snapshot())
    assert ix.cache_level >= max_run_level
    assert all(
        cm.state(h.run.run_id).local != "none" for h in ix.groomed.snapshot()
    )


def test_cache_ops_require_hierarchy():
    ix = UmziIndex(SPEC, CFG)  # no cache attached
    with pytest.raises(ValueError, match="no storage hierarchy"):
        ix.apply_cache_level(0)
    with pytest.raises(ValueError, match="no storage hierarchy"):
        ix.auto_adjust_cache(1)
