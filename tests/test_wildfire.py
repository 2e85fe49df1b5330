"""Wildfire-lite lifecycle — paper §2.1 (live → groomed → post-groomed)."""
import io
import os
from functools import partial

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from repro.core import query as q
from repro.core.index import UmziConfig, UmziIndex
from repro.core.recovery import read_block
from repro.core.run import GROOMED, IndexRun
from repro.experiments import defs
from repro.storage import CacheManager, StorageHierarchy
from repro.wildfire import (
    EndTsStore,
    Groomer,
    Indexer,
    PostGroomer,
    TableSchema,
    TableShard,
)
from repro.wildfire.groomer import TS_CYCLE_BITS, groomed_block_key
from repro.wildfire.postgroomer import pg_block_key, pg_end_ts_key
from repro.wildfire.records import OPEN_END_TS, from_parquet_bytes

SCHEMA = TableSchema(
    name="iot",
    columns=("c1", "c2", "v"),
    primary_key=("c1", "c2"),
    sharding_key=("c1",),
    partition_key=("c2",),
)


def batch(keys, seed=0):
    eq, sorts = defs.key_columns("I1", np.asarray(keys, np.int64))
    g = np.random.default_rng(seed)
    return pd.DataFrame({"c1": eq["c1"], "c2": sorts["c2"],
                         "v": g.integers(0, 100, len(keys)).astype(np.int64)})


@pytest.fixture
def stack(tmp_path):
    return make_stack(tmp_path)


def make_stack(root):
    hier = StorageHierarchy(str(root))
    cm = CacheManager(hier)
    ix = UmziIndex(defs.make_spec("I1"), UmziConfig(K=3, T=2), cm)
    shard = TableShard(SCHEMA, hier)
    groomer = Groomer(shard, ix, hier)
    pg = PostGroomer(SCHEMA, ix, hier)
    indexer = Indexer(SCHEMA, ix, hier, pg)
    return hier, ix, shard, groomer, pg, indexer


class TestShard:
    def test_ingest_and_drain_commit_order(self, stack):
        _, _, shard, *_ = stack
        shard.ingest(batch([3, 4]))
        shard.ingest(batch([1, 2]))
        got = shard.drain()
        assert got["_commit_seq"].tolist() == [0, 0, 1, 1]
        assert shard.live_size() == 0

    def test_scan_live_before_groom(self, stack):
        _, _, shard, *_ = stack
        shard.ingest(batch([5]))
        assert shard.live_size() == 1
        assert len(shard.scan_live()) == 1

    def test_ingest_rejects_missing_columns(self, stack):
        _, _, shard, *_ = stack
        with pytest.raises(ValueError, match="missing columns"):
            shard.ingest(pd.DataFrame({"c1": [1]}))

    def test_committed_log_persisted_to_ssd(self, stack):
        hier, _, shard, *_ = stack
        shard.ingest(batch([7]))
        assert hier.ssd.list("livelog/iot/")

    def test_groom_truncates_live_log(self, stack):
        hier, _, shard, groomer, *_ = stack
        shard.ingest(batch([7, 8]))
        shard.ingest(batch([9], seed=1))
        assert len(hier.ssd.list("livelog/iot/")) == 2
        groomer.groom()
        assert hier.ssd.list("livelog/iot/") == []


class TestGroomer:
    def test_groom_empty_live_zone(self, stack):
        _, _, _, groomer, *_ = stack
        assert groomer.groom() is None

    def test_groom_writes_block_and_builds_run(self, stack):
        hier, ix, shard, groomer, *_ = stack
        shard.ingest(batch(range(10)))
        gbid = groomer.groom()
        assert gbid == 0
        assert hier.shared.exists(groomed_block_key("iot", 0))
        assert hier.ssd.exists(groomed_block_key("iot", 0))
        assert len(ix.groomed.snapshot()) == 1
        assert ix.groomed.snapshot()[0].run.n_entries == 10

    def test_begin_ts_monotonic_across_grooms(self, stack):
        hier, ix, shard, groomer, *_ = stack
        all_ts = []
        for cyc in range(3):
            shard.ingest(batch(range(cyc * 10, cyc * 10 + 10)))
            gbid = groomer.groom()
            blk = from_parquet_bytes(hier.shared.get(groomed_block_key("iot", gbid)))
            all_ts.extend(blk["begin_ts"].tolist())
        assert all_ts == sorted(all_ts)
        assert all_ts[0] >> TS_CYCLE_BITS == 1  # cycle in high bits

    def test_groomed_block_hidden_columns(self, stack):
        hier, ix, shard, groomer, *_ = stack
        shard.ingest(batch(range(5)))
        groomer.groom()
        blk = from_parquet_bytes(hier.shared.get(groomed_block_key("iot", 0)))
        assert (blk["end_ts"] == OPEN_END_TS).all()
        assert (blk["prev_rid_zone"] == -1).all()
        assert blk["rid_off"].tolist() == list(range(5))
        assert (blk["rid_zone"] == 0).all()

    def test_groomed_block_round_trip(self, stack):
        hier, ix, shard, groomer, *_ = stack
        frames = [batch([3, 4, 9]), batch([1, 2], seed=1)]
        for f in frames:
            shard.ingest(f)
        gbid = groomer.groom()
        data = hier.shared.get(groomed_block_key("iot", gbid))
        blk = from_parquet_bytes(data)
        hidden = ["begin_ts", "end_ts", "prev_rid_zone", "prev_rid_block",
                  "prev_rid_off", "rid_zone", "rid_block", "rid_off"]
        assert list(blk.columns) == list(SCHEMA.columns) + hidden
        assert all(blk[c].dtype == np.int64 for c in blk.columns)
        # User values in commit order.
        pd.testing.assert_frame_equal(
            blk[list(SCHEMA.columns)], pd.concat(frames, ignore_index=True)
        )
        assert blk["begin_ts"].tolist() == [(1 << TS_CYCLE_BITS) + i for i in range(5)]
        assert (blk["rid_block"] == gbid).all()
        meta = pq.ParquetFile(io.BytesIO(data)).metadata
        for rg in range(meta.num_row_groups):
            for c in range(meta.num_columns):
                assert not meta.row_group(rg).column(c).has_dictionary_page
        # The groomer's run is the run built over the read-back block. It
        # is persisted and header-only; its entries are on shared storage.
        run = ix.groomed.snapshot()[0].run
        src = run.source(partial(read_block, hier.shared))
        src.load_all()
        spec = ix.spec
        ref = IndexRun.build(
            spec, zone=GROOMED, level=0, gbid_lo=gbid, gbid_hi=gbid,
            eq={c: blk[c].to_numpy() for c in spec.eq_cols},
            sorts={c: blk[c].to_numpy() for c in spec.sort_cols},
            begin_ts=blk["begin_ts"].to_numpy(),
            rid_zone=blk["rid_zone"].to_numpy(),
            rid_block=blk["rid_block"].to_numpy(),
            rid_off=blk["rid_off"].to_numpy(),
            includes={c: blk[c].to_numpy() for c in spec.include_cols},
        )
        np.testing.assert_array_equal(src.key, ref.key)
        for f in spec.fields:
            np.testing.assert_array_equal(src.cols[f], ref.cols[f])

    def test_groomed_data_queryable_via_index(self, stack):
        _, ix, shard, groomer, *_ = stack
        shard.ingest(batch([1234]))
        groomer.groom()
        eq, sorts = defs.key_columns("I1", np.asarray([1234], np.int64))
        got = q.point_lookup(ix, (int(eq["c1"][0]),), (int(sorts["c2"][0]),), 2**62)
        assert got is not None and got["rid_block"] == 0


class TestPostGroomAndEvolve:
    def _run_cycles(self, stack, n_cycles=6, pg_every=3, per=20, update=True):
        hier, ix, shard, groomer, pg, indexer = stack
        for cyc in range(n_cycles):
            lo = 0 if update else cyc * per
            shard.ingest(batch(range(lo, lo + per), seed=cyc))
            groomer.groom()
            if (cyc + 1) % pg_every == 0:
                pg.post_groom(upto_gbid=groomer.next_gbid - 1)
                indexer.poll()
        return stack

    def test_post_groom_publishes_psn(self, stack):
        hier, ix, shard, groomer, pg, indexer = self._run_cycles(stack)
        meta = pg.read_meta()
        assert meta["max_psn"] == 2
        assert meta["ops"]["1"]["gbid_lo"] == 0
        assert meta["ops"]["2"]["gbid_lo"] == meta["ops"]["1"]["gbid_hi"] + 1

    def test_indexer_tracks_psn(self, stack):
        hier, ix, *_ = self._run_cycles(stack)
        assert ix.indexed_psn == 2
        assert len(ix.postgroomed.snapshot()) >= 1

    def test_pg_block_clustered_by_partition_key(self, stack):
        hier, ix, shard, groomer, pg, indexer = self._run_cycles(stack)
        blk = from_parquet_bytes(hier.shared.get(pg_block_key("iot", 1)))
        c2 = blk["c2"].to_numpy()
        assert (np.diff(c2) >= 0).all()  # sorted by partition key

    def test_prev_rid_chains_within_batch(self, stack):
        hier, ix, shard, groomer, pg, indexer = self._run_cycles(stack)
        blk = from_parquet_bytes(hier.shared.get(pg_block_key("iot", 1)))
        # updates=True: every key ingested 3x per pg window → chains exist
        chained = blk[blk["prev_rid_zone"] >= 0]
        assert len(chained) > 0
        # An in-batch prevRID is the groomed-zone RID of the key's older
        # version: (zone 0, groomed block ID, offset in that block).
        groomed = {}
        checked = 0
        for r in chained[chained["prev_rid_zone"] == 0].itertuples():
            gbid = int(r.prev_rid_block)
            if gbid not in groomed:
                groomed[gbid] = from_parquet_bytes(
                    hier.shared.get(groomed_block_key("iot", gbid))
                )
            prev = groomed[gbid].iloc[int(r.prev_rid_off)]
            assert (prev.c1, prev.c2) == (r.c1, r.c2)
            assert prev.begin_ts < r.begin_ts
            checked += 1
        assert checked > 0

    def test_cross_psn_prev_rid_via_pg_index(self, stack):
        hier, ix, shard, groomer, pg, indexer = self._run_cycles(stack)
        blk2 = from_parquet_bytes(hier.shared.get(pg_block_key("iot", 2)))
        # with updates, the oldest in-batch version of an updated key
        # chains back to a PSN-1 record (rid_block == 1)
        cross = blk2[(blk2["prev_rid_zone"] == 1) & (blk2["prev_rid_block"] == 1)]
        assert len(cross) > 0

    def test_end_ts_set_for_replaced_records(self, stack):
        hier, ix, shard, groomer, pg, indexer = self._run_cycles(stack)
        blk1 = from_parquet_bytes(hier.shared.get(pg_block_key("iot", 1)))
        merged = pg.end_ts.apply(blk1)
        closed = merged[merged["end_ts"] != OPEN_END_TS]
        assert len(closed) > 0
        # endTS of a replaced record equals the replacing version's beginTS
        blk2 = from_parquet_bytes(hier.shared.get(pg_block_key("iot", 2)))
        new_ts = set(blk2["begin_ts"].tolist())
        in_batch_ts = set(blk1["begin_ts"].tolist())
        assert all(t in new_ts or t in in_batch_ts for t in closed["end_ts"])

    def test_unified_query_after_full_lifecycle(self, stack):
        hier, ix, shard, groomer, pg, indexer = self._run_cycles(stack)
        # latest version of key 5 must come from the most recent cycle
        eq, sorts = defs.key_columns("I1", np.asarray([5], np.int64))
        got = q.point_lookup(ix, (int(eq["c1"][0]),), (int(sorts["c2"][0]),), 2**62)
        assert got is not None
        assert got["begin_ts"] >> TS_CYCLE_BITS == 6  # last groom cycle

    def test_covered_groomed_runs_gone(self, stack):
        hier, ix, *_ = self._run_cycles(stack)
        assert ix.pg_covered_gbid == 5
        assert all(h.gbid_hi > 5 for h in ix.groomed.snapshot())

    def test_failed_publish_keeps_previous_psn_meta(self, stack, fail_write):
        """psn.json is replaced atomically: a failed second publish leaves
        the first one's metadata."""
        hier, ix, shard, groomer, pg, indexer = self._run_cycles(stack, n_cycles=3)
        assert pg.read_meta()["max_psn"] == 1
        shard.ingest(batch(range(20), seed=9))
        groomer.groom()
        fail_write("meta/psn.json")
        with pytest.raises(OSError, match="injected"):
            pg.post_groom(upto_gbid=groomer.next_gbid - 1)
        assert pg.read_meta()["max_psn"] == 1

    def test_gc_leaves_no_run_directories_behind(self, stack):
        hier, ix, *_ = self._run_cycles(stack)
        assert ix.pg_covered_gbid == 5  # evolve GC ran
        assert max(ix.describe()["levels"]) > 0  # merges ran
        # The runs the index holds, and the persisted ancestors a
        # non-persisted run still needs (§6.1): no tier may hold another.
        runs = [h.run for h in ix.groomed.snapshot() + ix.postgroomed.snapshot()]
        live = {r.run_id for r in runs} | {a for r in runs if r.resident for a in r.ancestors}
        for tier in (hier.ssd, hier.shared):
            assert set(os.listdir(os.path.join(tier.root, "runs"))) <= live
        assert all(hier.shared.exists(f"runs/{r.run_id}/header") for r in runs)

    def test_post_groom_nothing_pending(self, stack):
        hier, ix, shard, groomer, pg, indexer = stack
        assert pg.post_groom(upto_gbid=-1) is None

    def test_missing_groomed_block_raises_before_publish(self, stack):
        """A groomed block in neither the SSD cache nor shared storage
        fails the post-groom; nothing is published, so the evolve keeps
        that block's groomed run and no row is lost."""
        hier, ix, shard, groomer, pg, indexer = stack
        keys = np.arange(60, dtype=np.int64)
        for cyc in range(3):
            shard.ingest(batch(keys[cyc * 20:(cyc + 1) * 20], seed=cyc))
            groomer.groom()
        key = groomed_block_key("iot", 1)
        hier.ssd.delete(key)
        hier.shared.delete(key)
        with pytest.raises(FileNotFoundError):
            pg.post_groom(upto_gbid=groomer.next_gbid - 1)
        assert pg.read_meta()["max_psn"] == 0
        assert pg.last_pg_gbid == -1
        assert indexer.poll() == 0
        assert ix.pg_covered_gbid == -1
        eq, sorts = defs.key_columns("I1", keys)
        got = q.batch_lookup(ix, [eq["c1"]], [sorts["c2"]], 2**62)
        assert len(got["begin_ts"]) == 60

    def test_version_resolution_matches_oracle(self, stack):
        """4 PSNs over keys that recur within and across PSNs. Each
        post-groomed row's prevRID resolves — through the groomed block
        (zone 0) or the post-groomed block (zone 1) — to the same key's
        previous version, and its endTS (after the delta store) is the
        next version's beginTS, or open if there is none."""
        hier, ix, shard, groomer, pg, indexer = stack
        g = np.random.default_rng(7)
        for cyc in range(8):
            shard.ingest(batch(g.integers(0, 40, 25), seed=cyc))
            groomer.groom()
            if cyc % 2 == 1:
                pg.post_groom(upto_gbid=groomer.next_gbid - 1)
                indexer.poll()
        assert pg.max_psn == 4

        def read(key):
            return from_parquet_bytes(hier.shared.get(key))

        pgb = {psn: read(pg_block_key("iot", psn)) for psn in range(1, 5)}
        blocks = {(1, psn): b for psn, b in pgb.items()}
        blocks.update({(0, gbid): read(groomed_block_key("iot", gbid))
                       for gbid in range(groomer.next_gbid)})
        assert sum(len(b) for b in pgb.values()) == 8 * 25

        for psn, blk in pgb.items():
            n = len(blk)
            assert (blk["rid_off"] == np.arange(n)).all()
            assert (blk["rid_zone"] == 1).all() and (blk["rid_block"] == psn).all()
            order = np.lexsort([blk["begin_ts"], blk["c2"]])
            assert (order == np.arange(n)).all()  # clustered by (c2, begin_ts)

        rows = pd.concat(
            [pg.end_ts.apply(b) for b in pgb.values()], ignore_index=True
        ).sort_values(["c1", "c2", "begin_ts"], ignore_index=True)
        checked = 0
        for _, versions in rows.groupby(["c1", "c2"], sort=False):
            ts = versions["begin_ts"].tolist()
            for i, r in enumerate(versions.itertuples()):
                if i == 0:
                    assert (r.prev_rid_zone, r.prev_rid_block, r.prev_rid_off) == (-1, -1, -1)
                else:
                    prev = blocks[(r.prev_rid_zone, r.prev_rid_block)].iloc[r.prev_rid_off]
                    assert (prev.c1, prev.c2, prev.begin_ts) == (r.c1, r.c2, ts[i - 1])
                    checked += 1
                assert r.end_ts == (ts[i + 1] if i + 1 < len(ts) else OPEN_END_TS)
        assert checked > 0
        # Both kinds of chain occur: in-batch and across PSNs.
        assert set(rows.loc[rows["prev_rid_zone"] >= 0, "prev_rid_zone"]) == {0, 1}


    def _restart_after_two_psns(self, stack, tmp_path, before_restart=None):
        """Run 2 PSNs, call ``before_restart`` (if any) on the stack, then
        restart the post-groomer and indexer on the same storage and run a
        third PSN. Returns the restarted post-groomer and a reference
        post-groomer that ran all 3 PSNs without a restart."""
        hier, ix, shard, groomer, pg, indexer = self._run_cycles(stack)
        if before_restart is not None:
            before_restart(stack)
        pg2 = PostGroomer(SCHEMA, ix, hier)
        assert (pg2.max_psn, pg2.last_pg_gbid) == (2, 5)
        indexer2 = Indexer(SCHEMA, ix, hier, pg2)
        for cyc in range(6, 9):
            if groomer.next_gbid <= cyc:
                shard.ingest(batch(range(20), seed=cyc))
                groomer.groom()
        assert pg2.post_groom(upto_gbid=groomer.next_gbid - 1) == 3
        assert indexer2.poll() == 1
        ref = self._run_cycles(make_stack(tmp_path / "ref"), n_cycles=9)[4]
        assert ref.max_psn == 3
        return hier, pg2, ref

    def _assert_same_end_ts(self, hier, pg, ref):
        for psn in range(1, 4):
            raw = hier.shared.get(pg_block_key("iot", psn))
            blk = from_parquet_bytes(raw)
            pd.testing.assert_frame_equal(pg.end_ts.apply(blk), ref.end_ts.apply(blk))
        assert len(pg.end_ts.to_frame()) > 0
        pd.testing.assert_frame_equal(pg.end_ts.to_frame(), ref.end_ts.to_frame())

    def test_restarted_post_groomer_resumes_at_max_psn(self, stack, tmp_path):
        """A fresh PostGroomer on the same storage resumes at the published
        MaxPSN and reloads the published endTS deltas: its third PSN
        succeeds, and its endTS view equals an uninterrupted one's."""
        hier, pg2, ref = self._restart_after_two_psns(stack, tmp_path)
        self._assert_same_end_ts(hier, pg2, ref)
        assert pg2.last_pg_gbid == ref.last_pg_gbid == 8

    def test_restart_deletes_unpublished_psn_files(
        self, stack, tmp_path, fail_write, monkeypatch
    ):
        """A crash between writing PSN 3's block and sidecar and publishing
        it leaves both behind; the restarted post-groomer deletes them and
        writes PSN 3 afresh."""

        def crash_before_publish(stack):
            hier, ix, shard, groomer, pg, indexer = stack
            shard.ingest(batch(range(20), seed=6))
            groomer.groom()
            fail_write("meta/psn.json")
            with pytest.raises(OSError, match="injected"):
                pg.post_groom(upto_gbid=groomer.next_gbid - 1)
            monkeypatch.undo()
            assert hier.shared.exists(pg_block_key("iot", 3))
            assert hier.shared.exists(pg_end_ts_key("iot", 3))

        hier, pg2, ref = self._restart_after_two_psns(
            stack, tmp_path, crash_before_publish
        )
        self._assert_same_end_ts(hier, pg2, ref)
        ref_hier = StorageHierarchy(str(tmp_path / "ref"))
        for key in (pg_block_key("iot", 3), pg_end_ts_key("iot", 3)):
            assert hier.shared.get(key) == ref_hier.shared.get(key)


class TestEndTsStore:
    def test_get_default_open(self):
        s = EndTsStore()
        assert s.get((0, 0, 0)) == OPEN_END_TS

    def test_set_and_apply(self):
        s = EndTsStore()
        s.set_many(np.asarray([1]), np.asarray([2]), np.asarray([3]), np.asarray([42]))
        pdf = pd.DataFrame({
            "rid_zone": [1, 1], "rid_block": [2, 2], "rid_off": [3, 4],
            "end_ts": [OPEN_END_TS, OPEN_END_TS],
        })
        out = s.apply(pdf)
        assert out["end_ts"].tolist() == [42, OPEN_END_TS]

    def test_apply_matches_merge_oracle(self):
        """10K-row block, 1K deltas (900 on its rows, 100 on RIDs it does
        not hold): ``apply`` equals a pandas left merge of the deltas."""
        g = np.random.default_rng(0)
        n = 10_000
        pdf = pd.DataFrame({
            "rid_zone": g.integers(0, 2, n),
            "rid_block": g.integers(0, 40, n),
            "rid_off": np.arange(n),
            "end_ts": np.full(n, OPEN_END_TS),
        }).astype("int64")
        hit = g.choice(n, 900, replace=False)
        deltas = pd.DataFrame({
            "rid_zone": np.concatenate([pdf.rid_zone.values[hit], np.full(100, 1)]),
            "rid_block": np.concatenate([pdf.rid_block.values[hit], np.full(100, 99)]),
            "rid_off": np.concatenate([pdf.rid_off.values[hit], np.arange(100)]),
            "new_ts": g.integers(1, 2**40, 1_000),
        }).astype("int64")
        s = EndTsStore()
        s.set_many(*(deltas[c].to_numpy() for c in deltas.columns))
        out = s.apply(pdf)
        rid = ["rid_zone", "rid_block", "rid_off"]
        m = pdf.merge(deltas, on=rid, how="left")
        want = m.new_ts.fillna(m.end_ts).astype("int64")
        assert out["end_ts"].tolist() == want.tolist()
        assert out[rid].equals(pdf[rid])
        assert (pdf["end_ts"] == OPEN_END_TS).all()  # input left untouched

    def test_to_frame(self):
        s = EndTsStore()
        s.set_many(np.asarray([0]), np.asarray([1]), np.asarray([2]), np.asarray([9]))
        f = s.to_frame()
        assert f.iloc[0].tolist() == [0, 1, 2, 9]


class TestSchemaValidation:
    def test_sharding_key_subset_of_pk(self):
        with pytest.raises(ValueError, match="subset"):
            TableSchema("t", ("a", "b"), ("a",), ("b",), ("a",))

    def test_pk_must_be_user_columns(self):
        with pytest.raises(ValueError, match="primary key"):
            TableSchema("t", ("a",), ("z",), ("z",), ("a",))

    def test_partition_key_must_be_user_columns(self):
        with pytest.raises(ValueError, match="partition key"):
            TableSchema("t", ("a",), ("a",), ("a",), ("z",))
