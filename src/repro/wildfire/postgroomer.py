"""Post-groomer + indexer — groomed zone → post-groomed zone (§2.1, §5.4).

A post-groom operation (every ~10 min in the paper; every N groom cycles
here):

1. reads the groomed blocks produced since the last post-groom;
2. uses the **post-groomed portion of the index** to collect the RIDs of
   already-post-groomed records being replaced, sets ``prevRID`` on the
   new records and ``endTS`` on the replaced ones (version chains inside
   the batch are resolved locally first);
3. re-organizes the records by the analytics-friendly **partition key**
   into one larger post-groomed Parquet block, and
4. publishes the operation's metadata under a fresh **PSN** and bumps
   MaxPSN.

The **indexer** is a separate loosely-coupled process (here: object) that
polls MaxPSN and, while ``IndexedPSN < MaxPSN``, performs one index
evolve operation per PSN in order (Fig. 5).

The re-organization (step 3) has two interchangeable engines: a Spark
DataFrame job (``spark=`` given — repartition/sort by partition key, the
genuinely Spark-shaped bulk path) and a pandas fast path with identical
semantics for per-cycle unit tests; a test asserts block-level equality.
"""
from __future__ import annotations

import glob
import json
import os
import shutil
import tempfile

import numpy as np
import pandas as pd

from repro.core import query as q
from repro.core.index import UmziIndex
from repro.core.run import POSTGROOMED, IndexRun
from repro.storage.tiers import StorageHierarchy
from repro.wildfire.records import (
    EndTsStore,
    TableSchema,
    from_parquet_bytes,
    to_parquet_bytes,
)
from repro.wildfire.groomer import groomed_block_key


def pg_block_key(table: str, psn: int) -> str:
    return f"tables/{table}/postgroomed/{psn:06d}.parquet"


def psn_meta_key(table: str) -> str:
    return f"tables/{table}/meta/psn.json"


class PostGroomer:
    """The shard's post-groomer process (runs on a different node than the
    indexer in the paper — hence PSN-mediated coordination only)."""

    def __init__(
        self,
        schema: TableSchema,
        index: UmziIndex,
        hierarchy: StorageHierarchy,
        end_ts_store: EndTsStore | None = None,
    ):
        self.schema = schema
        self.index = index  # used read-only: PG-portion lookups (§2.1)
        self.h = hierarchy
        self.end_ts = end_ts_store or EndTsStore()
        self.max_psn = 0
        self.last_pg_gbid = -1

    # ----------------------------------------------------------------- meta
    def _publish(self, psn: int, gbid_lo: int, gbid_hi: int, n_rows: int) -> None:
        key = psn_meta_key(self.schema.name)
        meta = self.read_meta()
        meta["max_psn"] = psn
        meta["ops"][str(psn)] = {
            "gbid_lo": gbid_lo,
            "gbid_hi": gbid_hi,
            "n_rows": n_rows,
        }
        self.h.shared.overwrite(key, json.dumps(meta).encode())

    def read_meta(self) -> dict:
        key = psn_meta_key(self.schema.name)
        if self.h.shared.exists(key):
            return json.loads(self.h.shared.get(key))
        return {"max_psn": 0, "ops": {}}

    # ------------------------------------------------------------ post-groom
    def post_groom(self, upto_gbid: int, spark=None) -> int | None:
        """One post-groom operation over groomed blocks
        (last_pg_gbid, upto_gbid]; returns the new PSN (None if empty)."""
        lo, hi = self.last_pg_gbid + 1, upto_gbid
        frames = []
        for gbid in range(lo, hi + 1):
            key = groomed_block_key(self.schema.name, gbid)
            if self.h.ssd.exists(key):  # cached copy preferred
                frames.append(from_parquet_bytes(self.h.ssd.get(key)))
            elif self.h.shared.exists(key):
                frames.append(from_parquet_bytes(self.h.shared.get(key)))
        if not frames:
            return None
        batch = pd.concat(frames, ignore_index=True)
        psn = self.max_psn + 1

        block = self._resolve_versions(batch, psn)
        block = self._reorganize(block, spark)
        # Partition-key clustering done; assign the post-groomed RIDs.
        n = len(block)
        block = block.reset_index(drop=True)
        block["rid_zone"] = np.int64(1)
        block["rid_block"] = np.int64(psn)
        block["rid_off"] = np.arange(n, dtype=np.int64)

        self.h.shared.put(pg_block_key(self.schema.name, psn), to_parquet_bytes(block))
        self._publish(psn, lo, hi, n)
        self.max_psn = psn
        self.last_pg_gbid = hi
        return psn

    def _resolve_versions(self, batch: pd.DataFrame, psn: int) -> pd.DataFrame:
        """Set prevRID chains and endTS (§2.1).

        Inside the batch, versions of one primary key chain to each other
        in beginTS order. The oldest in-batch version of each key chains
        to the latest already-post-groomed version, found via the
        **post-groomed portion** of the index; that old record's endTS is
        set (append-only delta) to the new version's beginTS.
        """
        pk = list(self.schema.primary_key)
        batch = batch.sort_values(pk + ["begin_ts"], kind="stable").reset_index(
            drop=True
        )
        same_key = np.ones(len(batch) - 1, dtype=bool) if len(batch) > 1 else np.zeros(0, bool)
        for c in pk:
            v = batch[c].to_numpy()
            same_key &= v[1:] == v[:-1]
        # In-batch chains: row i-1 is the previous version of row i.
        for zc, src in (
            ("prev_rid_zone", "rid_zone"),
            ("prev_rid_block", "rid_block"),
            ("prev_rid_off", "rid_off"),
        ):
            col = batch[zc].to_numpy().copy()
            col[1:][same_key] = batch[src].to_numpy()[:-1][same_key]
            batch[zc] = col
        ets = batch["end_ts"].to_numpy().copy()
        ets[:-1][same_key] = batch["begin_ts"].to_numpy()[1:][same_key]
        batch["end_ts"] = ets

        # Batch-oldest versions: consult the PG index portion for the
        # previous post-groomed version of each key.
        oldest_mask = np.ones(len(batch), dtype=bool)
        oldest_mask[1:] = ~same_key
        oldest = batch[oldest_mask]
        spec = self.index.spec
        pg_runs = self.index.postgroomed.snapshot()
        if len(oldest) and pg_runs:
            eq_probes = [oldest[c].to_numpy() for c in spec.eq_cols]
            sort_probes = [oldest[c].to_numpy() for c in spec.sort_cols]
            prev = q.batch_lookup(
                self.index, eq_probes, sort_probes, int(2**62), runs=pg_runs
            )
            if len(prev["begin_ts"]):
                kcols = list(spec.eq_cols + spec.sort_cols)
                prev_df = pd.DataFrame({c: prev[c] for c in kcols + [
                    "rid_zone", "rid_block", "rid_off", "begin_ts"
                ]}).rename(
                    columns={
                        "rid_zone": "_pz",
                        "rid_block": "_pb",
                        "rid_off": "_po",
                        "begin_ts": "_pts",
                    }
                )
                merged = batch.merge(prev_df, on=kcols, how="left")
                hit = oldest_mask & merged["_pts"].notna().to_numpy()
                for dst, srcc in (
                    ("prev_rid_zone", "_pz"),
                    ("prev_rid_block", "_pb"),
                    ("prev_rid_off", "_po"),
                ):
                    col = batch[dst].to_numpy().copy()
                    col[hit] = merged.loc[hit, srcc].to_numpy().astype(np.int64)
                    batch[dst] = col
                # endTS of the replaced post-groomed records (delta store).
                if hit.any():
                    self.end_ts.set_many(
                        merged.loc[hit, "_pz"].to_numpy(),
                        merged.loc[hit, "_pb"].to_numpy(),
                        merged.loc[hit, "_po"].to_numpy(),
                        batch.loc[hit, "begin_ts"].to_numpy(),
                    )
        return batch

    def _reorganize(self, block: pd.DataFrame, spark) -> pd.DataFrame:
        """Cluster by the partition key (+ beginTS) — the OLAP-friendly
        layout. Spark path: DataFrame repartition-by-range + sort."""
        part = list(self.schema.partition_key)
        if spark is None:
            return block.sort_values(part + ["begin_ts"], kind="stable")
        sdf = spark.createDataFrame(block)
        out = (
            sdf.repartitionByRange(4, *part)
            .sortWithinPartitions(*part, "begin_ts")
        )
        staging = tempfile.mkdtemp(prefix="pgstage-")
        try:
            out.write.mode("overwrite").parquet(staging)
            files = sorted(glob.glob(os.path.join(staging, "part-*.parquet")))
            pdfs = [pd.read_parquet(f) for f in files]
            merged = pd.concat(pdfs, ignore_index=True)
            # Partition files come back range-ordered; restore a total
            # order identical to the pandas path for block determinism.
            return merged.sort_values(part + ["begin_ts"], kind="stable")[
                block.columns
            ]
        finally:
            shutil.rmtree(staging, ignore_errors=True)


class Indexer:
    """The indexer daemon: polls MaxPSN, evolves the index in PSN order
    (Fig. 5). IndexedPSN lives on the index and is persisted with it."""

    def __init__(
        self,
        schema: TableSchema,
        index: UmziIndex,
        hierarchy: StorageHierarchy,
        postgroomer: PostGroomer,
    ):
        self.schema = schema
        self.index = index
        self.h = hierarchy
        self.pg = postgroomer

    def poll(self) -> int:
        """Evolve once per pending PSN; returns #evolves performed."""
        done = 0
        meta = self.pg.read_meta()
        while self.index.indexed_psn < meta["max_psn"]:
            psn = self.index.indexed_psn + 1
            op = meta["ops"][str(psn)]
            block = from_parquet_bytes(
                self.h.shared.get(pg_block_key(self.schema.name, psn))
            )
            run = self._build_pg_run(block, op)
            self.index.evolve(run, psn=psn)
            self.index.maintain()
            done += 1
        return done

    def _build_pg_run(self, block: pd.DataFrame, op: dict) -> IndexRun:
        spec = self.index.spec
        return IndexRun.build(
            spec,
            zone=POSTGROOMED,
            level=self.index.config.pg_min_level,
            gbid_lo=op["gbid_lo"],
            gbid_hi=op["gbid_hi"],
            eq={c: block[c].to_numpy() for c in spec.eq_cols},
            sorts={c: block[c].to_numpy() for c in spec.sort_cols},
            begin_ts=block["begin_ts"].to_numpy(),
            rid_zone=block["rid_zone"].to_numpy(),
            rid_block=block["rid_block"].to_numpy(),
            rid_off=block["rid_off"].to_numpy(),
            includes={c: block[c].to_numpy() for c in spec.include_cols},
        )
