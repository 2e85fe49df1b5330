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

The endTS deltas of step 2 go to an append-only sidecar beside the PSN's
block, written before the publish. A restarted post-groomer resumes from
the published PSN metadata: it reloads the sidecars of published PSNs in
order and deletes the files of a PSN that was written but never published.

The **indexer** is a separate loosely-coupled process (here: object) that
polls MaxPSN and, while ``IndexedPSN < MaxPSN``, performs one index
evolve operation per PSN in order (Fig. 5).

The batch travels as plain numpy columns: the groomed blocks' columns are
concatenated, sorted once by primary key + beginTS to resolve versions,
and once by partition key + beginTS to write the block; the indexer reads
back only the index's columns of that block to build the post-groomed run.
"""
from __future__ import annotations

import json

import numpy as np

from repro.core import query as q
from repro.core.index import UmziIndex
from repro.core.run import POSTGROOMED, IndexRun
from repro.storage.tiers import StorageHierarchy
from repro.wildfire.records import (
    EndTsStore,
    TableSchema,
    read_columns,
    to_parquet_bytes,
)
from repro.wildfire.groomer import groomed_block_key


# Each prevRID column and the RID column it takes its value from.
_PREV_RID = (
    ("prev_rid_zone", "rid_zone"),
    ("prev_rid_block", "rid_block"),
    ("prev_rid_off", "rid_off"),
)


# The columns of an endTS-delta sidecar.
_END_TS_DELTA = ("rid_zone", "rid_block", "rid_off", "end_ts")


def pg_block_key(table: str, psn: int) -> str:
    return f"tables/{table}/postgroomed/{psn:06d}.parquet"


def pg_end_ts_key(table: str, psn: int) -> str:
    """The endTS-delta sidecar of post-groom ``psn`` (the replaced
    post-groomed records' RIDs and their new endTS)."""
    return f"tables/{table}/postgroomed/{psn:06d}.end_ts.parquet"


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
    ):
        self.schema = schema
        self.index = index  # used read-only: PG-portion lookups (§2.1)
        self.h = hierarchy
        self.end_ts = EndTsStore()
        self._resume()

    def _resume(self) -> None:
        """Pick up where the published PSN metadata left off: MaxPSN, the
        last post-groomed gbid and every published PSN's endTS deltas, in
        PSN order. A crash between writing PSN MaxPSN + 1's files and
        publishing it leaves them behind; they are deleted."""
        meta = self.read_meta()
        self.max_psn = meta["max_psn"]
        self.last_pg_gbid = (
            meta["ops"][str(self.max_psn)]["gbid_hi"] if self.max_psn else -1
        )
        name, unpublished = self.schema.name, self.max_psn + 1
        for key in (pg_block_key(name, unpublished), pg_end_ts_key(name, unpublished)):
            self.h.shared.delete(key)
        for psn in range(1, self.max_psn + 1):
            d = read_columns(self.h.shared.get(pg_end_ts_key(name, psn)))
            self.end_ts.set_many(*(d[c] for c in _END_TS_DELTA))

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
    def post_groom(self, upto_gbid: int) -> int | None:
        """One post-groom operation over groomed blocks
        (last_pg_gbid, upto_gbid]; returns the new PSN (None if no block
        is pending).

        Raises ``FileNotFoundError``, before anything is published, if a
        groomed block is in neither the SSD cache nor shared storage.
        """
        lo, hi = self.last_pg_gbid + 1, upto_gbid
        if lo > hi:
            return None
        blocks = [
            read_columns(self._read_groomed(gbid)) for gbid in range(lo, hi + 1)
        ]
        # One column at a time, so each block's copy is freed as it is joined.
        batch = {
            c: np.concatenate([b.pop(c) for b in blocks]) for c in list(blocks[0])
        }
        del blocks
        psn = self.max_psn + 1

        deltas = self._resolve_versions(batch)
        # Cluster by the partition key (+ beginTS), then assign the
        # post-groomed RIDs in that order.
        _sort_by(batch, list(self.schema.partition_key) + ["begin_ts"])
        n = len(batch["begin_ts"])
        batch["rid_zone"] = np.ones(n, dtype=np.int64)
        batch["rid_block"] = np.full(n, psn, dtype=np.int64)
        batch["rid_off"] = np.arange(n, dtype=np.int64)

        self.h.shared.put(pg_block_key(self.schema.name, psn), to_parquet_bytes(batch))
        self.h.shared.put(pg_end_ts_key(self.schema.name, psn), to_parquet_bytes(deltas))
        self._publish(psn, lo, hi, n)
        self.end_ts.set_many(*(deltas[c] for c in _END_TS_DELTA))
        self.max_psn = psn
        self.last_pg_gbid = hi
        return psn

    def _read_groomed(self, gbid: int) -> bytes:
        """A groomed block's bytes, from the SSD cache if it holds a copy,
        else from shared storage."""
        key = groomed_block_key(self.schema.name, gbid)
        try:
            return self.h.ssd.get(key)
        except FileNotFoundError:
            return self.h.shared.get(key)

    def _resolve_versions(self, batch: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Set prevRID chains and endTS (§2.1), in place; leaves ``batch``
        ordered by primary key + beginTS.

        Inside the batch, versions of one primary key chain to each other
        in beginTS order. The oldest in-batch version of each key chains
        to the latest already-post-groomed version, found via the
        **post-groomed portion** of the index; that old record's endTS
        becomes the new version's beginTS. Returns those endTS deltas as
        the columns ``rid_zone``, ``rid_block``, ``rid_off``, ``end_ts``.
        """
        pk = list(self.schema.primary_key)
        _sort_by(batch, pk + ["begin_ts"])
        same_key = np.ones(len(batch["begin_ts"]) - 1, dtype=bool)
        for c in pk:
            v = batch[c]
            same_key &= v[1:] == v[:-1]
        # In-batch chains: row i-1 is the previous version of row i.
        for dst, src in _PREV_RID:
            batch[dst][1:][same_key] = batch[src][:-1][same_key]
        batch["end_ts"][:-1][same_key] = batch["begin_ts"][1:][same_key]

        # Batch-oldest versions — one per key, in key order: consult the
        # PG index portion for the previous post-groomed version of each.
        oldest = np.flatnonzero(np.r_[True, ~same_key])
        spec = self.index.spec
        none = np.empty(0, np.int64)
        with self.index.query_snapshot() as snap:
            pg_runs = [h for h in snap.runs if h.run.zone == POSTGROOMED]
            if not pg_runs:
                return dict.fromkeys(_END_TS_DELTA, none)
            prev = q.batch_lookup(
                self.index,
                [batch[c][oldest] for c in spec.eq_cols],
                [batch[c][oldest] for c in spec.sort_cols],
                int(2**62),
                runs=pg_runs,
            )
        if not len(prev["begin_ts"]):
            return dict.fromkeys(_END_TS_DELTA, none)
        hit, found = _join_found(oldest, batch, prev, spec.key_cols)
        for dst, src in _PREV_RID:
            batch[dst][hit] = prev[src][found]
        # endTS of the replaced post-groomed records (delta store).
        return {
            "rid_zone": prev["rid_zone"][found],
            "rid_block": prev["rid_block"][found],
            "rid_off": prev["rid_off"][found],
            "end_ts": batch["begin_ts"][hit],
        }


def _sort_by(batch: dict[str, np.ndarray], cols: list[str]) -> None:
    """Stable-sort the rows of ``batch`` by ``cols``, in place. Columns are
    reordered one at a time, so only one exists in both orders at once."""
    perm = np.lexsort([batch[c] for c in reversed(cols)])
    for c in batch:
        batch[c] = batch[c][perm]


def _join_found(
    rows: np.ndarray,
    batch: dict[str, np.ndarray],
    found: dict[str, np.ndarray],
    key_cols: tuple[str, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Match each ``found`` row to the batch row in ``rows`` with its key.

    The keys of ``rows`` are distinct and ``found`` holds a subset of them,
    each once. One stable sort of both key lists, batch rows first, puts
    every found row right after its batch row. Returns (batch rows, found
    rows), paired, in batch order.
    """
    n = len(rows)
    keys = [np.concatenate([batch[c][rows], found[c]]) for c in key_cols]
    order = np.lexsort(keys[::-1])
    at = np.flatnonzero(order >= n)
    hit, src = rows[order[at - 1]], order[at] - n
    by_row = np.argsort(hit, kind="stable")
    return hit[by_row], src[by_row]


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
            run = self._build_pg_run(psn, meta["ops"][str(psn)])
            self.index.evolve(run, psn=psn)
            self.index.maintain()
            done += 1
        return done

    def _build_pg_run(self, psn: int, op: dict) -> IndexRun:
        """The PSN's post-groomed run, built from the index's columns of
        its block on shared storage."""
        spec = self.index.spec
        block = read_columns(
            self.h.shared.get(pg_block_key(self.schema.name, psn)),
            columns=list(spec.key_cols + spec.include_cols)
            + ["begin_ts", "rid_zone", "rid_block", "rid_off"],
        )
        return IndexRun.build(
            spec,
            zone=POSTGROOMED,
            level=self.index.config.pg_min_level,
            gbid_lo=op["gbid_lo"],
            gbid_hi=op["gbid_hi"],
            eq={c: block[c] for c in spec.eq_cols},
            sorts={c: block[c] for c in spec.sort_cols},
            begin_ts=block["begin_ts"],
            rid_zone=block["rid_zone"],
            rid_block=block["rid_block"],
            rid_off=block["rid_off"],
            includes={c: block[c] for c in spec.include_cols},
        )
