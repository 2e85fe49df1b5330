"""Groomer — live zone → groomed zone (paper §2.1, every ~second).

A groom operation merges the shard's committed log in commit order,
assigns each record a **monotonically increasing beginTS** whose high
bits are the groom cycle and low bits the commit sequence (the paper:
"the commit time of transactions is effectively postponed to the groom
time"), writes one Parquet **groomed block** to shared storage (cached on
the local SSD), and builds a level-0 index run over it (§5.2). The block
goes from the drained log to Parquet and to the run build as plain numpy
columns.
"""
from __future__ import annotations

import numpy as np

from repro.core.index import UmziIndex
from repro.core.run import GROOMED, IndexRun
from repro.storage.tiers import StorageHierarchy
from repro.wildfire.records import OPEN_END_TS, to_parquet_bytes
from repro.wildfire.shard import TableShard

# beginTS = cycle << TS_CYCLE_BITS | commit-order sequence within the cycle.
TS_CYCLE_BITS = 20


def groomed_block_key(table: str, gbid: int) -> str:
    return f"tables/{table}/groomed/{gbid:08d}.parquet"


class Groomer:
    """The shard's designated groomer process."""

    def __init__(
        self,
        shard: TableShard,
        index: UmziIndex,
        hierarchy: StorageHierarchy,
    ):
        self.shard = shard
        self.index = index
        self.h = hierarchy
        self.cycle = 0
        self.next_gbid = 0

    def groom(self) -> int | None:
        """One groom cycle; returns the new groomed block ID (None if the
        live zone was empty)."""
        schema = self.shard.schema
        pending = self.shard.drain()
        self.cycle += 1
        n = len(pending["_commit_seq"])
        if n == 0:
            return None
        gbid = self.next_gbid
        self.next_gbid += 1

        # The block travels as numpy columns: the user columns in schema
        # order, then the hidden ones (§2.1).
        block = {c: pending[c] for c in schema.columns}
        block["begin_ts"] = (np.int64(self.cycle) << TS_CYCLE_BITS) + np.arange(
            n, dtype=np.int64
        )
        block["end_ts"] = np.full(n, OPEN_END_TS, dtype=np.int64)
        block["prev_rid_zone"] = np.full(n, -1, dtype=np.int64)
        block["prev_rid_block"] = np.full(n, -1, dtype=np.int64)
        block["prev_rid_off"] = np.full(n, -1, dtype=np.int64)
        block["rid_zone"] = np.zeros(n, dtype=np.int64)
        block["rid_block"] = np.full(n, gbid, dtype=np.int64)
        block["rid_off"] = np.arange(n, dtype=np.int64)

        data = to_parquet_bytes(block)
        self.h.shared.put(groomed_block_key(schema.name, gbid), data)
        # Groomed blocks are also cached in the node's local SSD (§2.1).
        self.h.ssd.put(groomed_block_key(schema.name, gbid), data)
        # The rows are durable on shared storage: their live log can go.
        self.shard.truncate_log(pending["_commit_seq"])

        run = self._build_run(block, gbid)
        self.index.add_groomed_run(run)
        self.index.maintain()
        return gbid

    def _build_run(self, block: dict[str, np.ndarray], gbid: int) -> IndexRun:
        spec = self.index.spec
        return IndexRun.build(
            spec,
            zone=GROOMED,
            level=0,
            gbid_lo=gbid,
            gbid_hi=gbid,
            eq={c: block[c] for c in spec.eq_cols},
            sorts={c: block[c] for c in spec.sort_cols},
            begin_ts=block["begin_ts"],
            rid_zone=block["rid_zone"],
            rid_block=block["rid_block"],
            rid_off=block["rid_off"],
            includes={c: block[c] for c in spec.include_cols},
        )
