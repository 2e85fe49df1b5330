"""Live zone: the committed transaction log of one table shard (§2.1).

Transactions append their side-logs on commit; the committed log is kept
in memory for fast access and persisted to the local SSD tier in Parquet
(as in the paper). The live zone is *not indexed* (§3) — it is small
because the groomer drains it every cycle — so full-freshness reads scan
it directly. Once a groom has made the drained rows durable in a groomed
block on shared storage, their SSD log files are deleted.

A log batch is a dict of numpy columns: the schema columns plus
``_commit_seq``.
"""
from __future__ import annotations

import threading

import numpy as np
import pandas as pd

from repro.storage.tiers import StorageHierarchy
from repro.wildfire.records import TableSchema, to_parquet_bytes


class TableShard:
    """One shard: committed-log intake + drain point for the groomer."""

    def __init__(
        self,
        schema: TableSchema,
        hierarchy: StorageHierarchy | None = None,
    ):
        self.schema = schema
        self.h = hierarchy
        self._log: list[dict[str, np.ndarray]] = []
        self._commit_seq = 0
        self._lock = threading.Lock()

    def _log_key(self, seq: int) -> str:
        return f"livelog/{self.schema.name}/{seq:010d}.parquet"

    def ingest(self, pdf: pd.DataFrame) -> int:
        """Commit one transaction's upserts (last-writer-wins, §2.1).

        Returns the commit sequence number (the shard-replica commit time
        that becomes the low-order part of beginTS at groom time).
        """
        missing = set(self.schema.columns) - set(pdf.columns)
        if missing:
            raise ValueError(f"missing columns: {missing}")
        batch = {c: pdf[c].to_numpy(copy=True) for c in self.schema.columns}
        with self._lock:
            # Appended under the lock that assigns the sequence number, so
            # the log's list order is commit order.
            seq = self._commit_seq
            self._commit_seq += 1
            batch["_commit_seq"] = np.full(len(pdf), seq, dtype=np.int64)
            self._log.append(batch)
        if self.h is not None:
            # Persist the committed log on local SSD (Parquet, §2.1).
            self.h.ssd.put(self._log_key(seq), to_parquet_bytes(batch))
        return seq

    def _concat(self, batches: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
        names = list(self.schema.columns) + ["_commit_seq"]
        if not batches:
            return {c: np.empty(0, dtype=np.int64) for c in names}
        return {c: np.concatenate([b[c] for b in batches]) for c in names}

    def drain(self) -> dict[str, np.ndarray]:
        """Hand the pending committed log to the groomer, in commit order."""
        with self._lock:
            batches, self._log = self._log, []
        return self._concat(batches)

    def truncate_log(self, commit_seq: np.ndarray) -> None:
        """Delete the SSD log files of the given commits (call once their
        rows are durable in a groomed block on shared storage)."""
        if self.h is None:
            return
        for seq in np.unique(commit_seq).tolist():
            self.h.ssd.delete(self._log_key(seq))

    def scan_live(self) -> pd.DataFrame:
        """Read the not-yet-groomed data (full-freshness queries)."""
        with self._lock:
            batches = list(self._log)
        return pd.DataFrame(self._concat(batches))

    def live_size(self) -> int:
        with self._lock:
            return sum(len(b["_commit_seq"]) for b in self._log)
