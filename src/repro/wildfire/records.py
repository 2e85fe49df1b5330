"""Record schema, hidden columns and RIDs — paper §2.1.

Every Wildfire table carries three hidden columns: ``beginTS`` (set by
the groomer — commit time is effectively postponed to groom time),
``endTS`` (set when a newer version of the same primary key is
post-groomed) and ``prevRID`` (the RID of the previous version).

An RID is (zone, block ID, record offset) — footnote 2 of the paper —
and *changes* when a record evolves between zones, which is exactly why
Umzi needs the evolve operation. Blocks and index results carry it as
three int64 columns (``rid_zone``, ``rid_block``, ``rid_off``); an index
entry stores it as one packed uint64 field — zone in bit 63, block ID in
39 bits, offset in the low 24 bits (:func:`repro.core.run.pack_rid`).

``endTS`` substitution note (DESIGN.md §2): shared storage forbids
in-place updates, so endTS/prevRID "updates" to already-written blocks
are append-only sidecar deltas that readers merge — the same mechanism
an append-only store must use. Each post-groom writes its deltas as one
sidecar beside its block; :class:`EndTsStore` is their merged view.
"""
from __future__ import annotations

import io
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

# endTS sentinel for "still current" (int64, far future).
OPEN_END_TS = np.int64(2**62)
NULL_RID = (-1, -1, -1)


@dataclass(frozen=True)
class TableSchema:
    """User schema + key roles (paper §2.1).

    ``primary_key`` = equality identity for upserts; ``sharding_key`` ⊆
    primary key (single shard here, recorded for fidelity);
    ``partition_key`` drives the post-groomed re-organization.
    """

    name: str
    columns: tuple[str, ...]  # user columns, all int64 in the experiments
    primary_key: tuple[str, ...]
    sharding_key: tuple[str, ...]
    partition_key: tuple[str, ...]

    def __post_init__(self):
        if not set(self.primary_key) <= set(self.columns):
            raise ValueError("primary key must be user columns")
        if not set(self.sharding_key) <= set(self.primary_key):
            raise ValueError("sharding key must be a subset of the primary key")
        if not set(self.partition_key) <= set(self.columns):
            raise ValueError("partition key must be user columns")


def to_parquet_bytes(columns: Mapping[str, ArrayLike]) -> bytes:
    """Encode named 1-D columns (a dict of arrays or a DataFrame), in their
    order, as one Parquet file without dictionary pages.

    Block columns are mostly keys, timestamps and RIDs with thousands of
    distinct values per block, where dictionary encoding costs time and
    rarely saves space.
    """
    table = pa.table({c: np.asarray(columns[c]) for c in columns})
    buf = io.BytesIO()
    pq.write_table(table, buf, use_dictionary=False)
    return buf.getvalue()


def read_columns(
    data: bytes, columns: Sequence[str] | None = None
) -> dict[str, np.ndarray]:
    """Decode a Parquet block into named numpy columns, in file order, or
    only ``columns``, in that order. Arrays may be read-only views of the
    decoded Arrow buffers.
    """
    table = pq.ParquetFile(pa.BufferReader(data)).read(columns=columns)
    return {c: table.column(c).to_numpy() for c in table.column_names}


def from_parquet_bytes(data: bytes) -> pd.DataFrame:
    """A Parquet block as a DataFrame."""
    return pd.DataFrame(read_columns(data))


def _ints(col) -> list[int]:
    """A column as a list of Python ints, converted in one pass."""
    return np.asarray(col, dtype=np.int64).tolist()


@dataclass
class EndTsStore:
    """Append-only endTS delta log, merged at read time.

    Maps RID → endTS for records that have been replaced; records absent
    here are current (endTS = OPEN_END_TS).
    """

    _d: dict[tuple[int, int, int], int] = field(default_factory=dict)

    def set_many(
        self,
        rid_zone: np.ndarray,
        rid_block: np.ndarray,
        rid_off: np.ndarray,
        end_ts: np.ndarray,
    ) -> None:
        rids = zip(*(_ints(c) for c in (rid_zone, rid_block, rid_off)))
        self._d.update(zip(rids, _ints(end_ts)))

    def get(self, rid: tuple[int, int, int]) -> int:
        return self._d.get(rid, int(OPEN_END_TS))

    def apply(self, pdf: pd.DataFrame) -> pd.DataFrame:
        """Merge deltas into a block's end_ts column (read-side view)."""
        if len(pdf) == 0 or not self._d:
            return pdf
        out = pdf.copy()
        rids = zip(*(_ints(out[c]) for c in ("rid_zone", "rid_block", "rid_off")))
        d = self._d
        ets = [d.get(k, t) for k, t in zip(rids, _ints(out["end_ts"]))]
        out["end_ts"] = np.asarray(ets, dtype=np.int64)
        return out

    def to_frame(self) -> pd.DataFrame:
        rows = [(z, b, o, t) for (z, b, o), t in self._d.items()]
        return pd.DataFrame(
            rows, columns=["rid_zone", "rid_block", "rid_off", "end_ts"]
        ).astype("int64")
