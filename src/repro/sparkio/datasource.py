"""``umzi`` DataSource V2 — DataFrame scans over the unified index.

The reader's life cycle (driver side):

1. ``pushFilters`` receives Catalyst-pushed predicates; equality/range
   filters on key columns are remembered for **data skipping** and all
   filters are reported back as unhandled so Spark re-applies them
   (skipping is an optimization, never a correctness dependency);
2. ``partitions`` plans the persisted runs with ``recovery.plan_runs`` —
   the same §5.4/§5.5 reading of shared storage that crash recovery uses
   (state before run lists, incomplete and already-merged runs left out,
   newest first per zone) — then ignores groomed runs fully covered by
   the post-groomed list (§5.4), prunes runs whose synopsis cannot match
   the pushed filters, and emits one input partition per surviving run.
   It never deletes anything;
3. ``read`` (executor side) reads that run from its header and shared
   storage through the run's one source (``IndexRun.source``): a search
   that reads only the blocks it touches if every equality column is
   pushed, else every block once, as a merge reads its inputs, decoded
   from the source's arrays in place. It yields Arrow record
   batches of decoded index entries tagged with ``_run_rank`` (recency
   rank) for reconciliation in ``scan.unified_view``.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np
import pyarrow as pa
from pyspark.sql.datasource import (
    DataSource,
    DataSourceReader,
    EqualTo,
    GreaterThan,
    GreaterThanOrEqual,
    InputPartition,
    LessThan,
    LessThanOrEqual,
)
from pyspark.sql.types import LongType, StructField, StructType

from repro.core.recovery import plan_runs, read_block
from repro.core.run import GROOMED, POSTGROOMED, IndexRun, IndexSpec, synopsis_overlaps
from repro.storage.tiers import SHARED_LATENCY, DirTier, IOStats


@dataclass
class _RunPartition(InputPartition):
    header: dict
    rank: int
    eq_values: dict  # pushed equality constraints col -> value


def _shared(root: str) -> DirTier:
    """The index's shared storage, opened where the reader runs. The
    reader only reads: a missing ``root`` raises rather than being made."""
    if not os.path.isdir(root):
        raise FileNotFoundError(f"no index shared storage at {root!r}")
    return DirTier("shared", root, IOStats(), SHARED_LATENCY)


class UmziDataSource(DataSource):
    """Spark-facing entry point. Options:

    * ``path`` — the *shared storage* directory of the index
      (``StorageHierarchy.shared.root``);
    * ``query_ts`` — snapshot timestamp. ``unified_view`` enforces
      visibility across runs. With every equality column pushed, the
      reader's ``run.search`` also keeps, within each run, only the
      newest version of each key visible at ``query_ts``; an unfiltered
      read returns every entry of the run.
    """

    @classmethod
    def name(cls) -> str:
        return "umzi"

    def schema(self) -> StructType:
        keep = plan_runs(_shared(self.options["path"])).keep
        headers = keep[GROOMED] + keep[POSTGROOMED]
        if not headers:
            raise ValueError(f"no index runs under {self.options['path']!r}")
        cols = IndexSpec.from_json(headers[0]["spec"]).result_cols + ("_run_rank",)
        return StructType([StructField(c, LongType(), False) for c in cols])

    def reader(self, schema: StructType) -> "UmziReader":
        return UmziReader(
            self.options["path"],
            schema,
            query_ts=int(self.options.get("query_ts", 2**62)),
        )


class UmziReader(DataSourceReader):
    def __init__(self, root: str, schema: StructType, query_ts: int = 2**62):
        self.root = root
        self.schema = schema
        self.query_ts = query_ts
        self.eq_filters: dict[str, int] = {}
        self.lo_filters: dict[str, int] = {}
        self.hi_filters: dict[str, int] = {}
        self.skipped_runs = 0  # observable data-skipping effect (tests)

    # ------------------------------------------------------------- pushdown
    def pushFilters(self, filters):
        """Record usable filters for skipping; hand everything back to
        Spark (we never claim to fully evaluate a predicate)."""
        for f in filters:
            col = f.attribute[-1] if hasattr(f, "attribute") else None
            if isinstance(f, EqualTo) and isinstance(f.value, int):
                self.eq_filters[col] = f.value
            elif isinstance(f, (GreaterThan, GreaterThanOrEqual)) and isinstance(
                f.value, int
            ):
                self.lo_filters[col] = f.value
            elif isinstance(f, (LessThan, LessThanOrEqual)) and isinstance(
                f.value, int
            ):
                self.hi_filters[col] = f.value
            yield f  # unsupported → Spark re-applies (correctness)

    # ------------------------------------------------------------ partitions
    def partitions(self):
        plan = plan_runs(_shared(self.root))
        covered = plan.state["pg_covered_gbid"]
        # §5.4 visibility: ignore groomed runs fully covered by the PG list.
        visible = [h for h in plan.keep[GROOMED] if h["gbid_hi"] > covered]
        # Run-level data skipping with the pushed filters (§4.2).
        bounds = (
            [(c, v, v) for c, v in self.eq_filters.items()]
            + [(c, v, None) for c, v in self.lo_filters.items()]
            + [(c, None, v) for c, v in self.hi_filters.items()]
        )
        parts = []
        for h in visible + plan.keep[POSTGROOMED]:
            if not synopsis_overlaps(h["synopsis"], bounds):
                self.skipped_runs += 1
                continue
            parts.append(_RunPartition(header=h, rank=len(parts), eq_values=dict(self.eq_filters)))
        return parts

    # ------------------------------------------------------------------ read
    def read(self, partition: _RunPartition):
        run = IndexRun.from_header(partition.header)
        src = run.source(partial(read_block, _shared(self.root)))
        spec = run.spec
        if spec.eq_cols and all(c in partition.eq_values for c in spec.eq_cols):
            # All equality columns pushed: offset-array + binary search
            # instead of emitting the whole run. Searching at the scan's
            # query_ts keeps per-run dedup consistent with the snapshot.
            eq_vals = tuple(int(partition.eq_values[c]) for c in spec.eq_cols)
            res = run.search(eq_vals, None, None, self.query_ts, source=src)
        else:
            # Load every block once, then decode the arrays in place.
            src.load_all()
            res = run._decode(src.cols)
        n = len(res["begin_ts"])
        if n == 0:
            return
        res["_run_rank"] = np.full(n, partition.rank, dtype=np.int64)
        names = self.schema.fieldNames()
        yield pa.RecordBatch.from_arrays([pa.array(res[f]) for f in names], names=names)
