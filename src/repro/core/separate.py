"""Baseline: separate per-zone indexes (no unified view) — paper §1.

The paper motivates Umzi by the problems of the alternative designs
(MemSQL-style separate indexes per zone): queries must combine per-zone
results themselves and, with data constantly evolving between zones,
guaranteeing "no duplicate or missing data" is non-trivial.

This baseline keeps two *independent* single-zone indexes with no
covered-gbid coordination. ``query_naive`` unions per-zone results —
during an evolve window it returns duplicate key versions (both zones
hold the migrated range). ``query_correct`` does the extra reconciliation
work the paper says a divided view forces on every query. Tests use this
to demonstrate the anomaly Umzi's unified view prevents by construction.
"""
from __future__ import annotations

import numpy as np

from repro.core import query as q
from repro.core.index import UmziConfig, UmziIndex
from repro.core.run import IndexRun, IndexSpec
from repro.core.runlist import RunHandle


class SeparateZoneIndexes:
    """Two uncoordinated single-zone indexes (the non-unified design)."""

    def __init__(self, spec: IndexSpec, config: UmziConfig | None = None):
        cfg = config or UmziConfig()
        self.spec = spec
        # Two UmziIndex instances, each used for a single zone; the
        # post-groomed one never learns the covered gbid → no unified view.
        self.groomed_ix = UmziIndex(spec, cfg)
        self.pg_ix = UmziIndex(spec, cfg)

    def add_groomed_run(self, run: IndexRun) -> None:
        self.groomed_ix.add_groomed_run(run)

    def add_postgroomed_run(self, run: IndexRun) -> None:
        # No 3-step evolve: the PG index just gains a run; the groomed
        # index keeps (and keeps serving) the migrated entries.
        self.pg_ix.postgroomed.prepend(RunHandle(run))

    def drop_covered_groomed_runs(self, covered_gbid: int) -> None:
        """The *separate* moral equivalent of GC — no atomicity with the
        PG-side add, so between add and drop queries see duplicates."""
        obsolete = [
            h
            for h in self.groomed_ix.groomed.snapshot()
            if h.gbid_hi <= covered_gbid
        ]
        self.groomed_ix.groomed.remove(obsolete)

    def query_naive(
        self, eq_values, sort_lo, sort_hi, query_ts: int
    ) -> dict[str, np.ndarray]:
        """Union of the two per-zone answers — may contain duplicates."""
        a = q.range_scan(self.groomed_ix, eq_values, sort_lo, sort_hi, query_ts)
        b = q.range_scan(self.pg_ix, eq_values, sort_lo, sort_hi, query_ts)
        return {c: np.concatenate([a[c], b[c]]) for c in a}

    def query_correct(
        self, eq_values, sort_lo, sort_hi, query_ts: int
    ) -> dict[str, np.ndarray]:
        """The extra per-query reconciliation a divided view forces."""
        return q.reconcile(
            self.spec,
            [
                q.range_scan(ix, eq_values, sort_lo, sort_hi, query_ts)
                for ix in (self.groomed_ix, self.pg_ix)
            ],
            method="set",
        )
