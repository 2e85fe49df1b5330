"""Run persistence + multi-tier cache management — paper §6.

Responsibilities, mapped to the paper:

* **Persistence** (§5.5/§6.1): runs in *persisted* levels write header +
  data blocks to shared storage; runs in *non-persisted* levels live in
  their run's columns in local memory, written to no tier, and carry
  their ancestor run IDs so recovery can fall back to the persisted
  ancestors.
* **Caching** (§6.2): data blocks of recent runs are cached on the local
  SSD; a *current cached level* separates cached from purged runs.
  Purging a run drops its data blocks from the SSD but keeps the
  header block "for queries to locate data blocks". New runs below the
  cached level are written through to the SSD cache.
* **Miss path** (§7): a query touching a purged run transfers data blocks
  shared → SSD one block at a time, leaving them cached; its decoded
  blocks live in the query's :class:`BlockSource` and are dropped with it.
"""
from __future__ import annotations

import json
import threading
from dataclasses import dataclass

import numpy as np

from repro.core.run import EntrySource, IndexRun
from repro.storage.tiers import StorageHierarchy


def _run_dir(run_id: str) -> str:
    return f"runs/{run_id}"


def _header_key(run_id: str) -> str:
    return f"{_run_dir(run_id)}/header"


def _block_key(run_id: str, i: int) -> str:
    return f"{_run_dir(run_id)}/block.{i:05d}"


@dataclass
class _RunState:
    n_blocks: int
    persisted: bool  # data blocks exist on shared storage
    # Where the data blocks are locally: "mem" (resident in the run's own
    # columns, no block copy), "ssd" (all cached), "partial" (a query
    # fetched some of them after a purge) or "none".
    local: str


class CacheManager:
    """Mediates every block read/write between the index and the tiers."""

    def __init__(self, hierarchy: StorageHierarchy):
        self.h = hierarchy
        self._runs: dict[str, _RunState] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ write
    def write_run(
        self, run: IndexRun, *, persisted: bool, cache_tier: str = "ssd"
    ) -> None:
        """Store a freshly built run.

        ``persisted``: also written to shared storage (mandatory for level
        0 and all persisted levels, §6.1). ``cache_tier``: 'mem' | 'ssd' |
        'none' — 'mem' keeps the run resident in its own columns and
        writes no local copy; 'none' models a run created above the
        current cached level (no write-through, §6.2); its header still
        goes to shared.
        """
        if not persisted and cache_tier == "none":
            raise ValueError("a non-persisted run must be cached locally (§6.1)")
        tiers = ([self.h.shared] if persisted else []) + (
            [self.h.ssd] if cache_tier == "ssd" else []
        )
        if tiers:
            hdr = json.dumps(run.header_json()).encode()
            blocks = [run.block_bytes(i) for i in range(run.n_blocks)]
            for tier in tiers:
                tier.put(_header_key(run.run_id), hdr)
                for i, blk in enumerate(blocks):
                    tier.put(_block_key(run.run_id, i), blk)
        with self._lock:
            self._runs[run.run_id] = _RunState(
                n_blocks=run.n_blocks, persisted=persisted, local=cache_tier
            )

    def register_shared_run(self, header: dict) -> None:
        """Track a run whose blocks are on shared storage only (recovery,
        §5.5): queries fetch them on demand, purge and delete find them."""
        with self._lock:
            self._runs[header["run_id"]] = _RunState(
                n_blocks=header["n_blocks"], persisted=True, local="none"
            )

    # ------------------------------------------------------------------- read
    def read_block(self, run_id: str, i: int) -> bytes:
        """SSD → shared; a shared-storage hit caches the block on SSD
        (block-basis transfer, §7)."""
        key = _block_key(run_id, i)
        # Read and fall through on a miss, rather than test exists() first:
        # a purge between the test and the read would fail the query. Only
        # a successful get charges a read.
        try:
            return self.h.ssd.get(key)
        except FileNotFoundError:
            pass
        data = self.h.shared.get(key)
        try:
            self.h.ssd.put(key, data)
        except FileExistsError:  # pragma: no cover - concurrent fetch race
            pass
        with self._lock:
            st = self._runs.get(run_id)
            if st is not None and st.local == "none":
                st.local = "partial"  # load_run still fetches the rest
        return data

    def state(self, run_id: str) -> _RunState:
        with self._lock:
            return self._runs[run_id]

    def known_runs(self) -> list[str]:
        with self._lock:
            return sorted(self._runs)

    # ------------------------------------------------------------ purge/load
    def purge_run(self, run_id: str) -> None:
        """Drop data blocks from the SSD; keep the header (§6.2).

        Only legal for persisted runs — purging a non-persisted run would
        lose data.
        """
        with self._lock:
            st = self._runs[run_id]
            if not st.persisted:
                raise ValueError(f"cannot purge non-persisted run {run_id}")
            st.local = "none"
        for i in range(st.n_blocks):
            self.h.ssd.delete(_block_key(run_id, i))

    def load_run(self, run_id: str) -> None:
        """Prefetch all data blocks shared → SSD (reverse of purging)."""
        with self._lock:
            n_blocks = self._runs[run_id].n_blocks
        for i in range(n_blocks):
            key = _block_key(run_id, i)
            if not self.h.ssd.exists(key):
                try:
                    self.h.ssd.put(key, self.h.shared.get(key))
                except FileExistsError:  # pragma: no cover
                    pass
        with self._lock:
            self._runs[run_id].local = "ssd"

    def delete_run(self, run_id: str, *, from_shared: bool = True) -> None:
        """GC a merged/evolved-away run from every tier it occupies."""
        with self._lock:
            st = self._runs.pop(run_id, None)
        n_blocks = st.n_blocks if st else 0
        for tier in (self.h.ssd,) + ((self.h.shared,) if from_shared else ()):
            tier.delete(_header_key(run_id))
            for i in range(n_blocks):
                tier.delete(_block_key(run_id, i))
            tier.delete_dir(_run_dir(run_id))


class BlockSource(EntrySource):
    """Query-side entry source reading data blocks through the cache.

    Each touched block is read once through :meth:`CacheManager.read_block`,
    decoded, and copied into its slot of one
    ``(n_blocks, len(spec.fields), block_rows)`` buffer, allocated once
    with ``np.empty``. A gather is then one fancy index per field, whichever
    blocks its positions fall in. Pages no block is copied into are never
    written, so the OS need not back them: a query's memory grows with the
    blocks it touches, not with the run. The buffer lives only as long as
    this source (one query), matching §7: "after the query is finished, the
    cached data blocks are released".
    """

    def __init__(self, cache: CacheManager, run: IndexRun):
        super().__init__(run.spec, run.n_entries)
        self.cache = cache
        self.run_id = run.run_id
        self._col = {f: i for i, f in enumerate(run.spec.fields)}
        self._buf = np.empty(
            (run.n_blocks, len(run.spec.fields), run.spec.block_rows), np.uint64
        )

    def _load(self, blocks: np.ndarray) -> None:
        br = self.spec.block_rows
        for bi in blocks.tolist():
            rows = min(br, self.n_entries - bi * br)
            self._buf[bi, :, :rows] = IndexRun.decode_block(
                self.spec, self.cache.read_block(self.run_id, bi), rows
            )

    def _gather(self, fields, positions, blocks):
        offs = positions - blocks * self.spec.block_rows
        return {f: self._buf[blocks, self._col[f], offs] for f in fields}
