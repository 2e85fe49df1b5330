"""Run persistence + multi-tier cache management — paper §6.

Responsibilities, mapped to the paper:

* **Persistence** (§5.5/§6.1): runs in *persisted* levels write header +
  data blocks to shared storage; runs in *non-persisted* levels live only
  in local memory (optionally spilled to SSD) and carry their ancestor
  run IDs so recovery can fall back to the persisted ancestors.
* **Caching** (§6.2): data blocks of recent runs are cached on SSD (or in
  memory); a *current cached level* separates cached from purged runs.
  Purging a run drops its data blocks from the local tiers but keeps the
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
    header: dict
    persisted: bool  # data blocks exist on shared storage
    local: str  # "mem" | "ssd" | "none" — where data blocks are cached locally


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
        'none' — 'none' models a run created above the current cached
        level (no write-through, §6.2); its header still goes to shared.
        """
        if not persisted and cache_tier == "none":
            raise ValueError("a non-persisted run must be cached locally (§6.1)")
        header = run.header_json()
        hdr = json.dumps(header).encode()
        blocks = [run.block_bytes(i) for i in range(run.n_blocks)]
        local = {"mem": [self.h.mem], "ssd": [self.h.ssd]}.get(cache_tier, [])
        for tier in ([self.h.shared] if persisted else []) + local:
            tier.put(_header_key(run.run_id), hdr)
            for i, blk in enumerate(blocks):
                tier.put(_block_key(run.run_id, i), blk)
        with self._lock:
            self._runs[run.run_id] = _RunState(
                header=header, persisted=persisted, local=cache_tier
            )

    # ------------------------------------------------------------------- read
    def read_block(self, run_id: str, i: int) -> bytes:
        """mem → SSD → shared; a shared-storage hit caches the block on SSD
        (block-basis transfer, §7)."""
        key = _block_key(run_id, i)
        # Try each local tier and fall through on a miss, rather than test
        # exists() first: a purge between the test and the read would fail
        # the query. Only a successful get charges a read.
        for tier in (self.h.mem, self.h.ssd):
            try:
                return tier.get(key)
            except (KeyError, FileNotFoundError):
                pass
        data = self.h.shared.get(key)
        try:
            self.h.ssd.put(key, data)
        except FileExistsError:  # pragma: no cover - concurrent fetch race
            pass
        with self._lock:
            st = self._runs.get(run_id)
            if st is not None and st.local == "none":
                st.local = "ssd"  # partially cached now
        return data

    def state(self, run_id: str) -> _RunState:
        with self._lock:
            return self._runs[run_id]

    def known_runs(self) -> list[str]:
        with self._lock:
            return sorted(self._runs)

    # ------------------------------------------------------------ purge/load
    def purge_run(self, run_id: str) -> None:
        """Drop data blocks from the local tiers; keep the header (§6.2).

        Only legal for persisted runs — purging a non-persisted run would
        lose data.
        """
        with self._lock:
            st = self._runs[run_id]
            if not st.persisted:
                raise ValueError(f"cannot purge non-persisted run {run_id}")
            n_blocks = st.header["n_blocks"]
            st.local = "none"
        for i in range(n_blocks):
            self.h.mem.delete(_block_key(run_id, i))
            self.h.ssd.delete(_block_key(run_id, i))

    def load_run(self, run_id: str) -> None:
        """Prefetch all data blocks shared → SSD (reverse of purging)."""
        with self._lock:
            st = self._runs[run_id]
            n_blocks = st.header["n_blocks"]
        for i in range(n_blocks):
            key = _block_key(run_id, i)
            if not self.h.ssd.exists(key) and not self.h.mem.exists(key):
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
        n_blocks = st.header["n_blocks"] if st else 0
        for tier in (self.h.mem, self.h.ssd) + ((self.h.shared,) if from_shared else ()):
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
