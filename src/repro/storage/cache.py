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
  cached level are written through to the SSD cache. A persisted run
  holds no entries in memory either, only its header
  (``IndexRun.drop_entries``), so a purged run is purged from memory as
  well as from the SSD.
* **Miss path** (§7): a query touching a purged run transfers data blocks
  shared → SSD one block at a time, leaving them cached; its decoded
  blocks live in the query's :class:`BlockSource` and are dropped with it.
  A merge reads its inputs the same way but caches nothing
  (``read_block(fill=False)``): they are GC'd right after.
"""
from __future__ import annotations

import json
import threading
from dataclasses import dataclass

import numpy as np

from repro.core import encoding as enc
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
        """Store a freshly built run; its entries stay in the run, which
        the index then drops for a persisted one.

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
            # The header first on each tier (a run missing blocks is
            # incomplete, §5.5), then one block's bytes at a time.
            hdr = json.dumps(run.header_json()).encode()
            for tier in tiers:
                tier.put(_header_key(run.run_id), hdr)
            for i in range(run.n_blocks):
                blk = run.block_bytes(i)
                for tier in tiers:
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
    def read_block(self, run_id: str, i: int, *, fill: bool = True) -> bytes:
        """SSD → shared; with ``fill``, a shared-storage hit caches the
        block on SSD (block-basis transfer, §7). A merge reads its inputs
        without ``fill``: they are GC'd right after."""
        key = _block_key(run_id, i)
        # Read and fall through on a miss, rather than test exists() first:
        # a purge between the test and the read would fail the query. Only
        # a successful get charges a read.
        try:
            return self.h.ssd.get(key)
        except FileNotFoundError:
            pass
        data = self.h.shared.get(key)
        if not fill:
            return data
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
            st = self._runs.get(run_id)
            if from_shared or not (st and st.persisted):
                self._runs.pop(run_id, None)
            else:  # kept on shared storage: a later delete there needs n_blocks
                st.local = "none"
        n_blocks = st.n_blocks if st else 0
        for tier in (self.h.ssd,) + ((self.h.shared,) if from_shared else ()):
            tier.delete(_header_key(run_id))
            for i in range(n_blocks):
                tier.delete(_block_key(run_id, i))
            tier.delete_dir(_run_dir(run_id))


class BlockSource(EntrySource):
    """Query-side entry source reading a header-only run's data blocks.

    Its ``key`` and ``cols`` are arrays of the run's length allocated
    once with ``np.empty``, as a resident run's are: the memcmp keys, the
    order fields as views of them (as in :class:`IndexRun`), and one
    uint64 array per other field. Each touched block is read once with
    ``read_block(run_id, i) -> bytes`` (:meth:`CacheManager.read_block`,
    or a shared-storage read where no cache is held, as in the Spark
    ``umzi`` reader), decoded, and copied into that block's rows; the tier
    read charges the query for the block's bytes. A gather is then the
    same position index as over a resident run. Pages no block is copied
    into are never written, so the OS need not back them: a query's
    memory grows with the blocks it touches, not with the run. The arrays
    live only as long as this source (one query), matching §7: "after the
    query is finished, the cached data blocks are released".
    """

    def __init__(self, read_block, run: IndexRun):
        spec, n = run.spec, run.n_entries
        key = np.empty(n, f"S{8 * len(spec.order_fields)}")
        cols = dict(zip(spec.order_fields, enc.key_columns(key).T))
        super().__init__(spec, n, key, cols | {f: np.empty(n, np.uint64) for f in spec.rest_fields})
        self.read_block = read_block
        self.run_id = run.run_id

    def search_blocks(self, needles, a, b, right):
        # Loaded blocks sit in key order in ``key``: one search per group
        # of ranges over the same blocks, searched on one side.
        br = self.spec.block_rows
        live = np.flatnonzero(a < b)
        first, last, side = self.touch(a[live]), (b[live] - 1) // br, right[live]
        order = np.lexsort((side, last, first))
        live, first, last, side = live[order], first[order], last[order], side[order]
        new = np.flatnonzero(
            np.diff(first, prepend=-1) | np.diff(last, prepend=-1) | np.diff(side, prepend=-1)
        )
        out = a.copy()
        for x, y, r, sel in zip(
            first[new].tolist(), last[new].tolist(), side[new].tolist(), np.split(live, new[1:])
        ):
            lo, hi = x * br, min((y + 1) * br, self.n_entries)
            out[sel] = np.searchsorted(self.key[lo:hi], needles[sel], "right" if r else "left") + lo
        return np.clip(out, a, b)

    def _load(self, blocks: np.ndarray) -> None:
        br = self.spec.block_rows
        for bi in blocks.tolist():
            lo = bi * br
            rows = min(br, self.n_entries - lo)
            key, rest = IndexRun.decode_block(
                self.spec, self.read_block(self.run_id, bi), rows
            )
            self.key[lo : lo + rows] = key
            for f, c in zip(self.spec.rest_fields, rest):
                self.cols[f][lo : lo + rows] = c
