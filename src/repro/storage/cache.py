"""Run persistence + multi-tier cache management — paper §6.

Responsibilities, mapped to the paper:

* **Persistence** (§5.5/§6.1): runs in *persisted* levels write header +
  data blocks to shared storage; runs in *non-persisted* levels live in
  their run's columns in local memory, never reach the manager, and
  carry their ancestor run IDs so recovery can fall back to the
  persisted ancestors.
* **Caching** (§6.2): data blocks of recent runs are cached on the local
  SSD; a *current cached level* separates cached from purged runs.
  Purging a run drops its data blocks from the SSD but keeps the
  header block "for queries to locate data blocks". New runs below the
  cached level are written through to the SSD cache. A persisted run
  holds no entries in memory either, only its header
  (``IndexRun.drop_entries``), so a purged run is purged from memory as
  well as from the SSD.
* **Miss path** (§7): a query touching a purged run transfers data blocks
  shared → SSD one block at a time through :meth:`CacheManager.read_block`,
  leaving them cached; its decoded blocks live in the query's
  :class:`~repro.core.run.BlockSource` and are dropped with it. A merge
  reads its inputs through the same source but caches nothing
  (``read_block(fill=False)``): they are GC'd right after.

The manager keeps no state. What the tiers hold under ``runs/<run_id>/``
is the one record of where a run's blocks are: purge, load and delete
list that directory, so each is idempotent and needs no registration.
"""
from __future__ import annotations

import json

from repro.core.run import IndexRun
from repro.storage.tiers import StorageHierarchy


def _run_dir(run_id: str) -> str:
    return f"runs/{run_id}"


def _header_key(run_id: str) -> str:
    return f"{_run_dir(run_id)}/header"


def _block_key(run_id: str, i: int) -> str:
    return f"{_run_dir(run_id)}/block.{i:05d}"


def _block_keys(tier, run_id: str) -> list[str]:
    """The keys of the run's data blocks on ``tier``."""
    return [k for k in tier.list(f"{_run_dir(run_id)}/") if k != _header_key(run_id)]


class CacheManager:
    """Mediates every block read/write between the index and the tiers;
    it keeps no state of its own (see the module docstring)."""

    def __init__(self, hierarchy: StorageHierarchy):
        self.h = hierarchy

    # ------------------------------------------------------------------ write
    def write_run(self, run: IndexRun, *, to_ssd: bool) -> None:
        """Persist a freshly built run to shared storage (§6.1) and, with
        ``to_ssd``, write it through to the SSD cache (§6.2: a run created
        at or below the current cached level). The index then drops the
        run's entries."""
        tiers = (self.h.shared, self.h.ssd) if to_ssd else (self.h.shared,)
        # The header first on each tier (a run missing blocks is
        # incomplete, §5.5), then one block's bytes at a time.
        hdr = json.dumps(run.header_json()).encode()
        for tier in tiers:
            tier.put(_header_key(run.run_id), hdr)
        for i in range(run.n_blocks):
            blk = run.block_bytes(i)
            for tier in tiers:
                tier.put(_block_key(run.run_id, i), blk)

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
        if fill:
            try:
                self.h.ssd.put(key, data)
            except FileExistsError:  # pragma: no cover - concurrent fetch race
                pass
        return data

    def known_runs(self) -> list[str]:
        """The IDs of the runs with a file on either tier."""
        return sorted(
            {k.split("/")[1] for tier in (self.h.ssd, self.h.shared) for k in tier.list("runs/")}
        )

    # ------------------------------------------------------------ purge/load
    def purge_run(self, run_id: str) -> None:
        """Drop the run's data blocks from the SSD; keep the header (§6.2).
        Shared storage keeps them all."""
        for key in _block_keys(self.h.ssd, run_id):
            self.h.ssd.delete(key)

    def load_run(self, run_id: str) -> None:
        """Copy the run's data blocks the SSD lacks from shared storage
        (reverse of purging)."""
        cached = set(_block_keys(self.h.ssd, run_id))
        for key in _block_keys(self.h.shared, run_id):
            if key not in cached:
                try:
                    self.h.ssd.put(key, self.h.shared.get(key))
                except FileExistsError:  # pragma: no cover - concurrent fetch race
                    pass

    def delete_run(self, run_id: str, *, from_shared: bool = True) -> None:
        """GC a merged/evolved-away run from the SSD and, with
        ``from_shared``, from shared storage: on each tier its data blocks
        first, then its header. A crash in between leaves an incomplete
        run, which ``recover`` drops and deletes; a header deleted first
        would leave blocks that no header lists."""
        for tier in (self.h.ssd, self.h.shared) if from_shared else (self.h.ssd,):
            for key in _block_keys(tier, run_id):
                tier.delete(key)
            tier.delete(_header_key(run_id))
            tier.delete_dir(_run_dir(run_id))

