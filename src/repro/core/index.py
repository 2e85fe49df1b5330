"""UmziIndex facade — multi-zone structure, evolve, cache levels.

Ties together the pieces of §3–§6: two run chains (groomed and
post-groomed zones, §4.3), the hybrid merge policy per zone (§5.3), the
three-step index **evolve** operation with PSN bookkeeping (§5.4), the
persisted recovery state (§5.5), non-persisted levels (§6.1) and the
current-cached-level purge/load mechanics (§6.2).

One ``UmziIndex`` instance serves one table shard, exactly as in the
paper's distributed setting (§3).
"""
from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.core.merge import MergeEvent, MergePolicy
from repro.core.run import GROOMED, POSTGROOMED, IndexRun, IndexSpec, MemorySource
from repro.core.runlist import RunHandle, ZoneList
from repro.storage.cache import BlockSource, CacheManager

_STATE_KEY = "index/state.json"


@dataclass(frozen=True)
class UmziConfig:
    """Level/zone assignment and merge knobs (Fig. 3 defaults)."""

    K: int = 3  # max inactive runs per level before a merge (§5.3)
    T: int = 4  # size ratio between adjacent levels (§5.3)
    groomed_max_level: int = 5  # groomed zone = levels 0..groomed_max_level
    pg_min_level: int = 6  # post-groomed zone = pg_min..pg_max
    pg_max_level: int = 9
    nonpersisted_levels: frozenset = frozenset()  # §6.1; level 0 must persist

    def __post_init__(self):
        if 0 in self.nonpersisted_levels:
            raise ValueError("level 0 must be persisted (§6.1)")
        if any(l >= self.pg_min_level for l in self.nonpersisted_levels):
            raise ValueError("post-groomed levels are always persisted")
        if not (0 <= self.groomed_max_level < self.pg_min_level <= self.pg_max_level):
            raise ValueError("invalid zone/level assignment")


@dataclass
class QuerySnapshot:
    """A reader's consistent view: ordered candidate runs + visibility.

    Built by reading, in order, (1) the post-groomed max-covered groomed
    block ID, (2) the post-groomed chain, (3) the groomed chain. With the
    writer ordering of §5.4 (add PG run → bump covered → GC) this order
    guarantees no key version is ever missing, and at worst duplicates
    appear — which reconciliation removes (§5.4).
    """

    covered_gbid: int
    runs: tuple[RunHandle, ...] = field(default_factory=tuple)  # newest-first


class UmziIndex:
    """One multi-zone index instance (one table shard)."""

    def __init__(
        self,
        spec: IndexSpec,
        config: UmziConfig | None = None,
        cache: CacheManager | None = None,
    ):
        self.spec = spec
        self.config = config or UmziConfig()
        self.cache = cache
        self.groomed = ZoneList(GROOMED)
        self.postgroomed = ZoneList(POSTGROOMED)
        self._pg_covered_gbid = -1  # max groomed block ID covered by PG list
        self.indexed_psn = 0
        self.cache_level: int = self.config.pg_max_level  # everything cached
        self._g_policy = MergePolicy(
            self.config.K,
            self.config.T,
            min_level=0,
            max_level=self.config.groomed_max_level,
        )
        self._pg_policy = MergePolicy(
            self.config.K,
            self.config.T,
            min_level=self.config.pg_min_level,
            max_level=self.config.pg_max_level,
        )
        self._maint_lock = threading.Lock()  # serializes maintain()/evolve()

    # ------------------------------------------------------------- run intake
    def add_groomed_run(self, run: IndexRun) -> None:
        """§5.2 — a groom's freshly built run becomes the groomed head.

        Level-0 runs are always persisted (§6.1) and written through to
        the local cache if level 0 is at or below the cache level (§6.2).
        """
        if run.zone != GROOMED or run.level != 0:
            raise ValueError("groom output must be a level-0 groomed run")
        self._persist_new_run(run)
        self._g_policy.note_new_run(run)
        self.groomed.prepend(RunHandle(run, active=False))

    def _persist_new_run(self, run: IndexRun) -> None:
        if self.cache is None:
            return
        nonp = run.level in self.config.nonpersisted_levels
        if nonp:
            tier = "mem"
        else:
            tier = "ssd" if run.level <= self.cache_level else "none"
        self.cache.write_run(run, persisted=not nonp, cache_tier=tier)

    # ------------------------------------------------------------ maintenance
    def maintain(self) -> list[MergeEvent]:
        """Apply the merge policy in both zones, with persistence before
        each swap and GC after (§5.3, §6.1)."""
        with self._maint_lock:
            events: list[MergeEvent] = []
            for policy, chain in (
                (self._g_policy, self.groomed),
                (self._pg_policy, self.postgroomed),
            ):
                events += policy.step(
                    chain,
                    before_swap=self._persist_merged,
                    after_swap=self._gc_merged,
                )
            return events

    def _persist_merged(self, ev: MergeEvent) -> None:
        if self.cache is None:
            return
        nonp = ev.new_run.level in self.config.nonpersisted_levels
        if nonp:
            # §6.1: keep the persisted ancestry of everything folded in, so
            # a crash can recover from shared storage.
            anc: list[str] = []
            for r in ev.merged:
                if r.level in self.config.nonpersisted_levels:
                    anc.extend(r.ancestors)
                else:
                    anc.append(r.run_id)
            ev.new_run.ancestors = tuple(dict.fromkeys(anc))
        self._persist_new_run(ev.new_run)

    def _gc_merged(self, ev: MergeEvent) -> None:
        if self.cache is None:
            return
        new_nonp = ev.new_run.level in self.config.nonpersisted_levels
        for r in ev.merged:
            if new_nonp:
                # ancestors stay on shared storage; only local copies die
                self.cache.delete_run(r.run_id, from_shared=False)
            else:
                self._delete_replaced(r)

    def _delete_replaced(self, run: IndexRun) -> None:
        """GC a run whose entries now live in a persisted run: the run
        itself (from shared storage too unless its level is non-persisted),
        then its ancestors (§6.1: once re-persisted, the old persisted
        ancestors of a non-persisted run can finally be deleted)."""
        nonp = run.level in self.config.nonpersisted_levels
        self.cache.delete_run(run.run_id, from_shared=not nonp)
        for a in run.ancestors:
            self.cache.delete_run(a, from_shared=True)

    # ------------------------------------------------------------------ evolve
    def evolve(self, pg_run: IndexRun, psn: int | None = None) -> None:
        """§5.4 — three atomic sub-operations, each leaving a valid index:

        1. add the new post-groomed run to the PG chain head;
        2. atomically raise the PG list's max covered groomed block ID;
        3. GC groomed runs whose entire gbid range is now covered.
        """
        with self._maint_lock:
            if pg_run.zone != POSTGROOMED:
                raise ValueError("evolve expects a post-groomed run")
            # Step 1 — build/persist first, then one atomic prepend.
            self._persist_new_run(pg_run)
            self._pg_policy.note_new_run(pg_run)
            self.postgroomed.prepend(RunHandle(pg_run, active=False))
            # Step 2 — single reference assignment (atomic under the GIL).
            self._pg_covered_gbid = max(self._pg_covered_gbid, pg_run.gbid_hi)
            if psn is not None:
                self.indexed_psn = psn
            self._persist_state()
            # Step 3 — GC fully covered groomed runs.
            obsolete = [
                h
                for h in self.groomed.snapshot()
                if h.gbid_hi <= self._pg_covered_gbid
            ]
            if obsolete:
                self.groomed.remove(obsolete)
                if self.cache is not None:
                    for h in obsolete:
                        self._delete_replaced(h.run)

    @property
    def pg_covered_gbid(self) -> int:
        return self._pg_covered_gbid

    def _persist_state(self) -> None:
        """§5.5: covered gbid + IndexedPSN are persisted after each evolve."""
        if self.cache is None:
            return
        self.cache.h.shared.overwrite(
            _STATE_KEY,
            json.dumps(
                {
                    "pg_covered_gbid": self._pg_covered_gbid,
                    "indexed_psn": self.indexed_psn,
                }
            ).encode(),
        )

    # ----------------------------------------------------------- query façade
    def query_snapshot(self) -> QuerySnapshot:
        """Reader-side snapshot; ordering rationale in QuerySnapshot doc."""
        covered = self._pg_covered_gbid  # (1)
        pg = self.postgroomed.snapshot()  # (2)
        groomed = self.groomed.snapshot()  # (3)
        visible_groomed = tuple(h for h in groomed if h.gbid_hi > covered)
        return QuerySnapshot(covered_gbid=covered, runs=visible_groomed + pg)

    def source_for(self, run: IndexRun):
        """Entry source for one query of a run. Both kinds serve the same
        search kernel and charge each data block the query touches once:
        the run's own columns when its blocks are (simulated-)memory-
        resident or no hierarchy is attached, each touched block charged
        as one modelled SSD read; else the blocks themselves, read through
        the cache with real tier charges (§7)."""
        if self.cache is None:
            return MemorySource(run)
        try:
            st = self.cache.state(run.run_id)
        except KeyError:
            return MemorySource(run)
        if st.local == "mem":
            return MemorySource(run)
        return BlockSource(self.cache, run)

    # ------------------------------------------------------- cache management
    def apply_cache_level(self, level: int) -> None:
        """§6.2 — set the current cached level: purge every persisted run
        above it, load every run at or below it that is not fully cached."""
        if self.cache is None:
            raise ValueError("no storage hierarchy attached")
        self.cache_level = level
        for h in self.groomed.snapshot() + self.postgroomed.snapshot():
            st = self.cache.state(h.run.run_id)
            if not st.persisted:
                continue  # non-persisted runs live in memory, never purged
            if h.level > level and st.local != "none":
                self.cache.purge_run(h.run.run_id)
            elif h.level <= level and st.local != "ssd":
                self.cache.load_run(h.run.run_id)

    def auto_adjust_cache(self, ssd_capacity_bytes: int) -> None:
        """Dynamic variant of §6.2: purge old levels while the SSD is over
        capacity, re-load recent levels while it has room."""
        if self.cache is None:
            raise ValueError("no storage hierarchy attached")
        while (
            self.cache.h.ssd.used_bytes() > ssd_capacity_bytes
            and self.cache_level > 0
        ):
            self.apply_cache_level(self.cache_level - 1)
        while (
            self.cache_level < self.config.pg_max_level
            and self.cache.h.ssd.used_bytes() < ssd_capacity_bytes * 0.5
        ):
            before = self.cache.h.ssd.used_bytes()
            self.apply_cache_level(self.cache_level + 1)
            if self.cache.h.ssd.used_bytes() == before:
                break  # nothing more to load

    # ---------------------------------------------------------------- stats
    def describe(self) -> dict:
        snap = self.query_snapshot()
        return {
            "groomed_runs": len(self.groomed.snapshot()),
            "postgroomed_runs": len(self.postgroomed.snapshot()),
            "visible_runs": len(snap.runs),
            "covered_gbid": snap.covered_gbid,
            "entries": int(sum(h.run.n_entries for h in snap.runs)),
            "levels": sorted(
                {h.level for h in self.groomed.snapshot() + self.postgroomed.snapshot()}
            ),
        }
