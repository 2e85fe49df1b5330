"""Hybrid merge policy — paper §5.3 (following Dostoevsky's lazy leveling).

Two knobs: **K**, the maximum number of *inactive* runs per level, and
**T**, the size ratio between adjacent levels.

* New runs enter level 0 as inactive runs (one per groom / per evolve).
* When a level L accumulates K inactive runs, they are merged *together
  with the active run of level L+1* into a new active run at L+1.
* The active run of level L is *full* — and is marked inactive, with a
  fresh active run to be created by the next merge — when its size
  reaches T × the size of an inactive run at level L−1, i.e. roughly
  ``base · T^L`` entries where ``base`` is the level-0 run size.

The merge machinery operates on a :class:`ZoneList` and never blocks
readers: each structural change is a single atomic chain swap.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.run import IndexRun
from repro.core.runlist import RunHandle, ZoneList


@dataclass
class MergeEvent:
    """What one policy step did (for tests / logging / GC hooks)."""

    level: int
    merged: list[IndexRun]
    new_run: IndexRun


class MergePolicy:
    """Applies the hybrid policy to one zone's chain."""

    def __init__(
        self,
        K: int,
        T: int,
        *,
        min_level: int = 0,
        max_level: int = 5,
    ):
        if K < 1 or T < 2:
            raise ValueError("need K >= 1 and T >= 2")
        self.K = K
        self.T = T
        self.min_level = min_level  # zone's lowest level (0 groomed; Ng for PG)
        self.max_level = max_level  # zone's highest level — never merged past
        self._base_size = 1  # running max of entry-level run sizes

    def note_new_run(self, run: IndexRun) -> None:
        self._base_size = max(self._base_size, run.n_entries)

    def full_threshold(self, level: int) -> int:
        """Active run at ``level`` is full at ~base·T^(level-min_level)."""
        return self._base_size * self.T ** (level - self.min_level)

    def step(
        self,
        chain: ZoneList,
        before_swap: Callable[[MergeEvent], None],
        after_swap: Callable[[MergeEvent], None],
        read_block: Callable[[str, int], bytes] | None = None,
    ) -> list[MergeEvent]:
        """Run the policy to quiescence; returns the merges performed.

        ``before_swap`` fires after the merged run is built but before it
        becomes visible (the paper writes the new run to storage first);
        ``after_swap`` fires once the chain points at the new run, which
        is when the old runs may be garbage-collected (§5.3).
        ``read_block`` reads the data blocks of header-only inputs.
        """
        events: list[MergeEvent] = []
        progressed = True
        while progressed:
            progressed = False
            snap = chain.snapshot()
            by_level: dict[int, list[RunHandle]] = {}
            for h in snap:
                by_level.setdefault(h.level, []).append(h)

            # 1) mark full active runs inactive
            for lvl, handles in sorted(by_level.items()):
                for h in handles:
                    if h.active and h.run.n_entries >= self.full_threshold(lvl) and lvl < self.max_level:
                        chain.mark_inactive(h)
                        progressed = True
            if progressed:
                continue

            # 2) merge K inactive runs of level L with the active of L+1
            for lvl in sorted(by_level):
                if lvl >= self.max_level:
                    continue
                inactive = [h for h in by_level[lvl] if not h.active]
                if len(inactive) < self.K:
                    continue
                target = [
                    h for h in by_level.get(lvl + 1, []) if h.active
                ]
                victims = inactive + target
                # The victims must be contiguous in the chain: the K oldest
                # runs of level L sit directly above level L+1's active run.
                victims_sorted = [h for h in snap if h in victims]
                new_run = IndexRun.merge_runs(
                    [h.run for h in victims_sorted], level=lvl + 1, read_block=read_block
                )
                new_handle = RunHandle(new_run, active=True)
                ev = MergeEvent(
                    level=lvl,
                    merged=[h.run for h in victims_sorted],
                    new_run=new_run,
                )
                before_swap(ev)
                chain.replace_contiguous(victims_sorted, new_handle)
                events.append(ev)
                after_swap(ev)
                progressed = True
                break  # re-snapshot after every structural change
        return events
