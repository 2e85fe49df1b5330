"""Reading the persisted index, and crash recovery — paper §5.4, §5.5, §6.1.

Shared storage holds every *persisted* run (a header plus data blocks)
and the small state file (max covered groomed block ID + IndexedPSN,
persisted after each evolve). :func:`plan_runs` is the one reader of that
layout; crash recovery and the Spark ``umzi`` scan both start from it.

A plan:

1. reads the state **before** listing the run headers (§5.4): a groomed
   run hidden by the covered block ID it read was covered by a
   post-groomed run persisted before that ID, so the listing sees the
   post-groomed run (or the merge output that contains it);
2. drops incomplete runs (header present but some data block missing —
   a write still in progress, or a crash mid-write, since the header is
   written first);
3. per zone, orders the complete runs by **descending end groomed block
   ID** and drops each run whose gbid range is contained in an already
   kept run: it "has already been merged" (§5.5).

A listed run whose header is gone when checked was removed by a GC after
the listing; the plan then starts over rather than leave the run out,
since the run that replaced it may be missing from the listing.

:func:`recover` deletes the drops, rebuilds both chains from the kept
runs and restores the covered-gbid / IndexedPSN state. Runs in
non-persisted levels are lost by design; their persisted ancestors
(recorded in run headers before any non-persisted merge, §6.1) are
exactly what the plan keeps, so no index run ever needs rebuilding from
data blocks — this is why level 0 must be persisted.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from repro.core.index import UmziConfig, UmziIndex, _STATE_KEY
from repro.core.run import GROOMED, POSTGROOMED, IndexRun, IndexSpec
from repro.core.runlist import RunHandle
from repro.storage.cache import CacheManager, _block_key, _header_key

# Plans in a row that a concurrent GC may invalidate before plan_runs
# gives up and raises.
PLAN_ATTEMPTS = 8


@dataclass(frozen=True)
class RunPlan:
    """What shared storage holds: the evolve state, per zone the runs to
    keep (newest first), and the runs to drop."""

    state: dict  # {"pg_covered_gbid": int, "indexed_psn": int}
    keep: dict  # zone -> [header, ...], descending end gbid
    drop: list  # headers of incomplete or already-merged runs


def read_state(tier) -> dict:
    """The persisted evolve state; the initial one before any evolve."""
    try:
        return json.loads(tier.get(_STATE_KEY))
    except FileNotFoundError:
        return {"pg_covered_gbid": -1, "indexed_psn": 0}


def list_headers(tier) -> list[dict]:
    """Every run header on ``tier``."""
    return [json.loads(tier.get(k)) for k in tier.list("runs/") if k.endswith("/header")]


def read_run(tier, header: dict) -> IndexRun:
    """A fully resident run from its header and its data blocks on ``tier``."""
    blocks = [tier.get(_block_key(header["run_id"], i)) for i in range(header["n_blocks"])]
    return IndexRun.from_header_and_blocks(header, blocks)


def _complete(tier, header: dict) -> bool:
    run_id = header["run_id"]
    if all(tier.exists(_block_key(run_id, i)) for i in range(header["n_blocks"])):
        return True
    if not tier.exists(_header_key(run_id)):
        raise FileNotFoundError(_header_key(run_id))  # GC'd since the listing
    return False


def _plan_once(tier) -> RunPlan:
    state = read_state(tier)  # §5.4: before the run lists
    complete, drop = [], []
    for h in list_headers(tier):
        (complete if _complete(tier, h) else drop).append(h)
    keep: dict = {GROOMED: [], POSTGROOMED: []}
    for h in sorted(complete, key=lambda h: (-h["gbid_hi"], h["gbid_lo"])):
        kept = keep[h["zone"]]
        contained = any(
            k["gbid_lo"] <= h["gbid_lo"] and h["gbid_hi"] <= k["gbid_hi"] for k in kept
        )
        (drop if contained else kept).append(h)
    return RunPlan(state, keep, drop)


def plan_runs(tier) -> RunPlan:
    """Plan the runs of the index persisted on ``tier``; reads only."""
    for _ in range(PLAN_ATTEMPTS):
        try:
            return _plan_once(tier)
        except FileNotFoundError:
            continue  # a listed run was GC'd: plan again
    raise RuntimeError(f"runs were GC'd during each of {PLAN_ATTEMPTS} plans")


def recover(
    spec: IndexSpec, config: UmziConfig, cache: CacheManager
) -> UmziIndex:
    """Reconstruct an UmziIndex from shared storage after a crash."""
    index = UmziIndex(spec, config, cache)
    shared = cache.h.shared
    plan = plan_runs(shared)
    for h in plan.drop:
        # Registered first, so delete_run knows the blocks to delete too.
        cache.register_shared_run(h)
        cache.delete_run(h["run_id"], from_shared=True)

    for chain, policy in (
        (index.groomed, index._g_policy),
        (index.postgroomed, index._pg_policy),
    ):
        # Register each kept run with the cache (blocks still on shared
        # storage only) and rebuild the chain in one atomic swap.
        handles = []
        for h in plan.keep[chain.zone]:
            run = read_run(shared, h)
            cache.register_shared_run(h)
            if run.level == policy.min_level:
                policy.note_new_run(run)
            handles.append(RunHandle(run, active=False))
        with chain.lock:
            chain._runs = tuple(handles)

    index._pg_covered_gbid = plan.state["pg_covered_gbid"]
    index.indexed_psn = plan.state["indexed_psn"]
    return index
