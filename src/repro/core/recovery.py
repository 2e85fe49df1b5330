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
since the run that replaced it may be missing from the listing. A GC
deletes a run's data blocks before its header, so a run it is deleting
looks incomplete, and its replacement was complete before that: a plan
that drops an incomplete run starts over too if a header appeared since
the listing or a run it found incomplete is complete now.

:func:`recover` deletes the drops, rebuilds both chains from the kept
runs' headers — header-only runs, whose blocks queries fetch on demand, so
recovery reads no data block — and restores the covered-gbid /
IndexedPSN state. Runs in
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


def _header_keys(tier) -> list[str]:
    return [k for k in tier.list("runs/") if k.endswith("/header")]


def list_headers(tier) -> list[dict]:
    """Every run header on ``tier``."""
    return [json.loads(tier.get(k)) for k in _header_keys(tier)]


def read_block(tier, run_id: str, i: int) -> bytes:
    """Data block ``i`` of a run on ``tier`` (the Spark ``umzi`` reader,
    whose tasks hold no cache)."""
    return tier.get(_block_key(run_id, i))


def _complete(tier, header: dict) -> bool:
    run_id = header["run_id"]
    if all(tier.exists(_block_key(run_id, i)) for i in range(header["n_blocks"])):
        return True
    if not tier.exists(_header_key(run_id)):
        raise FileNotFoundError(_header_key(run_id))  # GC'd since the listing
    return False


def _plan_once(tier) -> RunPlan:
    state = read_state(tier)  # §5.4: before the run lists
    headers = list_headers(tier)
    complete, drop = [], []
    for h in headers:
        (complete if _complete(tier, h) else drop).append(h)
    # An incomplete run may be one a GC is deleting, whose replacement
    # was complete before the GC began but missed by the listing or caught
    # mid-write: plan again if a run appeared or completed since.
    if drop and (
        set(_header_keys(tier)) - {_header_key(h["run_id"]) for h in headers}
        or any(_complete(tier, h) for h in drop)
    ):
        raise FileNotFoundError("runs written or GC'd during the plan")
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
        cache.delete_run(h["run_id"])

    for chain, policy in (
        (index.groomed, index._g_policy),
        (index.postgroomed, index._pg_policy),
    ):
        # Each kept run as a header-only run from the header the plan
        # read (its blocks are on shared storage only), and the chain
        # rebuilt in one atomic swap.
        handles = []
        for h in plan.keep[chain.zone]:
            run = IndexRun.from_header(h)
            if run.level == policy.min_level:
                policy.note_new_run(run)
            handles.append(RunHandle(run, active=False))
        with chain.lock:
            chain._runs = tuple(handles)

    index._pg_covered_gbid = plan.state["pg_covered_gbid"]
    index.indexed_psn = plan.state["indexed_psn"]
    return index
