"""Index queries over the multi-run structure — paper §7.

Two query types: **range scans** (all equality columns bound + bounds on
the sort columns) and **point lookups** (entire key bound). Both take a
``query_ts`` and return only the most recent version per key with
``beginTS <= query_ts`` (snapshot semantics, §7).

Reconciliation across runs is implemented both ways the paper describes
(§7.1.2): the **set approach** (search newest→oldest, remember returned
keys) and the **priority-queue approach** (k-way merge of per-run sorted
results). Batched point lookups visit runs newest→oldest, searching
each for all pending probes at once, with per-probe early exit (§7.2);
a point lookup is a batch of one. Run-level synopsis
pruning uses the batch's key envelope, which is what makes sequential
batches much cheaper than random ones (Fig. 10 vs 11).
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.core import encoding as enc
from repro.core.index import UmziIndex
from repro.core.run import IndexRun, lower_bound


def _result_names(index: UmziIndex) -> list[str]:
    s = index.spec
    return (
        list(s.eq_cols)
        + list(s.sort_cols)
        + ["begin_ts", "rid_zone", "rid_block", "rid_off"]
        + list(s.include_cols)
    )


def _empty(index: UmziIndex) -> dict[str, np.ndarray]:
    return {c: np.empty(0, np.int64) for c in _result_names(index)}


def _concat(index: UmziIndex, parts: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    if not parts:
        return _empty(index)
    return {
        c: np.concatenate([p[c] for p in parts]) for c in _result_names(index)
    }


def _key_tuple(index: UmziIndex, res: dict[str, np.ndarray], i: int) -> tuple:
    s = index.spec
    return tuple(int(res[c][i]) for c in s.eq_cols + s.sort_cols)


# ----------------------------------------------------------------- range scan
def range_scan(
    index: UmziIndex,
    eq_values: tuple[int, ...] | None,
    sort_lo: tuple[int, ...] | None,
    sort_hi: tuple[int, ...] | None,
    query_ts: int,
    method: str = "pq",
) -> dict[str, np.ndarray]:
    """Unified multi-zone range scan; ``method`` ∈ {'set', 'pq'} (§7.1.2).

    Both methods return identical rows (tested); they differ in how
    duplicates across runs/zones are removed.
    """
    snap = index.query_snapshot()
    candidates = [
        h
        for h in snap.runs
        if h.run.synopsis_admits(eq_values, sort_lo, sort_hi)
    ]
    if method == "set":
        return _scan_set(index, candidates, eq_values, sort_lo, sort_hi, query_ts)
    if method == "pq":
        return _scan_pq(index, candidates, eq_values, sort_lo, sort_hi, query_ts)
    raise ValueError(f"unknown reconciliation method {method!r}")


def _scan_set(index, candidates, eq_values, sort_lo, sort_hi, query_ts):
    """Set approach: newest→oldest, keep first (= most recent) per key."""
    seen: set[tuple] = set()
    keep_parts: list[dict[str, np.ndarray]] = []
    for h in candidates:  # snapshot order is newest-first
        src = index.source_for(h.run)
        res = h.run.search(eq_values, sort_lo, sort_hi, query_ts, source=src)
        n = len(res["begin_ts"])
        if n == 0:
            continue
        mask = np.zeros(n, dtype=bool)
        for i in range(n):
            k = _key_tuple(index, res, i)
            if k not in seen:
                seen.add(k)
                mask[i] = True
        if mask.any():
            keep_parts.append({c: v[mask] for c, v in res.items()})
    return _concat(index, keep_parts)


def _scan_pq(index, candidates, eq_values, sort_lo, sort_hi, query_ts):
    """Priority-queue approach: k-way merge of per-run sorted results,
    emitting the most recent version per key (merge-sort style, §7.1.2)."""
    streams = []
    for rank, h in enumerate(candidates):
        src = index.source_for(h.run)
        res = h.run.search(eq_values, sort_lo, sort_hi, query_ts, source=src)
        if len(res["begin_ts"]):
            streams.append((rank, res))
    heap: list[tuple] = []
    for rank, res in streams:
        # (key, -beginTS, run_rank) ordering: global key order; within a
        # key the most recent version first; ties broken by run recency.
        k = _key_tuple(index, res, 0)
        heapq.heappush(heap, (k, -int(res["begin_ts"][0]), rank, 0, res))
    out_parts: list[dict[str, np.ndarray]] = []
    last_key: tuple | None = None
    while heap:
        k, _negts, rank, i, res = heapq.heappop(heap)
        if k != last_key:
            out_parts.append({c: v[i : i + 1] for c, v in res.items()})
            last_key = k
        if i + 1 < len(res["begin_ts"]):
            nk = _key_tuple(index, res, i + 1)
            heapq.heappush(
                heap, (nk, -int(res["begin_ts"][i + 1]), rank, i + 1, res)
            )
    return _concat(index, out_parts)


# --------------------------------------------------------------- point lookup
def point_lookup(
    index: UmziIndex,
    eq_values: tuple[int, ...] | None,
    sort_values: tuple[int, ...] | None,
    query_ts: int,
) -> dict[str, int] | None:
    """§7.2 — the most recent visible version of one key: a batch of one."""
    res = batch_lookup(
        index,
        [np.asarray([v]) for v in eq_values or ()],
        [np.asarray([v]) for v in sort_values or ()],
        query_ts,
    )
    if not len(res["begin_ts"]):
        return None
    return {c: int(v[0]) for c, v in res.items()}


# --------------------------------------------------------------- batch lookup
def batch_lookup(
    index: UmziIndex,
    eq_probes: list[np.ndarray],
    sort_probes: list[np.ndarray],
    query_ts: int,
    runs=None,
) -> dict[str, np.ndarray]:
    """§7.2 — batched point lookups.

    Runs are visited newest→oldest, each searched **only once** for all
    probes still pending, until every probe is found or the runs are
    exhausted. Returns one row per distinct found key — duplicate probes
    of a key give one row — in no particular order (join on the key).

    ``runs`` overrides the candidate run list (newest-first); the
    post-groomer uses this to consult only the post-groomed portion of
    the index when collecting to-be-replaced RIDs (§2.1/§5.4).
    """
    spec = index.spec
    eq = [np.asarray(p, np.int64) for p in eq_probes]
    sort = [np.asarray(p, np.int64) for p in sort_probes]
    if len(eq) != len(spec.eq_cols) or len(sort) != len(spec.sort_cols):
        raise ValueError("a lookup binds every key column (§7.2)")
    nprobe = len((eq + sort)[0])
    h = enc.hash_columns(eq) if eq else np.zeros(nprobe, np.uint64)
    # Probes over the run order (hash, key cols…, inverted ts): the entry
    # at a probe's lower bound is the key's newest version visible at
    # query_ts exactly when its key equals the probe's.
    tq = enc.invert_ts(enc.to_ordered_u64(np.full(nprobe, query_ts, np.int64)))
    probes = [h] + [enc.to_ordered_u64(c) for c in eq + sort] + [tq]

    found = np.zeros(nprobe, dtype=bool)
    parts: list[dict[str, np.ndarray]] = []
    candidates = index.query_snapshot().runs if runs is None else tuple(runs)
    for hd in candidates:
        pending = np.flatnonzero(~found)
        if not len(pending):
            break
        if eq:
            eq_min = tuple(int(c[pending].min()) for c in eq)
            eq_max = tuple(int(c[pending].max()) for c in eq)
            if not hd.run.synopsis_admits_batch(eq_min, eq_max):
                continue
        res, hit = _batch_in_run(index, hd.run, [p[pending] for p in probes])
        if res is not None:
            parts.append(res)
        found[pending[hit]] = True
    return _concat(index, parts)


def _batch_in_run(index, run: IndexRun, probes):
    """Search one run for all ``probes`` at once (§7.1.1): returns the
    decoded newest visible entry of each distinct found key (or None) and
    a mask of the probes found."""
    spec = run.spec
    src = index.source_for(run)
    lo, hi = run.bucket(probes[0])
    pos = lower_bound(src, spec.order_fields, probes, lo, hi)
    inside = np.flatnonzero(pos < hi)
    keys = spec.order_fields[1:-1]
    ent = src.take(keys, pos[inside])
    match = np.ones(len(inside), dtype=bool)
    for i, f in enumerate(keys, start=1):
        match &= ent[f] == probes[i][inside]
    hit = np.zeros(len(pos), dtype=bool)
    hit[inside[match]] = True
    rows = np.unique(pos[hit])
    if not len(rows):
        return None, hit
    return run._decode(src.take(spec.fields, rows)), hit
