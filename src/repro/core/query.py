"""Index queries over the multi-run structure — paper §7.

Two query types: **range scans** (all equality columns bound + bounds on
the sort columns) and **point lookups** (entire key bound). Both take a
``query_ts`` and return only the most recent version per key with
``beginTS <= query_ts`` (snapshot semantics, §7).

Reconciliation across runs (§7.1.2) is one stable ``argsort`` of the
per-run results stacked newest run first, by their memcmp key (§4.2):
key columns, then newest ``beginTS``. The first row of each key is its
most recent version, and a version held by two runs comes from the newer
one. The paper's two approaches then differ only in output order: the
**priority-queue approach** (a k-way merge of per-run sorted results)
emits in key order, the **set approach** (search newest→oldest, skip keys
already returned) in run order.

Batched point lookups visit runs newest→oldest, searching
each for all pending probes at once, with per-probe early exit (§7.2);
a point lookup is a batch of one. Run-level synopsis
pruning uses the batch's key envelope, which is what makes sequential
batches much cheaper than random ones (Fig. 10 vs 11).
"""
from __future__ import annotations

import numpy as np

from repro.core import encoding as enc
from repro.core.index import UmziIndex
from repro.core.run import IndexRun, IndexSpec, search_sorted


def _empty(spec: IndexSpec) -> dict[str, np.ndarray]:
    return {c: np.empty(0, np.int64) for c in spec.result_cols}


def _concat(spec: IndexSpec, parts: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    if not parts:
        return _empty(spec)
    return {c: np.concatenate([p[c] for p in parts]) for c in spec.result_cols}


def reconcile(
    spec: IndexSpec, parts: list[dict[str, np.ndarray]], method: str
) -> dict[str, np.ndarray]:
    """The newest version of each key in ``parts`` (§7.1.2): per-run
    results, newest run first, each holding a key at most once.

    One stable ``argsort`` of the stacked results' memcmp key (key
    columns, then descending ``begin_ts``) puts each key's newest version
    first; a tie goes to the row stacked first, from the newer run.
    ``pq`` returns the kept rows in key order; ``set`` in run order, each
    run's rows in their own order.
    """
    cols = _concat(spec, parts)
    ordered = [enc.to_ordered_u64(cols[c]) for c in spec.key_cols]
    ordered.append(enc.invert_ts(enc.to_ordered_u64(cols["begin_ts"])))
    order = np.argsort(enc.memcmp_key(ordered), kind="stable")
    keys = enc.memcmp_key([o[order] for o in ordered[:-1]])
    first = np.ones(len(order), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    rows = order[first]
    if method == "set":
        rows.sort()
    return {c: a[rows] for c, a in cols.items()}


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

    Both methods return the same rows (tested): ``pq`` in key order,
    ``set`` in run order (see :func:`reconcile`).
    """
    if method not in ("set", "pq"):
        raise ValueError(f"unknown reconciliation method {method!r}")
    with index.query_snapshot() as snap:
        parts = [
            h.run.search(eq_values, sort_lo, sort_hi, query_ts, source=index.source_for(h.run))
            for h in snap.runs  # newest-first
            if h.run.synopsis_admits(eq_values, sort_lo, sort_hi)
        ]
    return reconcile(index.spec, parts, method)


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
    the index when collecting to-be-replaced RIDs (§2.1/§5.4). Its caller
    holds the snapshot they come from.
    """
    spec = index.spec
    eq = [np.asarray(p, np.int64) for p in eq_probes]
    sort = [np.asarray(p, np.int64) for p in sort_probes]
    if len(eq) != len(spec.eq_cols) or len(sort) != len(spec.sort_cols):
        raise ValueError("a lookup binds every key column (§7.2)")
    nprobe = len((eq + sort)[0])
    h = enc.hash_columns(eq) if eq else np.zeros(nprobe, np.uint64)
    # Probe keys over the run order (hash, key cols…, inverted ts): the
    # entry at a probe's lower bound is the key's newest version visible
    # at query_ts exactly when its key equals the probe's. Put in hash
    # order once, so that every run's search walks its keys in order.
    order = np.argsort(h)
    h, eq, sort = h[order], [c[order] for c in eq], [c[order] for c in sort]
    tq = enc.invert_ts(enc.to_ordered_u64(np.full(nprobe, query_ts, np.int64)))
    needles = enc.memcmp_key([h] + [enc.to_ordered_u64(c) for c in eq + sort] + [tq])

    if runs is not None:
        return _lookup_runs(index, runs, needles, eq)
    with index.query_snapshot() as snap:
        return _lookup_runs(index, snap.runs, needles, eq)


def _lookup_runs(index, runs, needles, eq):
    """Search ``runs`` newest→oldest for the pending probes (§7.2)."""
    found = np.zeros(len(needles), dtype=bool)
    parts: list[dict[str, np.ndarray]] = []
    for hd in runs:
        pending = np.flatnonzero(~found)
        if not len(pending):
            break
        if eq:
            eq_min = tuple(int(c[pending].min()) for c in eq)
            eq_max = tuple(int(c[pending].max()) for c in eq)
            if not hd.run.synopsis_admits_batch(eq_min, eq_max):
                continue
        res, hit = _batch_in_run(index, hd.run, needles[pending])
        if res is not None:
            parts.append(res)
        found[pending[hit]] = True
    return _concat(index.spec, parts)


def _batch_in_run(index, run: IndexRun, needles):
    """Search one run for all probe keys ``needles`` at once (§7.1.1):
    returns the decoded newest visible entry of each distinct found key
    (or None) and a mask of the probes found."""
    spec = run.spec
    src = index.source_for(run)
    lo, hi = run.bucket(enc.key_columns(needles)[:, 0])
    pos = search_sorted(src, needles, lo, hi)
    inside = np.flatnonzero(pos < hi)
    # A probe is found where the entry at its bound has its key: every
    # order field but the timestamp.
    nkey = len(spec.order_fields) - 1
    match = enc.key_prefix(src.keys(pos[inside]), nkey) == enc.key_prefix(needles[inside], nkey)
    hit = np.zeros(len(pos), dtype=bool)
    hit[inside[match]] = True
    rows = np.unique(pos[hit])
    if not len(rows):
        return None, hit
    return run._decode(src.take(spec.fields, rows)), hit
