"""Index-run format and single-run search — paper §4.2 and §7.1.1.

An index run is logically a sorted table of

    ``hash(eqCols) | eqCols… | sortCols… | beginTS (desc) | RID | includes…``

physically stored as one **header block** (metadata, the groomed-block-ID
range this run covers, a per-key-column min/max **synopsis**, and a
2ⁿ-entry **hash offset array**) plus fixed-size **data blocks**.

All ordering columns are kept in order-preserving uint64 encodings
(:mod:`repro.core.encoding`), so an ascending ``np.lexsort`` produces
exactly the paper's order — hash, equality columns, sort columns, and
*descending* beginTS (the timestamp is stored complemented).

Single-run search narrows the candidate range with the offset array
(most-significant ``hash_bits`` of the probe hash), then searches the
concatenated bound, iterates to the upper bound, filters
``beginTS <= queryTS``, and keeps the first (= most recent) entry per key
— the worked example of Fig. 2 in the paper is test-encoded in
``tests/test_run_search.py``. One vectorized kernel, :func:`lower_bound`,
does every such search, for all probes of a batch at once, through an
:class:`EntrySource` whether the run is memory-resident or block-backed.
"""
from __future__ import annotations

import io
import json
import uuid
from dataclasses import dataclass, field

import numpy as np

from repro.core import encoding as enc

GROOMED = "groomed"
POSTGROOMED = "postgroomed"

# RID zone codes (paper footnote 2: an RID = zone + block ID + offset).
ZONE_CODES = {GROOMED: 0, POSTGROOMED: 1}


@dataclass(frozen=True)
class IndexSpec:
    """Index definition (paper §4.1): equality + sort + included columns.

    ``hash_bits`` is *n* for the 2ⁿ-entry offset array; ``block_rows`` is
    the fixed data-block size in entries.
    """

    eq_cols: tuple[str, ...] = ()
    sort_cols: tuple[str, ...] = ()
    include_cols: tuple[str, ...] = ()
    hash_bits: int = 8
    block_rows: int = 4096

    def __post_init__(self):
        if not self.eq_cols and not self.sort_cols:
            raise ValueError("index needs at least one key column")
        if not 0 < self.hash_bits <= 32:
            raise ValueError("hash_bits must be in (0, 32]")
        if self.block_rows < 1:
            raise ValueError("block_rows must be positive")
        overlap = set(self.eq_cols) & set(self.sort_cols)
        if overlap:
            raise ValueError(f"column in both eq and sort: {overlap}")

    @property
    def key_cols(self) -> tuple[str, ...]:
        return self.eq_cols + self.sort_cols

    @property
    def fields(self) -> tuple[str, ...]:
        """Physical column order inside a data block (all uint64)."""
        return (
            ("h",)
            + tuple(f"k{i}" for i in range(len(self.eq_cols)))
            + tuple(f"s{i}" for i in range(len(self.sort_cols)))
            + ("t", "z", "b", "o")
            + tuple(f"i{i}" for i in range(len(self.include_cols)))
        )

    @property
    def order_fields(self) -> tuple[str, ...]:
        """The fields a run is sorted by: hash, key columns, inverted ts."""
        return self.fields[: len(self.key_cols) + 2]

    def to_json(self) -> dict:
        return {
            "eq_cols": list(self.eq_cols),
            "sort_cols": list(self.sort_cols),
            "include_cols": list(self.include_cols),
            "hash_bits": self.hash_bits,
            "block_rows": self.block_rows,
        }

    @classmethod
    def from_json(cls, d: dict) -> "IndexSpec":
        return cls(
            eq_cols=tuple(d["eq_cols"]),
            sort_cols=tuple(d["sort_cols"]),
            include_cols=tuple(d["include_cols"]),
            hash_bits=d["hash_bits"],
            block_rows=d["block_rows"],
        )


class EntrySource:
    """Random access to one run's (encoded) entries, for one query.

    All searches read through :meth:`take`, so one kernel serves
    memory-resident runs and SSD/shared-storage block-backed runs. A data
    block is loaded on its first touch only: each block costs one read per
    (run, query), the batch amortization of §8.3.2 ("once an index block
    is fetched into memory for the lookup of a particular key, no
    additional I/O is required to fetch that block again").
    """

    def __init__(self, spec: IndexSpec, n_entries: int):
        self.spec = spec
        self.n_entries = n_entries
        self._touched = np.zeros(max(1, -(-n_entries // spec.block_rows)), dtype=bool)

    def take(self, fields, positions: np.ndarray) -> dict[str, np.ndarray]:
        """``fields`` of the entries at ``positions`` (int64 array)."""
        blocks = positions // self.spec.block_rows
        fresh = blocks[~self._touched[blocks]]
        if len(fresh):
            fresh = np.unique(fresh)
            self._touched[fresh] = True
            self._load(fresh)
        return self._gather(fields, positions, blocks)

    def _load(self, blocks: np.ndarray) -> None:
        """Make ``blocks`` (touched for the first time) readable."""
        raise NotImplementedError

    def _gather(self, fields, positions: np.ndarray, blocks: np.ndarray) -> dict[str, np.ndarray]:
        """``take`` once every block in ``blocks`` (of ``positions``) is loaded."""
        raise NotImplementedError


class MemorySource(EntrySource):
    """Entries fully resident as numpy columns; a block's first touch
    charges one modelled SSD read to the ambient ``capture_io`` scope."""

    def __init__(self, run: "IndexRun"):
        super().__init__(run.spec, run.n_entries)
        self.cols = run.cols

    def _load(self, blocks: np.ndarray) -> None:
        # Imported here: repro.storage imports this module.
        from repro.storage.tiers import charge_cached_blocks

        spec = self.spec
        charge_cached_blocks(len(blocks), spec.block_rows * 8 * len(spec.fields))

    def _gather(self, fields, positions, blocks):
        return {f: self.cols[f][positions] for f in fields}


# Pivots one round of the search kernel reads within a block, shared by
# the unresolved probes. Each numpy call costs about a microsecond whatever
# its size, so a single search splits its range up to 128 ways and ends
# in two rounds, while a large batch bisects and keeps its arrays small.
PIVOTS = 256
_U64_MAX = (1 << 64) - 1


def _ordered(v: int) -> int:
    """Order-preserving uint64 encoding of one int64 key value."""
    return int(enc.to_ordered_u64(np.asarray([v], np.int64))[0])


def lower_bound(
    src: EntrySource,
    fields,
    probes: list[np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    right=False,
) -> np.ndarray:
    """Per probe, the first position in ``[lo, hi)`` whose entry is not
    below the probe, or ``hi`` if there is none (§7.1.1's binary search).

    Entries and probes compare lexicographically over ``fields``;
    ``probes`` holds one uint64 array per field. Where ``right`` (a bool,
    or one per probe) is set, an entry equal to the probe also counts as
    below, as with ``np.searchsorted(side="right")``. All probes advance
    together, each round reading the pivots of every unresolved probe in
    one ``src.take``.
    """
    out = np.array(lo, dtype=np.int64)
    span = np.asarray(hi, dtype=np.int64) - out
    idx = np.flatnonzero(span > 0)
    a, span = out[idx], span[idx]
    key = np.array(probes)[:, idx, None]
    right = np.full(out.shape, right)[idx, None]
    while len(idx):
        # Ranges wider than a block are bisected, so a search reads about
        # log2(blocks) blocks. Pivot j sits at a + (j * span) // fan.
        wide = span.max() > src.spec.block_rows
        fan = 2 if wide else max(2, PIVOTS // len(idx))
        piv = a[:, None] + (span[:, None] * np.arange(1, fan)) // fan
        ent = src.take(fields, piv.ravel())
        val = np.array([ent[f] for f in fields]).reshape((len(fields),) + piv.shape)
        less, same = val < key, val == key
        below = right
        for f in range(len(fields) - 1, -1, -1):
            below = less[f] | (same[f] & below)
        # Entries are sorted, so ``below`` is a prefix of each probe's
        # pivots: the bound lies after pivot c - 1 and at or before pivot c.
        c = below.sum(axis=1)
        cut = (c * span) // fan + (c > 0)
        a, span = a + cut, ((c + 1) * span) // fan - cut
        done = span <= 0
        if done.any():
            out[idx[done]] = a[done]
            keep = ~done
            idx, a, span, key, right = idx[keep], a[keep], span[keep], key[:, keep], right[keep]
    return out


class IndexRun:
    """One sorted, immutable index run (header + data blocks)."""

    def __init__(
        self,
        spec: IndexSpec,
        *,
        run_id: str,
        zone: str,
        level: int,
        gbid_lo: int,
        gbid_hi: int,
        cols: dict[str, np.ndarray],
        offset_array: np.ndarray,
        synopsis: dict[str, tuple[int, int]],
        ancestors: tuple[str, ...] = (),
    ):
        self.spec = spec
        self.run_id = run_id
        self.zone = zone
        self.level = level
        self.gbid_lo = gbid_lo
        self.gbid_hi = gbid_hi
        self.cols = cols  # encoded uint64 columns, keyed by spec.fields
        self.offset_array = offset_array
        self.synopsis = synopsis
        self.ancestors = tuple(ancestors)
        self.n_entries = 0 if not cols else len(next(iter(cols.values())))

    # ------------------------------------------------------------------ build
    @classmethod
    def build(
        cls,
        spec: IndexSpec,
        *,
        zone: str,
        level: int,
        gbid_lo: int,
        gbid_hi: int,
        eq: dict[str, np.ndarray] | None = None,
        sorts: dict[str, np.ndarray] | None = None,
        begin_ts: np.ndarray,
        rid_zone: np.ndarray,
        rid_block: np.ndarray,
        rid_off: np.ndarray,
        includes: dict[str, np.ndarray] | None = None,
        ancestors: tuple[str, ...] = (),
        run_id: str | None = None,
    ) -> "IndexRun":
        """Build a run from unsorted raw int64 entry columns (paper §5.2).

        Scans the entries, sorts them in the paper's order, and computes
        the offset array and the synopsis on the fly.
        """
        eq = eq or {}
        sorts = sorts or {}
        includes = includes or {}
        if set(eq) != set(spec.eq_cols) or set(sorts) != set(spec.sort_cols):
            raise ValueError("entry columns do not match the index spec")
        n = len(begin_ts)

        eq_arrays = [np.asarray(eq[c], dtype=np.int64) for c in spec.eq_cols]
        sort_arrays = [np.asarray(sorts[c], dtype=np.int64) for c in spec.sort_cols]
        h = enc.hash_columns(eq_arrays) if spec.eq_cols else np.zeros(n, np.uint64)

        cols: dict[str, np.ndarray] = {"h": h}
        for i, a in enumerate(eq_arrays):
            cols[f"k{i}"] = enc.to_ordered_u64(a)
        for i, a in enumerate(sort_arrays):
            cols[f"s{i}"] = enc.to_ordered_u64(a)
        cols["t"] = enc.invert_ts(enc.to_ordered_u64(np.asarray(begin_ts, np.int64)))
        cols["z"] = np.asarray(rid_zone, dtype=np.uint64)
        cols["b"] = np.asarray(rid_block, dtype=np.uint64)
        cols["o"] = np.asarray(rid_off, dtype=np.uint64)
        for i, c in enumerate(spec.include_cols):
            cols[f"i{i}"] = enc.to_ordered_u64(np.asarray(includes[c], np.int64))

        # np.lexsort sorts by the *last* key first → reverse priority order.
        perm = np.lexsort([cols[f] for f in reversed(spec.order_fields)])
        cols = {f: np.ascontiguousarray(cols[f][perm]) for f in spec.fields}

        offset_array = cls._offsets(cols["h"], spec.hash_bits)
        synopsis = {}
        for name, arr in list(zip(spec.eq_cols, eq_arrays)) + list(
            zip(spec.sort_cols, sort_arrays)
        ):
            if n:
                synopsis[name] = (int(arr.min()), int(arr.max()))
            else:
                synopsis[name] = (0, -1)  # empty range

        return cls(
            spec,
            run_id=run_id or f"{zone[0]}-{gbid_lo:08d}-{gbid_hi:08d}-L{level}-{uuid.uuid4().hex[:8]}",
            zone=zone,
            level=level,
            gbid_lo=gbid_lo,
            gbid_hi=gbid_hi,
            cols=cols,
            offset_array=offset_array,
            synopsis=synopsis,
            ancestors=ancestors,
        )

    @staticmethod
    def _offsets(h_sorted: np.ndarray, bits: int) -> np.ndarray:
        """2ⁿ-entry offset array: bucket i → first row whose top-n bits ≥ i."""
        top = (h_sorted >> np.uint64(64 - bits)).astype(np.int64)
        return np.searchsorted(top, np.arange(1 << bits, dtype=np.int64), side="left")

    # ------------------------------------------------------------ merge build
    @classmethod
    def merge_runs(
        cls,
        runs: list["IndexRun"],
        *,
        level: int,
        ancestors: tuple[str, ...] = (),
        run_id: str | None = None,
    ) -> "IndexRun":
        """Merge several runs of one zone into a new sorted run (§5.3).

        All versions are retained — Umzi is a multi-version index, and the
        groomed/post-groomed duplicate elimination happens at query time
        (§5.4), never inside a zone merge. Only *identical* entries
        (same key, beginTS and RID — possible when an evolve raced a
        merge) collapse.
        """
        if not runs:
            raise ValueError("nothing to merge")
        spec = runs[0].spec
        zone = runs[0].zone
        if any(r.zone != zone for r in runs):
            raise ValueError("Umzi only merges runs within the same zone (§4.3)")
        cols = {
            f: np.concatenate([r.cols[f] for r in runs]) for f in spec.fields
        }
        perm = np.lexsort([cols[f] for f in reversed(spec.order_fields)])
        cols = {f: np.ascontiguousarray(cols[f][perm]) for f in spec.fields}
        n = len(perm)
        if n:
            dup = np.ones(n, dtype=bool)
            same = np.ones(n - 1, dtype=bool)
            for f in spec.order_fields + ("z", "b", "o"):
                same &= cols[f][1:] == cols[f][:-1]
            dup[1:] = ~same
            if not dup.all():
                cols = {f: np.ascontiguousarray(a[dup]) for f, a in cols.items()}
        gbid_lo = min(r.gbid_lo for r in runs)
        gbid_hi = max(r.gbid_hi for r in runs)
        synopsis = {}
        for c in spec.key_cols:
            los = [r.synopsis[c][0] for r in runs if r.n_entries]
            his = [r.synopsis[c][1] for r in runs if r.n_entries]
            synopsis[c] = (min(los), max(his)) if los else (0, -1)
        return cls(
            spec,
            run_id=run_id
            or f"{zone[0]}-{gbid_lo:08d}-{gbid_hi:08d}-L{level}-{uuid.uuid4().hex[:8]}",
            zone=zone,
            level=level,
            gbid_lo=gbid_lo,
            gbid_hi=gbid_hi,
            cols=cols,
            offset_array=cls._offsets(cols["h"], spec.hash_bits),
            synopsis=synopsis,
            ancestors=ancestors,
        )

    # --------------------------------------------------------------- synopsis
    def synopsis_admits(
        self,
        eq_values: tuple[int, ...] | None,
        sort_lo: tuple[int, ...] | None,
        sort_hi: tuple[int, ...] | None,
    ) -> bool:
        """Run-pruning check (§4.2/§7): every constrained key column must
        overlap the synopsis range, else the run is skipped."""
        if self.n_entries == 0:
            return False
        if eq_values is not None:
            for c, v in zip(self.spec.eq_cols, eq_values):
                lo, hi = self.synopsis[c]
                if not (lo <= int(v) <= hi):
                    return False
        if self.spec.sort_cols:
            c0 = self.spec.sort_cols[0]
            lo, hi = self.synopsis[c0]
            if sort_lo is not None and int(sort_lo[0]) > hi:
                return False
            if sort_hi is not None and int(sort_hi[0]) < lo:
                return False
        return True

    def synopsis_admits_batch(
        self, eq_min: tuple[int, ...], eq_max: tuple[int, ...]
    ) -> bool:
        """Batch variant: does [batch min, batch max] of each equality
        column overlap the synopsis? Sequential batches are narrow and
        prune most runs; random batches span everything (Fig. 10 vs 11)."""
        if self.n_entries == 0:
            return False
        for c, vmin, vmax in zip(self.spec.eq_cols, eq_min, eq_max):
            lo, hi = self.synopsis[c]
            if int(vmax) < lo or int(vmin) > hi:
                return False
        return True

    # ----------------------------------------------------------------- search
    def bucket(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Offset-array range ``[lo, hi)`` holding every entry whose hash
        shares the top ``hash_bits`` of each of ``h`` (§4.2). A pure
        range index hashes every entry to 0: the range is the whole run."""
        top = (h >> np.uint64(64 - self.spec.hash_bits)).astype(np.int64)
        oa = self.offset_array
        return oa[top], np.append(oa[1:], self.n_entries)[top]

    def search(
        self,
        eq_values: tuple[int, ...] | None,
        sort_lo: tuple[int, ...] | None,
        sort_hi: tuple[int, ...] | None,
        query_ts: int,
        source: EntrySource | None = None,
    ) -> dict[str, np.ndarray]:
        """§7.1.1 — most recent visible version per key within this run.

        ``eq_values`` must bind *all* equality columns (or None iff the
        index has none). ``sort_lo``/``sort_hi`` are inclusive bounds on
        the sort-column tuple (None = unbounded). Entries with
        ``beginTS > query_ts`` are invisible.
        """
        spec = self.spec
        if spec.eq_cols and (eq_values is None or len(eq_values) != len(spec.eq_cols)):
            raise ValueError("all equality columns must be specified (§7)")
        src = source or MemorySource(self)

        # Lower and upper bound of (hash, eq cols…, first sort col) in one
        # kernel call; an unbounded side takes the extreme uint64 value.
        eq = tuple(int(v) for v in eq_values or ())
        key = [enc.hash_scalar(eq)] + [_ordered(v) for v in eq]
        lo_key, hi_key = list(key), list(key)
        if spec.sort_cols:
            lo_key.append(0 if sort_lo is None else _ordered(sort_lo[0]))
            hi_key.append(_U64_MAX if sort_hi is None else _ordered(sort_hi[0]))
        probes = [np.asarray(p, dtype=np.uint64) for p in zip(lo_key, hi_key)]
        lo, hi = self.bucket(probes[0])
        a, b = lower_bound(
            src, spec.fields[: len(lo_key)], probes, lo, hi,
            right=np.asarray([False, True]),
        ).tolist()
        if a >= b:
            return self._empty_result()

        sub = src.take(spec.fields, np.arange(a, b))

        # Remaining sort columns (beyond s0) get an exact tuple filter.
        if len(spec.sort_cols) > 1 and (sort_lo is not None or sort_hi is not None):
            keep = np.ones(b - a, dtype=bool)
            for i in range(1, len(spec.sort_cols)):
                col = enc.from_ordered_u64(sub[f"s{i}"])
                if sort_lo is not None and len(sort_lo) > i:
                    keep &= col >= int(sort_lo[i])
                if sort_hi is not None and len(sort_hi) > i:
                    keep &= col <= int(sort_hi[i])
            sub = {f: v[keep] for f, v in sub.items()}

        # Timestamp predicate: beginTS <= queryTS ⇔ inverted-ts >= inv(qts).
        tq = int(
            enc.invert_ts(enc.to_ordered_u64(np.asarray([query_ts], np.int64)))[0]
        )
        keep = sub["t"] >= np.uint64(tq)
        sub = {f: v[keep] for f, v in sub.items()}
        m = len(sub["t"])
        if m == 0:
            return self._empty_result()

        # First entry per key == most recent visible version (ts sorted desc).
        key_fields = [f"k{i}" for i in range(len(spec.eq_cols))] + [
            f"s{i}" for i in range(len(spec.sort_cols))
        ]
        first = np.ones(m, dtype=bool)
        if m > 1 and key_fields:
            same = np.ones(m - 1, dtype=bool)
            for f in key_fields:
                same &= sub[f][1:] == sub[f][:-1]
            first[1:] = ~same
        sub = {f: v[first] for f, v in sub.items()}
        return self._decode(sub)

    def lookup(
        self,
        eq_values: tuple[int, ...] | None,
        sort_values: tuple[int, ...] | None,
        query_ts: int,
        source: EntrySource | None = None,
    ) -> dict[str, np.ndarray]:
        """Point lookup: full key, ≤ 1 entry (§7.2) — a degenerate range
        scan where the sort lower and upper bounds coincide."""
        return self.search(eq_values, sort_values, sort_values, query_ts, source)

    # ----------------------------------------------------------------- decode
    def _empty_result(self) -> dict[str, np.ndarray]:
        return self._decode({f: np.empty(0, np.uint64) for f in self.spec.fields})

    def _decode(self, sub: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Encoded internal fields → user-facing named int64 columns."""
        spec = self.spec
        out: dict[str, np.ndarray] = {}
        for i, c in enumerate(spec.eq_cols):
            out[c] = enc.from_ordered_u64(sub[f"k{i}"])
        for i, c in enumerate(spec.sort_cols):
            out[c] = enc.from_ordered_u64(sub[f"s{i}"])
        out["begin_ts"] = enc.from_ordered_u64(enc.invert_ts(sub["t"]))
        out["rid_zone"] = sub["z"].astype(np.int64)
        out["rid_block"] = sub["b"].astype(np.int64)
        out["rid_off"] = sub["o"].astype(np.int64)
        for i, c in enumerate(spec.include_cols):
            out[c] = enc.from_ordered_u64(sub[f"i{i}"])
        return out

    # ------------------------------------------------------------ persistence
    @property
    def n_blocks(self) -> int:
        return max(1, -(-self.n_entries // self.spec.block_rows))

    def header_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "zone": self.zone,
            "level": self.level,
            "gbid_lo": self.gbid_lo,
            "gbid_hi": self.gbid_hi,
            "n_entries": self.n_entries,
            "n_blocks": self.n_blocks,
            "spec": self.spec.to_json(),
            "offset_array": [int(x) for x in self.offset_array],
            "synopsis": {k: [int(v[0]), int(v[1])] for k, v in self.synopsis.items()},
            "ancestors": list(self.ancestors),
        }

    def block_bytes(self, i: int) -> bytes:
        """Serialize data block i: each field's row-slice, concatenated."""
        a = i * self.spec.block_rows
        b = min(self.n_entries, a + self.spec.block_rows)
        buf = io.BytesIO()
        for f in self.spec.fields:
            buf.write(np.ascontiguousarray(self.cols[f][a:b]).tobytes())
        return buf.getvalue()

    @staticmethod
    def decode_block(spec: IndexSpec, data: bytes, rows: int) -> dict[str, np.ndarray]:
        out = {}
        off = 0
        for f in spec.fields:
            nb = rows * 8
            out[f] = np.frombuffer(data, dtype=np.uint64, count=rows, offset=off)
            off += nb
        return out

    @classmethod
    def from_header_and_blocks(
        cls, header: dict, blocks: list[bytes]
    ) -> "IndexRun":
        """Rebuild a fully-resident run from its persisted form (§5.5)."""
        spec = IndexSpec.from_json(header["spec"])
        n = header["n_entries"]
        cols = {f: [] for f in spec.fields}
        remaining = n
        for blk in blocks:
            rows = min(spec.block_rows, remaining)
            d = cls.decode_block(spec, blk, rows)
            for f in spec.fields:
                cols[f].append(d[f])
            remaining -= rows
        merged = {
            f: (np.concatenate(v) if v else np.empty(0, np.uint64))
            for f, v in cols.items()
        }
        return cls(
            spec,
            run_id=header["run_id"],
            zone=header["zone"],
            level=header["level"],
            gbid_lo=header["gbid_lo"],
            gbid_hi=header["gbid_hi"],
            cols=merged,
            offset_array=np.asarray(header["offset_array"], dtype=np.int64),
            synopsis={k: (v[0], v[1]) for k, v in header["synopsis"].items()},
            ancestors=tuple(header["ancestors"]),
        )

    def approx_bytes(self) -> int:
        return self.n_entries * 8 * len(self.spec.fields)

    def header_bytes(self) -> bytes:
        return json.dumps(self.header_json()).encode()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"IndexRun({self.run_id}, zone={self.zone}, L{self.level}, "
            f"gbids=[{self.gbid_lo},{self.gbid_hi}], n={self.n_entries})"
        )
