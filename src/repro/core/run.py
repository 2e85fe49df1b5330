"""Index-run format and single-run search — paper §4.2 and §7.1.1.

An index run is logically a sorted table of

    ``hash(eqCols) | eqCols… | sortCols… | beginTS (desc) | RID | includes…``

physically stored as one **header block** (metadata, the groomed-block-ID
range this run covers, a per-key-column min/max **synopsis**, and a
2ⁿ-entry **hash offset array**) plus fixed-size **data blocks**. An
:class:`IndexRun` always holds its header, and its entries only while it
is resident; a persisted run is read block by block through its cache.

All ordering columns are kept in order-preserving uint64 encodings
(:mod:`repro.core.encoding`) and stored side by side, big-endian, as one
memcmp key per entry (``IndexRun.key``, ``enc.memcmp_key``), which sorts
in exactly the paper's order — hash, equality columns, sort columns, and
*descending* beginTS (the timestamp is stored complemented). The other
fields are native uint64 columns. The RID — zone + block ID + offset
(footnote 2) — is one packed uint64 field: zone in bit 63, block ID in 39
bits, offset in the low 24 bits, so an entry with no included column
takes ``(key columns + 3) × 8`` bytes. A data block holds its rows' keys,
then its other fields column by column.

Single-run search narrows the candidate range with the offset array
(most-significant ``hash_bits`` of the probe hash), then searches the
concatenated bound, iterates to the upper bound, filters
``beginTS <= queryTS``, and keeps the first (= most recent) entry per key
— the worked example of Fig. 2 in the paper is test-encoded in
``tests/test_run_search.py``. One vectorized kernel, :func:`search_sorted`,
does every such search, for all probes of a batch at once, through an
:class:`EntrySource` whether the run is memory-resident or block-backed:
it bisects a range only while it reaches into a block not read yet, then
ends with one ``np.searchsorted`` over the keys, as an SSTable search does.
"""
from __future__ import annotations

import io
import uuid
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core import encoding as enc

GROOMED = "groomed"
POSTGROOMED = "postgroomed"

# RID zone codes (paper footnote 2: an RID = zone + block ID + offset).
ZONE_CODES = {GROOMED: 0, POSTGROOMED: 1}

# An entry's RID is one uint64 field ``r``: the zone in bit 63, the block
# ID in the 39 bits below it and the record offset in the low 24 bits.
RID_BLOCK_BITS = 39
RID_OFF_BITS = 24
_RID_NAMES = ("rid_zone", "rid_block", "rid_off")
# Per part, as a column: its shift within ``r`` and its largest value,
# which is also its mask once shifted down.
_RID_SHIFT = np.array([[RID_BLOCK_BITS + RID_OFF_BITS], [RID_OFF_BITS], [0]], np.uint64)
_RID_MASK = np.array([[1], [(1 << RID_BLOCK_BITS) - 1], [(1 << RID_OFF_BITS) - 1]], np.uint64)


def pack_rid(rid_zone, rid_block, rid_off) -> np.ndarray:
    """Three RID part columns → one packed uint64 column.

    Raises ``OverflowError`` if a part is outside its bit range. One part
    at a time, so a build holds no more than two extra columns at once.
    """
    r = None
    for name, top, shift, part in zip(
        _RID_NAMES, _RID_MASK[:, 0], _RID_SHIFT[:, 0], (rid_zone, rid_block, rid_off)
    ):
        # A negative part turns into a value above ``top`` in the view.
        a = np.asarray(part, dtype=np.int64).view(np.uint64)
        if (a > top).any():
            raise OverflowError(f"{name} outside [0, {top}]")
        a = a << shift
        r = a if r is None else r | a
    return r


def unpack_rid(r: np.ndarray) -> np.ndarray:
    """A packed uint64 RID column → a ``(3, n)`` int64 matrix whose rows
    are its zone, block and offset columns."""
    return ((r >> _RID_SHIFT) & _RID_MASK).view(np.int64)


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

    @cached_property  # read on every search; the spec is immutable
    def fields(self) -> tuple[str, ...]:
        """Physical column order inside a data block (all uint64): hash,
        key columns, inverted beginTS, the packed RID ``r``, included
        columns."""
        return (
            ("h",)
            + tuple(f"k{i}" for i in range(len(self.eq_cols)))
            + tuple(f"s{i}" for i in range(len(self.sort_cols)))
            + ("t", "r")
            + tuple(f"i{i}" for i in range(len(self.include_cols)))
        )

    @cached_property
    def result_cols(self) -> tuple[str, ...]:
        """Named columns of a search result, in ``fields[1:]`` order, with
        ``r`` unpacked into its three parts."""
        return (
            self.eq_cols
            + self.sort_cols
            + ("begin_ts", "rid_zone", "rid_block", "rid_off")
            + self.include_cols
        )

    @cached_property
    def decode_xor(self) -> np.ndarray:
        """Per field after the hash, the XOR that turns its stored uint64
        into the int64 value: the sign flip for key and included columns,
        the sign flip and complement for the inverted beginTS, and nothing
        for the packed RID."""
        sign = 1 << 63
        masks = (
            [sign] * len(self.key_cols)
            + [sign ^ _U64_MAX, 0]
            + [sign] * len(self.include_cols)
        )
        xor = np.asarray(masks, dtype=np.uint64)[:, None]
        xor.flags.writeable = False  # shared by every search of this spec
        return xor

    @cached_property
    def bucket_keys(self) -> np.ndarray:
        """The smallest memcmp key of each offset-array bucket: its first
        hash value (bucket i ← ``i << (64 - hash_bits)``), then zeros. A
        run's 2ⁿ-entry offset array is one search of them in its key:
        bucket i starts at the first row whose top-n hash bits ≥ i."""
        n = 1 << self.hash_bits
        firsts = np.arange(n, dtype=np.uint64) << np.uint64(64 - self.hash_bits)
        key = enc.memcmp_key([firsts] + [np.zeros(n, np.uint64)] * (len(self.order_fields) - 1))
        key.flags.writeable = False  # shared by every run of this spec
        return key

    @property
    def order_fields(self) -> tuple[str, ...]:
        """The fields a run is sorted by, which make up its memcmp key:
        hash, key columns, inverted ts."""
        return self.fields[: len(self.key_cols) + 2]

    @property
    def rest_fields(self) -> tuple[str, ...]:
        """The fields kept as uint64 columns: the RID, included columns."""
        return self.fields[len(self.key_cols) + 2 :]

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

    All searches read through :meth:`keys`, :meth:`take` and
    :meth:`search_blocks`, so one kernel serves memory-resident runs and
    SSD/shared-storage block-backed runs. Both hold the run's arrays
    indexed by run position: ``key``, the memcmp keys (§4.2), and
    ``cols``, every field by name; a subclass makes a block's rows of them
    readable in :meth:`_load`. A data block is loaded on its first touch
    only: each block costs one read per (run, query), the batch
    amortization of §8.3.2 ("once an index block is fetched into memory
    for the lookup of a particular key, no additional I/O is required to
    fetch that block again").
    """

    def __init__(self, spec: IndexSpec, n_entries: int, key: np.ndarray, cols: dict[str, np.ndarray]):
        self.spec = spec
        self.n_entries = n_entries
        self.key = key
        self.cols = cols
        self._touched = np.zeros(max(1, -(-n_entries // spec.block_rows)), dtype=bool)

    def touch(self, positions: np.ndarray) -> np.ndarray:
        """Load the blocks of ``positions`` (int64) not loaded yet;
        returns the block of each position."""
        blocks = positions // self.spec.block_rows
        fresh = blocks[~self._touched[blocks]]
        if len(fresh):
            fresh = np.unique(fresh)
            self._touched[fresh] = True
            self._load(fresh)
        return blocks

    def take(self, fields, positions: np.ndarray) -> dict[str, np.ndarray]:
        """``fields`` of the entries at ``positions`` (int64 array)."""
        self.touch(positions)
        return {f: self.cols[f][positions] for f in fields}

    def keys(self, positions: np.ndarray) -> np.ndarray:
        """The memcmp keys (order fields, §4.2) of the entries at
        ``positions``."""
        self.touch(positions)
        return np.take(self.key, positions)

    def loaded(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Whether every block of each non-empty range ``[a, b)`` is loaded."""
        br = self.spec.block_rows
        first, last = a // br, (b - 1) // br
        done = np.cumsum(self._touched)  # blocks loaded up to each block
        return done[last] - done[first] + self._touched[first] == last - first + 1

    def search_blocks(self, needles, a, b, right: np.ndarray) -> np.ndarray:
        """:func:`search_sorted` once each non-empty ``[a, b)`` lies in
        one block or in loaded blocks: the first block of each range is
        touched, and every range searched, on the right side where
        ``right`` (one bool per needle), else on the left."""
        raise NotImplementedError

    def _load(self, blocks: np.ndarray) -> None:
        """Make the rows of ``blocks`` (touched for the first time)
        readable in ``key`` and ``cols``, charging one read of each."""
        raise NotImplementedError


class MemorySource(EntrySource):
    """Entries fully resident in the run's key and columns; a block's
    first touch charges one modelled SSD read of the bytes the stored
    block holds to the ambient ``capture_io`` scope, as a
    :class:`~repro.storage.cache.BlockSource` read of it from the SSD
    would.

    Only a run resident by configuration has them: one of an index with no
    storage hierarchy (the §8.3 microbenchmarks), or one at a non-persisted
    level (§6.1)."""

    def __init__(self, run: "IndexRun"):
        if not run.resident:
            raise ValueError(f"run {run.run_id} is header-only: read it through its cache")
        super().__init__(run.spec, run.n_entries, run.key, run.cols)

    def search_blocks(self, needles, a, b, right):
        # The run is sorted as a whole, so one search over all of it,
        # clipped to each range, is the search within that range.
        self.touch(a[a < b])
        out = np.searchsorted(self.key, needles)
        if right.any():
            out[right] = np.searchsorted(self.key, needles[right], "right")
        return np.clip(out, a, b)

    def _load(self, blocks: np.ndarray) -> None:
        # Imported here: repro.storage imports this module.
        from repro.storage.tiers import SSD_LATENCY, capture_reads

        spec = self.spec
        rows = np.minimum(spec.block_rows, self.n_entries - blocks * spec.block_rows)
        capture_reads("ssd", len(blocks), int(rows.sum()) * 8 * len(spec.fields), SSD_LATENCY)


_U64_MAX = (1 << 64) - 1
# A range search's two needles: the first entry not below its lower
# bound, and the first entry above its upper bound.
_BOUND_SIDES = np.array(["left", "right"])


def search_sorted(
    src: EntrySource, needles: np.ndarray, lo: np.ndarray, hi: np.ndarray, side="left"
) -> np.ndarray:
    """Per needle, ``np.searchsorted`` of it in the entries ``[lo, hi)``
    of the run, as a run position (§7.1.1's binary search). ``side`` is
    ``"left"`` or ``"right"``, or an array of one of them per needle.

    ``needles`` are full memcmp keys (:func:`enc.memcmp_key` over the
    order fields). A range that crosses into a block not read yet is
    bisected, all such needles together in one ``src.keys`` per round, so
    a search reads about log2(blocks) blocks; once every range lies inside
    one block, or in blocks read already, one ``searchsorted`` over them
    finishes it.
    """
    br = src.spec.block_rows
    a = np.array(lo, dtype=np.int64)
    b = np.array(hi, dtype=np.int64)
    right = np.broadcast_to(np.asarray(side) == "right", a.shape)
    any_right = right.any()
    first, last = a // br, (b - 1) // br
    # A range in one block needs that block alone. Reading those first
    # lets a range over blocks read already skip its bisection: it would
    # read no block but them.
    src.touch(a[(first == last) & (a < b)])
    idx = np.flatnonzero(first < last)
    idx = idx[~src.loaded(a[idx], b[idx])]
    while len(idx):
        ai, bi = a[idx], b[idx]
        m = (ai + bi) >> 1
        k, n = src.keys(m), needles[idx]
        below = k < n
        if any_right:  # a right-side needle goes past entries equal to it
            below |= right[idx] & (k == n)
        a[idx] = np.where(below, m + 1, ai)
        b[idx] = np.where(below, bi, m)
        idx = idx[a[idx] // br < (b[idx] - 1) // br]
    return src.search_blocks(needles, a, b, right)


def synopsis_overlaps(synopsis: dict, bounds) -> bool:
    """Run-pruning check (§4.2/§7): for each ``(column, lo, hi)`` of
    ``bounds`` (a None side is unbounded) the range ``[lo, hi]`` must
    overlap the column's synopsis ``(min, max)``, else the run holds no
    match. Columns without a synopsis are not checked."""
    for col, lo, hi in bounds:
        if col in synopsis:
            s_lo, s_hi = synopsis[col]
            if (lo is not None and lo > s_hi) or (hi is not None and hi < s_lo):
                return False
    return True


def _new_run_id(zone: str, level: int, gbid_lo: int, gbid_hi: int) -> str:
    """A fresh run ID: zone initial, groomed-block-ID range, level, and a
    random suffix that tells apart runs over the same range."""
    return f"{zone[0]}-{gbid_lo:08d}-{gbid_hi:08d}-L{level}-{uuid.uuid4().hex[:8]}"


class IndexRun:
    """One sorted, immutable index run: its header, and its entries while
    it is resident.

    The header — run ID, zone, level, groomed-block-ID range, entry count,
    offset array and synopsis — is all a run needs to be searched through
    an :class:`EntrySource`. A run persisted through a cache drops its
    entries (:meth:`drop_entries`) and is read block by block from then
    on; §6.2's purged run keeps only "the header block for queries to
    locate data blocks".
    """

    def __init__(
        self,
        spec: IndexSpec,
        *,
        run_id: str,
        zone: str,
        level: int,
        gbid_lo: int,
        gbid_hi: int,
        n_entries: int,
        offset_array: np.ndarray,
        synopsis: dict[str, tuple[int, int]],
        ancestors: tuple[str, ...] = (),
        key: np.ndarray | None = None,
        cols: dict[str, np.ndarray] | None = None,
    ):
        """``key`` holds the order fields as one memcmp key per entry;
        ``cols`` the other fields of ``spec.fields`` as uint64 columns.
        Without them the run is header-only."""
        self.spec = spec
        self.run_id = run_id
        self.zone = zone
        self.level = level
        self.gbid_lo = gbid_lo
        self.gbid_hi = gbid_hi
        self.n_entries = n_entries
        self.offset_array = offset_array
        self.synopsis = synopsis
        self.ancestors = tuple(ancestors)
        # Bucket i of the offset array ends where bucket i + 1 starts.
        self._bucket_end = np.append(offset_array[1:], n_entries)
        self.key = key
        # Every field by name: the order fields as big-endian uint64 views
        # of ``key`` (no copy), then the native uint64 columns.
        self.cols = None if key is None else (
            dict(zip(spec.order_fields, enc.key_columns(key).T)) | cols
        )

    @property
    def resident(self) -> bool:
        """Whether the run holds its entries in memory."""
        return self.key is not None

    def drop_entries(self) -> None:
        """Keep only the header: the entries are stored, and reads go
        through the cache from now on."""
        self.key = self.cols = None

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
    ) -> "IndexRun":
        """Build a run from unsorted raw int64 entry columns (paper §5.2).

        Scans the entries, sorts them in the paper's order, and computes
        the offset array and the synopsis on the fly. The three RID parts
        are packed into one field (see :func:`pack_rid`); a part outside
        its bit range raises ``OverflowError``.
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
        cols["r"] = pack_rid(rid_zone, rid_block, rid_off)
        for i, c in enumerate(spec.include_cols):
            cols[f"i{i}"] = enc.to_ordered_u64(np.asarray(includes[c], np.int64))

        # The input is unsorted: here np.lexsort beats an argsort of the
        # memcmp key (447 against 537 ms at 1M entries). It sorts by its
        # *last* key first → reverse priority order.
        perm = np.lexsort([cols[f] for f in reversed(spec.order_fields)])
        key = enc.memcmp_key([cols.pop(f)[perm] for f in spec.order_fields])
        cols = {f: c[perm] for f, c in cols.items()}
        del perm

        offset_array = np.searchsorted(key, spec.bucket_keys)
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
            run_id=_new_run_id(zone, level, gbid_lo, gbid_hi),
            zone=zone,
            level=level,
            gbid_lo=gbid_lo,
            gbid_hi=gbid_hi,
            n_entries=n,
            offset_array=offset_array,
            synopsis=synopsis,
            key=key,
            cols=cols,
        )

    # ------------------------------------------------------------ merge build
    @staticmethod
    def read_entries(
        runs: list["IndexRun"], read_block=None
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """The entries of ``runs`` (of one spec), one run after another:
        their memcmp keys, and their other fields as uint64 columns.

        A resident run's arrays are copied; a header-only run is read one
        data block at a time with ``read_block(run_id, i) -> bytes`` and
        decoded straight into place, as an LSM compaction iterator reads
        its inputs (LevelDB, RocksDB).
        """
        spec = runs[0].spec
        n, br = sum(r.n_entries for r in runs), spec.block_rows
        key = np.empty(n, f"S{8 * len(spec.order_fields)}")
        cols = {f: np.empty(n, np.uint64) for f in spec.rest_fields}
        at = 0
        for r in runs:
            if r.resident:
                parts = [(r.key, [r.cols[f] for f in spec.rest_fields])]
            else:
                parts = (
                    IndexRun.decode_block(spec, read_block(r.run_id, i), min(br, r.n_entries - i * br))
                    for i in range(-(-r.n_entries // br))
                )
            for k, rest in parts:
                key[at : at + len(k)] = k
                for f, c in zip(spec.rest_fields, rest):
                    cols[f][at : at + len(k)] = c
                at += len(k)
        return key, cols

    @classmethod
    def merge_runs(
        cls,
        runs: list["IndexRun"],
        *,
        level: int,
        read_block=None,
    ) -> "IndexRun":
        """Merge several runs of one zone into a new sorted run (§5.3).

        All versions are retained — Umzi is a multi-version index, and the
        groomed/post-groomed duplicate elimination happens at query time
        (§5.4), never inside a zone merge. Only *identical* entries
        (same key, beginTS and RID — possible when an evolve raced a
        merge) collapse. Header-only inputs are read once per data block
        with ``read_block`` (:meth:`read_entries`).
        """
        if not runs:
            raise ValueError("nothing to merge")
        spec = runs[0].spec
        zone = runs[0].zone
        if any(r.zone != zone for r in runs):
            raise ValueError("Umzi only merges runs within the same zone (§4.3)")
        key, cols = cls.read_entries(runs, read_block)
        # The inputs are each sorted, which a stable argsort of one key
        # exploits. Identical entries end up adjacent, with equal keys and
        # RIDs. (np.take gathers ``S`` items more than twice as fast as
        # indexing.)
        full = enc.memcmp_key(list(enc.key_columns(key).T) + [cols["r"]])
        perm = np.argsort(full, kind="stable")
        del full
        key = np.take(key, perm)
        for f in cols:  # one column at a time, to bound memory
            cols[f] = cols[f][perm]
        del perm
        keep = np.ones(len(key), dtype=bool)
        keep[1:] = (key[1:] != key[:-1]) | (cols["r"][1:] != cols["r"][:-1])
        if not keep.all():
            key = key[keep]
            cols = {f: c[keep] for f, c in cols.items()}
        gbid_lo = min(r.gbid_lo for r in runs)
        gbid_hi = max(r.gbid_hi for r in runs)
        synopsis = {}
        for c in spec.key_cols:
            los = [r.synopsis[c][0] for r in runs if r.n_entries]
            his = [r.synopsis[c][1] for r in runs if r.n_entries]
            synopsis[c] = (min(los), max(his)) if los else (0, -1)
        return cls(
            spec,
            run_id=_new_run_id(zone, level, gbid_lo, gbid_hi),
            zone=zone,
            level=level,
            gbid_lo=gbid_lo,
            gbid_hi=gbid_hi,
            n_entries=len(key),
            offset_array=np.searchsorted(key, spec.bucket_keys),
            synopsis=synopsis,
            key=key,
            cols=cols,
        )

    # --------------------------------------------------------------- synopsis
    def synopsis_admits(
        self,
        eq_values: tuple[int, ...] | None,
        sort_lo: tuple[int, ...] | None,
        sort_hi: tuple[int, ...] | None,
    ) -> bool:
        """Run-pruning check for a range scan (§4.2/§7): the equality
        values and the first sort column's bounds."""
        bounds = [(c, v, v) for c, v in zip(self.spec.eq_cols, eq_values or ())]
        if self.spec.sort_cols:
            bounds.append((
                self.spec.sort_cols[0],
                None if sort_lo is None else sort_lo[0],
                None if sort_hi is None else sort_hi[0],
            ))
        return self.n_entries > 0 and synopsis_overlaps(self.synopsis, bounds)

    def synopsis_admits_batch(
        self, eq_min: tuple[int, ...], eq_max: tuple[int, ...]
    ) -> bool:
        """Batch variant: does [batch min, batch max] of each equality
        column overlap the synopsis? Sequential batches are narrow and
        prune most runs; random batches span everything (Fig. 10 vs 11)."""
        bounds = zip(self.spec.eq_cols, eq_min, eq_max)
        return self.n_entries > 0 and synopsis_overlaps(self.synopsis, bounds)

    # ----------------------------------------------------------------- search
    def bucket(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Offset-array range ``[lo, hi)`` holding every entry whose hash
        shares the top ``hash_bits`` of each of ``h`` (§4.2). A pure
        range index hashes every entry to 0: the range is the whole run."""
        top = (h >> np.uint64(64 - self.spec.hash_bits)).astype(np.int64)
        return self.offset_array[top], self._bucket_end[top]

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

        # The range of (hash, eq cols…, first sort col) between its bounds:
        # the first entry not below the lower bound padded with zeros, and
        # the first above the upper bound padded with ones. An unbounded
        # side takes the extreme uint64 value.
        eq = tuple(int(v) for v in eq_values or ())
        h = int(enc.hash_columns([np.array([v], np.int64) for v in eq])[0]) if eq else 0
        key = [h] + [enc.ordered_scalar(v) for v in eq]
        lo_key, hi_key = list(key), list(key)
        if spec.sort_cols:
            lo_key.append(0 if sort_lo is None else enc.ordered_scalar(sort_lo[0]))
            hi_key.append(_U64_MAX if sort_hi is None else enc.ordered_scalar(sort_hi[0]))
        pad = len(spec.order_fields) - len(lo_key)
        needles = enc.memcmp_key(
            np.array([lo_key + [0] * pad, hi_key + [_U64_MAX] * pad], dtype=np.uint64).T
        )
        lo, hi = self.bucket(np.array([h, h], np.uint64))
        a, b = search_sorted(src, needles, lo, hi, _BOUND_SIDES).tolist()
        if a >= b:
            return self._empty_result()

        # The order fields as views of the range's keys, then the others.
        pos = np.arange(a, b)
        keys = src.keys(pos)
        sub = dict(zip(spec.order_fields, enc.key_columns(keys).T)) | src.take(spec.rest_fields, pos)

        # Timestamp predicate: beginTS <= queryTS ⇔ inverted-ts >= inv(qts).
        keep = sub["t"] >= np.uint64(_U64_MAX ^ enc.ordered_scalar(query_ts))
        # Remaining sort columns (beyond s0) get an exact tuple filter.
        if len(spec.sort_cols) > 1 and (sort_lo is not None or sort_hi is not None):
            for i in range(1, len(spec.sort_cols)):
                col = enc.from_ordered_u64(sub[f"s{i}"])
                if sort_lo is not None and len(sort_lo) > i:
                    keep &= col >= int(sort_lo[i])
                if sort_hi is not None and len(sort_hi) > i:
                    keep &= col <= int(sort_hi[i])
        # A key's kept versions are a suffix of its run of entries (ts
        # sorted desc, every key column equal), so an entry is the most
        # recent visible version of its key exactly when it is kept and the
        # entry before it is not a kept version of the same key.
        if b - a > 1:
            key = enc.key_prefix(keys, len(spec.order_fields) - 1)
            keep[1:] &= ~(keep[:-1] & (key[1:] == key[:-1]))
        return self._decode(sub, keep.nonzero()[0])

    # ----------------------------------------------------------------- decode
    def _empty_result(self) -> dict[str, np.ndarray]:
        return self._decode({f: np.empty(0, np.uint64) for f in self.spec.fields})

    def _decode(self, sub: dict[str, np.ndarray], rows=None) -> dict[str, np.ndarray]:
        """Encoded internal fields (all but the hash), at positions ``rows``
        if given → user-facing named int64 columns: one stack, one gather
        and one XOR, giving the columns as the rows of one int64 matrix;
        the packed RID row is then split into its three parts."""
        spec = self.spec
        mat = np.array([sub[f] for f in spec.fields[1:]], dtype=np.uint64)
        if rows is not None:
            mat = np.take(mat, rows, axis=1)
        out = list((mat ^ spec.decode_xor).view(np.int64))
        r = len(spec.key_cols) + 1  # the row of "r", after key columns and ts
        out[r : r + 1] = unpack_rid(mat[r])
        return dict(zip(spec.result_cols, out))

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
        """Serialize data block i: the rows' memcmp keys, then each other
        field's row-slice."""
        a = i * self.spec.block_rows
        b = min(self.n_entries, a + self.spec.block_rows)
        buf = io.BytesIO()
        buf.write(self.key[a:b].tobytes())
        for f in self.spec.rest_fields:
            buf.write(self.cols[f][a:b].tobytes())
        return buf.getvalue()

    @staticmethod
    def decode_block(
        spec: IndexSpec, data: bytes, rows: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Data block bytes → views of its ``rows`` memcmp keys and of its
        other fields, a ``(len(spec.rest_fields), rows)`` uint64 matrix."""
        width = 8 * len(spec.order_fields)
        key = np.frombuffer(data, f"S{width}", count=rows)
        nr = len(spec.rest_fields)
        rest = np.frombuffer(data, np.uint64, count=nr * rows, offset=width * rows)
        return key, rest.reshape(nr, rows)

    @classmethod
    def from_header(cls, header: dict) -> "IndexRun":
        """A header-only run from its persisted header block (§5.5)."""
        return cls(
            IndexSpec.from_json(header["spec"]),
            run_id=header["run_id"],
            zone=header["zone"],
            level=header["level"],
            gbid_lo=header["gbid_lo"],
            gbid_hi=header["gbid_hi"],
            n_entries=header["n_entries"],
            offset_array=np.asarray(header["offset_array"], dtype=np.int64),
            synopsis={k: (v[0], v[1]) for k, v in header["synopsis"].items()},
            ancestors=tuple(header["ancestors"]),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"IndexRun({self.run_id}, zone={self.zone}, L{self.level}, "
            f"gbids=[{self.gbid_lo},{self.gbid_hi}], n={self.n_entries})"
        )
