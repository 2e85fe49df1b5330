"""Lexicographically-comparable (memcmp) key encodings — paper §4.2.

Umzi stores all ordering columns (hash, equality columns, sort columns,
beginTS) "in lexicographically comparable formats, similar to LevelDB, so
that keys can be compared by simply using memory compare operations".

Our columns are 64-bit integers (the paper's experiments use 8-byte longs
for every column). The order-preserving trick is the standard sign-flip:
``uint64(x) ^ 2^63`` maps signed int64 order onto unsigned order, and a
big-endian byte dump of a uint64 compares bytewise exactly like the
integer. Vectorized numpy equivalents are used everywhere internally;
``key_bytes`` materializes the actual memcmp string and is used by tests
to prove the equivalence.

beginTS is sorted *descending* (paper §4.2: "to facilitate the access of
more recent versions"): we encode it as the bitwise complement so that a
plain ascending sort yields descending timestamps.
"""
from __future__ import annotations

import numpy as np

_SIGN = np.uint64(1) << np.uint64(63)

# splitmix64 constants (Steele et al.) — a high-quality 64-bit mixer; the
# paper only requires *a* hash of the equality columns (§4.1).
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)


def to_ordered_u64(col: np.ndarray) -> np.ndarray:
    """Map an int64 column to uint64 preserving signed order."""
    return col.astype(np.int64).view(np.uint64) ^ _SIGN


def from_ordered_u64(col: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_ordered_u64`."""
    return (np.asarray(col, dtype=np.uint64) ^ _SIGN).view(np.int64)


def invert_ts(ts: np.ndarray) -> np.ndarray:
    """Complement an order-encoded uint64 so ascending sort == descending ts."""
    return ~np.asarray(ts, dtype=np.uint64)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 (wrapping arithmetic)."""
    x = np.asarray(x, dtype=np.uint64).copy()
    x += _SM_GAMMA
    x ^= x >> np.uint64(30)
    x *= _SM_M1
    x ^= x >> np.uint64(27)
    x *= _SM_M2
    x ^= x >> np.uint64(31)
    return x


def hash_columns(cols: list[np.ndarray]) -> np.ndarray:
    """64-bit hash of the equality-column values (paper §4.1).

    Combines one splitmix64 round per column. With zero equality columns
    (pure range index) the length is unknown and an empty array comes
    back; callers then hash every entry to 0 so the physical layout is
    uniform.
    """
    if not cols:
        return np.zeros(0, dtype=np.uint64)
    h = np.zeros(len(cols[0]), dtype=np.uint64)
    for c in cols:
        h = splitmix64(h ^ splitmix64(to_ordered_u64(np.asarray(c))))
    return h


def hash_scalar(values: tuple[int, ...]) -> int:
    """Hash of a single equality-key tuple (query-side probe)."""
    if not values:
        return 0
    arrs = [np.asarray([v], dtype=np.int64) for v in values]
    return int(hash_columns(arrs)[0])


def key_bytes(*ordered_u64_parts: int) -> bytes:
    """Concatenated big-endian dump — the actual memcmp-comparable key.

    Used by tests to prove bytewise comparison equals columnwise
    comparison; the engine itself compares numpy uint64 tuples, which is
    equivalent for fixed-width big-endian parts.
    """
    return b"".join(int(p).to_bytes(8, "big") for p in ordered_u64_parts)
