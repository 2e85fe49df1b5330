"""Lexicographically-comparable (memcmp) key encodings — paper §4.2.

Umzi stores all ordering columns (hash, equality columns, sort columns,
beginTS) "in lexicographically comparable formats, similar to LevelDB, so
that keys can be compared by simply using memory compare operations".

Our columns are 64-bit integers (the paper's experiments use 8-byte longs
for every column). The order-preserving trick is the standard sign-flip:
``uint64(x) ^ 2^63`` maps signed int64 order onto unsigned order, and a
big-endian byte dump of a uint64 compares bytewise exactly like the
integer. :func:`memcmp_key` writes a row's ordering columns that way
into one fixed-width byte string, and every comparison of entries goes
through it.

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


def ordered_scalar(v: int) -> int:
    """:func:`to_ordered_u64` of one int64 value, in Python ints. A value
    outside int64 raises ``OverflowError``, as the numpy cast does."""
    v = int(v)
    if not -(1 << 63) <= v < (1 << 63):
        raise OverflowError(f"{v} is outside int64")
    return v + (1 << 63)


def memcmp_key(cols) -> np.ndarray:
    """The memcmp-comparable key of each row of order-encoded uint64
    ``cols`` (§4.2): the columns written big-endian, side by side, as one
    fixed-width ``S{8 * len(cols)}`` array.

    numpy compares ``S`` values of one width bytewise, so ``<``, ``==``
    and ``argsort`` on the key follow the columns' lexicographic order.
    (``S`` scalars drop trailing NUL bytes: compare whole arrays.)
    """
    buf = np.empty(np.shape(cols[0]) + (len(cols),), dtype=">u8")
    for j, c in enumerate(cols):
        buf[..., j] = c
    return buf.view(f"S{8 * len(cols)}")[..., 0]


def key_columns(key: np.ndarray) -> np.ndarray:
    """Inverse of :func:`memcmp_key`, without a copy: a contiguous 1-D
    key array as a ``(len(key), width // 8)`` big-endian uint64 view, one
    column per field."""
    return key.view(">u8").reshape(len(key), key.dtype.itemsize // 8)


def key_prefix(key: np.ndarray, nfields: int) -> np.ndarray:
    """The first ``nfields`` fields of each key of ``key``, as an
    ``S{8 * nfields}`` view: keys compare on their leading fields alone."""
    view = np.dtype(
        {"names": ["p"], "formats": [f"S{8 * nfields}"], "itemsize": key.dtype.itemsize}
    )
    return key.view(view)["p"]
