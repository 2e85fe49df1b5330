"""Order-preserving encodings (paper §4.2): the memcmp property."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import encoding as enc

I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@pytest.mark.parametrize(
    "vals",
    [
        [0, 1, -1],
        [2**63 - 1, -(2**63), 0],
        [-5, -4, -3, -2, -1, 0, 1, 2, 3],
        [10**18, -(10**18), 42],
        list(range(-50, 50)),
    ],
)
def test_ordered_u64_preserves_order(vals):
    a = np.asarray(vals, dtype=np.int64)
    e = enc.to_ordered_u64(a)
    # pairwise: int order == encoded unsigned order
    for i in range(len(a)):
        for j in range(len(a)):
            assert (a[i] < a[j]) == (e[i] < e[j])


@pytest.mark.parametrize("n", [1, 10, 1000])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ordered_u64_roundtrip(n, seed):
    g = np.random.default_rng(seed)
    a = g.integers(-(2**62), 2**62, n, dtype=np.int64)
    assert (enc.from_ordered_u64(enc.to_ordered_u64(a)) == a).all()


@given(st.lists(I64, min_size=2, max_size=50))
@settings(max_examples=100, deadline=None)
def test_ordered_u64_order_hypothesis(vals):
    a = np.asarray(vals, dtype=np.int64)
    e = enc.to_ordered_u64(a)
    assert (np.argsort(a, kind="stable") == np.argsort(e, kind="stable")).all()


@given(st.lists(I64, min_size=2, max_size=20))
@settings(max_examples=100, deadline=None)
def test_memcmp_key_equals_int_compare(vals):
    """Bytewise comparison of the encoded key == integer comparison —
    the LevelDB-style memcmp property the paper requires. The key's
    bytes are the big-endian dump, compared both as Python bytes and by
    numpy on the whole array."""
    a = np.asarray(vals, dtype=np.int64)
    e = enc.to_ordered_u64(a)
    key = enc.memcmp_key([e])
    bs = [bytes(row) for row in key.view(np.uint8).reshape(len(a), 8)]
    assert bs == [int(x).to_bytes(8, "big") for x in e]
    assert ((key[:, None] < key[None, :]) == (a[:, None] < a[None, :])).all()
    for i in range(len(a)):
        for j in range(len(a)):
            assert (a[i] < a[j]) == (bs[i] < bs[j])


def test_memcmp_key_orders_tuples():
    """Fixed-width big-endian concatenation orders multi-column keys
    exactly like tuple comparison."""
    tuples = [(-3, 7), (-3, -7), (0, 0), (5, -1), (5, 1), (-3, 8), (0, 256), (0, -256)]
    cols = [enc.to_ordered_u64(np.asarray(c, np.int64)) for c in zip(*tuples)]
    key = enc.memcmp_key(cols)
    by_tuple = sorted(range(len(tuples)), key=lambda i: tuples[i])
    assert np.argsort(key, kind="stable").tolist() == by_tuple
    rows = key.view(np.uint8).reshape(len(tuples), 16)
    assert sorted(range(len(tuples)), key=lambda i: bytes(rows[i])) == by_tuple


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_memcmp_key_argsort_equals_lexsort(seed):
    """A stable argsort of the key is the permutation ``np.lexsort`` gives
    over the columns, also for values whose encodings end in zero bytes
    (0 encodes as 0x80 00…00, multiples of 256 end in 0x00), the int64
    extremes, and ties."""
    g = np.random.default_rng(seed)
    pool = np.array(
        [0, 256, -256, 1 << 16, -(1 << 40), 1, -1, -(2**63), 2**63 - 1, 2**63 - 256],
        np.int64,
    )
    cols = [pool[g.integers(0, len(pool), 3000)] for _ in range(3)]
    key = enc.memcmp_key([enc.to_ordered_u64(c) for c in cols])
    assert key.dtype == np.dtype("S24")
    assert (np.argsort(key, kind="stable") == np.lexsort(cols[::-1])).all()


def test_invert_ts_descends():
    ts = enc.to_ordered_u64(np.asarray([1, 5, 3, 2, 4], np.int64))
    inv = enc.invert_ts(ts)
    # ascending sort of inverted == descending of original
    order = np.argsort(inv, kind="stable")
    assert list(np.asarray([1, 5, 3, 2, 4])[order]) == [5, 4, 3, 2, 1]


def test_invert_ts_is_involution():
    ts = enc.to_ordered_u64(np.asarray([0, 1, 2**40], np.int64))
    assert (enc.invert_ts(enc.invert_ts(ts)) == ts).all()


@pytest.mark.parametrize("seed", [0, 1])
def test_splitmix64_deterministic_and_spread(seed):
    g = np.random.default_rng(seed)
    x = g.integers(0, 2**62, 10_000).astype(np.uint64)
    h1 = enc.splitmix64(x)
    h2 = enc.splitmix64(x)
    assert (h1 == h2).all()
    # top-8-bit buckets should be roughly uniform
    top = (h1 >> np.uint64(56)).astype(int)
    counts = np.bincount(top, minlength=256)
    assert counts.max() < 4 * counts.mean()


def test_hash_columns_multi_column_sensitivity():
    a = np.asarray([1, 1, 2], np.int64)
    b = np.asarray([1, 2, 1], np.int64)
    h = enc.hash_columns([a, b])
    assert h[0] != h[1] and h[0] != h[2] and h[1] != h[2]


def test_hash_columns_no_columns_is_zero():
    assert enc.hash_columns([]).size == 0


def test_scalar_encodings_match_vectorized_at_extremes():
    v = np.asarray([-(2**63), -1, 0, 1, 2**63 - 1, 12345], np.int64)
    assert [enc.ordered_scalar(x) for x in v.tolist()] == enc.to_ordered_u64(v).tolist()
    for bad in (2**63, -(2**63) - 1):  # outside int64, as np.int64 rejects it
        with pytest.raises(OverflowError):
            enc.ordered_scalar(bad)

