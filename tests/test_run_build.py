"""Index-run construction invariants — paper §4.2 / §5.2."""
import numpy as np
import pytest

from repro.core import encoding as enc
from repro.core.run import (
    GROOMED,
    POSTGROOMED,
    RID_BLOCK_BITS,
    RID_OFF_BITS,
    IndexRun,
    IndexSpec,
    pack_rid,
    unpack_rid,
)
from repro.experiments import defs


def make_entries(n, seed=0, dev_space=30, msg_space=40, ts_space=500):
    g = np.random.default_rng(seed)
    return dict(
        dev=g.integers(0, dev_space, n).astype(np.int64),
        msg=g.integers(0, msg_space, n).astype(np.int64),
        ts=g.integers(1, ts_space, n).astype(np.int64),
        val=g.integers(0, 10**9, n).astype(np.int64),
    )


def build(spec, e, **kw):
    n = len(e["ts"])
    args = dict(
        zone=GROOMED,
        level=0,
        gbid_lo=0,
        gbid_hi=0,
        begin_ts=e["ts"],
        rid_zone=np.zeros(n, np.int64),
        rid_block=np.zeros(n, np.int64),
        rid_off=np.arange(n, dtype=np.int64),
    )
    args.update(kw)
    eq, sorts, incl = {}, {}, {}
    if "device" in spec.eq_cols:
        eq["device"] = e["dev"]
    if "msg" in spec.eq_cols:
        eq["msg"] = e["msg"]
    if "msg" in spec.sort_cols:
        sorts["msg"] = e["msg"]
    if "val" in spec.include_cols:
        incl["val"] = e["val"]
    return IndexRun.build(spec, eq=eq, sorts=sorts, includes=incl, **args)


SPECS = [
    IndexSpec(eq_cols=("device",), sort_cols=("msg",), include_cols=("val",), hash_bits=4, block_rows=16),
    IndexSpec(eq_cols=("device", "msg"), include_cols=("val",), hash_bits=6, block_rows=32),
    IndexSpec(eq_cols=("device",), include_cols=("val",), hash_bits=8, block_rows=7),
    IndexSpec(sort_cols=("msg",), hash_bits=3, block_rows=64),
]


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("n", [0, 1, 5, 257, 1000])
@pytest.mark.parametrize("seed", [0, 3])
def test_build_sort_order(spec, n, seed):
    """Entries are ordered by hash, eq cols, sort cols, beginTS desc."""
    e = make_entries(n, seed)
    run = build(spec, e)
    assert run.n_entries == n
    order_fields = (
        ["h"]
        + [f"k{i}" for i in range(len(spec.eq_cols))]
        + [f"s{i}" for i in range(len(spec.sort_cols))]
        + ["t"]
    )
    rows = list(zip(*[run.cols[f] for f in order_fields]))
    assert rows == sorted(rows)


@pytest.mark.parametrize("spec", SPECS)
def test_build_begin_ts_descending_within_key(spec):
    """Within one key, beginTS is stored descending (§4.2)."""
    n = 400
    g = np.random.default_rng(1)
    e = dict(
        dev=g.integers(0, 3, n).astype(np.int64),
        msg=g.integers(0, 3, n).astype(np.int64),
        ts=g.permutation(n).astype(np.int64),
        val=np.zeros(n, np.int64),
    )
    run = build(spec, e)
    key_fields = [f"k{i}" for i in range(len(spec.eq_cols))] + [
        f"s{i}" for i in range(len(spec.sort_cols))
    ]
    ts = enc.from_ordered_u64(enc.invert_ts(run.cols["t"]))
    keys = list(zip(*[run.cols[f] for f in key_fields]))
    for i in range(1, n):
        if keys[i] == keys[i - 1]:
            assert ts[i] <= ts[i - 1]


@pytest.mark.parametrize("bits", [1, 3, 8, 12])
@pytest.mark.parametrize("n", [0, 1, 100, 2000])
def test_offset_array_invariants(bits, n):
    spec = IndexSpec(eq_cols=("device",), hash_bits=bits, block_rows=64)
    e = make_entries(n, seed=5, dev_space=1000)
    run = build(spec, e)
    oa = run.offset_array
    assert len(oa) == 1 << bits
    # monotone, in-range
    assert (np.diff(oa) >= 0).all() if len(oa) > 1 else True
    assert (oa >= 0).all() and (oa <= n).all()
    # bucket i holds exactly the entries whose top bits == i
    top = (run.cols["h"] >> np.uint64(64 - bits)).astype(np.int64)
    for i in range(1 << bits):
        end = oa[i + 1] if i + 1 < len(oa) else n
        assert (top[oa[i] : end] == i).all()
        # nothing with top==i outside the bucket
        assert np.count_nonzero(top == i) == end - oa[i]


@pytest.mark.parametrize("spec", SPECS[:3])
@pytest.mark.parametrize("n", [1, 123, 1000])
def test_synopsis_minmax(spec, n):
    e = make_entries(n, seed=9)
    run = build(spec, e)
    named = {"device": e["dev"], "msg": e["msg"]}
    for c in spec.key_cols:
        lo, hi = run.synopsis[c]
        assert lo == named[c].min() and hi == named[c].max()


def test_synopsis_empty_run_admits_nothing():
    spec = SPECS[0]
    run = build(spec, make_entries(0))
    assert not run.synopsis_admits((1,), None, None)
    assert not run.synopsis_admits_batch((0,), (10**9,))


@pytest.mark.parametrize("block_rows", [1, 7, 64, 4096])
@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 500])
def test_block_layout_and_decode(block_rows, n):
    spec = IndexSpec(eq_cols=("device",), sort_cols=("msg",), hash_bits=4, block_rows=block_rows)
    e = make_entries(n, seed=2)
    run = build(spec, e)
    assert run.n_blocks == max(1, -(-n // block_rows))
    # decode every block (keys, then the other fields) and reassemble
    rebuilt = {f: [] for f in spec.fields}
    remaining = n
    for i in range(run.n_blocks):
        rows = min(block_rows, remaining)
        key, rest = IndexRun.decode_block(spec, run.block_bytes(i), rows)
        assert key.dtype == run.key.dtype and len(key) == rows
        d = list(enc.key_columns(key).T) + list(rest)
        for j, f in enumerate(spec.fields):
            rebuilt[f].append(d[j])
        remaining -= rows
    for f in spec.fields:
        got = np.concatenate(rebuilt[f]) if rebuilt[f] else np.empty(0, np.uint64)
        assert (got == run.cols[f]).all()


@pytest.mark.parametrize("spec", SPECS)
def test_header_roundtrip(spec):
    e = make_entries(200, seed=4)
    run = build(spec, e)
    blocks = [run.block_bytes(i) for i in range(run.n_blocks)]
    r2 = IndexRun.from_header(run.header_json())
    assert r2.run_id == run.run_id and not r2.resident
    assert r2.zone == run.zone and r2.level == run.level
    assert (r2.offset_array == run.offset_array).all()
    assert r2.synopsis == run.synopsis
    src = r2.source(lambda _run_id, i: blocks[i])
    src.load_all()
    assert (src.key == run.key).all()
    for f in spec.fields:
        assert (src.cols[f] == run.cols[f]).all()


def test_merge_runs_preserves_all_versions():
    spec = SPECS[0]
    e1 = make_entries(300, seed=1)
    e2 = make_entries(300, seed=2)
    r1 = build(spec, e1, gbid_lo=0, gbid_hi=0)
    r2 = build(spec, e2, gbid_lo=1, gbid_hi=1,
               rid_block=np.ones(300, np.int64))
    m = IndexRun.merge_runs([r1, r2], level=1)
    assert m.n_entries == 600  # multi-version: nothing dropped
    assert m.gbid_lo == 0 and m.gbid_hi == 1 and m.level == 1
    # synopsis is the union
    for c in spec.key_cols:
        assert m.synopsis[c][0] == min(r1.synopsis[c][0], r2.synopsis[c][0])
        assert m.synopsis[c][1] == max(r1.synopsis[c][1], r2.synopsis[c][1])


def test_merge_runs_collapses_identical_entries():
    spec = SPECS[0]
    e = make_entries(100, seed=3)
    r1 = build(spec, e)
    r2 = build(spec, e)  # identical keys, ts AND RIDs
    m = IndexRun.merge_runs([r1, r2], level=1)
    assert m.n_entries == 100


def test_merge_rejects_cross_zone():
    spec = SPECS[0]
    r1 = build(spec, make_entries(10))
    r2 = build(spec, make_entries(10), zone=POSTGROOMED, level=6)
    with pytest.raises(ValueError, match="within the same zone"):
        IndexRun.merge_runs([r1, r2], level=1)


def test_merge_rejects_empty():
    with pytest.raises(ValueError):
        IndexRun.merge_runs([], level=1)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(),  # no key columns at all
        dict(eq_cols=("a",), sort_cols=("a",)),  # overlap
        dict(eq_cols=("a",), hash_bits=0),
        dict(eq_cols=("a",), hash_bits=40),
        dict(eq_cols=("a",), block_rows=0),
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        IndexSpec(**kwargs)


def test_spec_json_roundtrip():
    for spec in SPECS:
        assert IndexSpec.from_json(spec.to_json()) == spec


def test_build_rejects_mismatched_columns():
    spec = SPECS[0]
    with pytest.raises(ValueError, match="do not match"):
        IndexRun.build(
            spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
            eq={"wrong": np.zeros(1, np.int64)},
            sorts={"msg": np.zeros(1, np.int64)},
            begin_ts=np.zeros(1, np.int64),
            rid_zone=np.zeros(1), rid_block=np.zeros(1), rid_off=np.zeros(1),
        )


# ----------------------------------------------------------- packed RID field
RID_MAX = (1, (1 << RID_BLOCK_BITS) - 1, (1 << RID_OFF_BITS) - 1)


def test_rid_round_trips_at_the_extremes():
    """Every combination of zone 0/1, block 0 / 2³⁹−1 and offset
    0 / 2²⁴−1 comes back unchanged from a search."""
    spec = IndexSpec(eq_cols=("device",), include_cols=("val",), hash_bits=4, block_rows=4)
    parts = np.array(
        [(z, b, o) for z in (0, 1) for b in (0, RID_MAX[1]) for o in (0, RID_MAX[2])],
        dtype=np.int64,
    )
    n = len(parts)
    run = IndexRun.build(
        spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
        eq={"device": np.arange(n, dtype=np.int64)},
        begin_ts=np.ones(n, np.int64),
        rid_zone=parts[:, 0], rid_block=parts[:, 1], rid_off=parts[:, 2],
        includes={"val": -np.arange(n, dtype=np.int64)},
    )
    for dev, (z, b, o) in enumerate(parts.tolist()):
        got = run.search((dev,), None, None, 10)
        assert [got[c].tolist() for c in ("rid_zone", "rid_block", "rid_off")] == [[z], [b], [o]]
        assert got["val"].tolist() == [-dev] and got["begin_ts"].tolist() == [1]
    assert unpack_rid(pack_rid(*parts.T))[1].tolist() == parts[:, 1].tolist()


@pytest.mark.parametrize(
    "part,value",
    [(0, -1), (1, -1), (2, -1), (0, 2), (1, 1 << RID_BLOCK_BITS), (2, 1 << RID_OFF_BITS)],
)
def test_build_rejects_rid_part_out_of_range(part, value):
    rid = [np.zeros(3, np.int64) for _ in range(3)]
    rid[part][1] = value
    with pytest.raises(OverflowError):
        IndexRun.build(
            SPECS[0], zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
            eq={"device": np.zeros(3, np.int64)}, sorts={"msg": np.zeros(3, np.int64)},
            begin_ts=np.zeros(3, np.int64),
            rid_zone=rid[0], rid_block=rid[1], rid_off=rid[2],
        )


def test_i1_data_block_is_six_fields_of_eight_bytes():
    """I1 (hash, c1, c2, beginTS, RID, v): 48 bytes per entry."""
    spec = defs.make_spec("I1", block_rows=100)
    run = defs.build_run(spec, "I1", np.arange(250, dtype=np.int64), gbid=3)
    assert spec.fields == ("h", "k0", "s0", "t", "r", "i0")
    assert [len(run.block_bytes(i)) for i in range(run.n_blocks)] == [
        6 * 8 * rows for rows in (100, 100, 50)
    ]


def test_merge_runs_keeps_same_key_and_ts_with_different_rids():
    """Identical entries collapse; entries equal in key and beginTS but
    not in RID (any one part) are all kept."""
    spec = SPECS[0]
    e = make_entries(100, seed=5)
    r1 = build(spec, e)
    variants = [
        build(spec, e, rid_zone=np.ones(100, np.int64)),
        build(spec, e, rid_block=np.full(100, 7, np.int64)),
        build(spec, e, rid_off=np.arange(100, dtype=np.int64) + 1),
    ]
    m = IndexRun.merge_runs([r1, build(spec, e)] + variants, level=1)
    assert m.n_entries == 400

    def rids(run):
        got = run._decode(run.cols)
        return zip(*(got[c].tolist() for c in ("rid_zone", "rid_block", "rid_off")))

    assert sorted(rids(m)) == sorted(x for r in [r1] + variants for x in rids(r))


def test_merge_runs_matches_lexsort_reference():
    """The merged columns equal a reference built here: the inputs'
    columns concatenated, ordered by ``np.lexsort`` over the order fields
    and the RID, with adjacent identical entries dropped. Keys are
    negative and include the int64 extremes; one run is merged twice."""
    spec = SPECS[0]
    g = np.random.default_rng(11)
    runs = []
    for gb in range(3):
        e = make_entries(200, seed=20 + gb)
        e["dev"] -= 15
        e["msg"] = (e["msg"] - 20) * 256
        e["dev"][:2] = [-(2**63), 2**63 - 1]
        e["msg"][2:4] = [-(2**63), 2**63 - 1]
        e["ts"] = g.integers(-3, 3, 200)
        runs.append(build(spec, e, rid_block=np.full(200, gb, np.int64)))
    runs.append(runs[1])
    m = IndexRun.merge_runs(runs, level=1)

    cols = {f: np.concatenate([r.cols[f] for r in runs]) for f in spec.fields}
    perm = np.lexsort([cols[f] for f in reversed(spec.order_fields + ("r",))])
    ref = {f: c[perm] for f, c in cols.items()}
    same = np.ones(len(perm) - 1, dtype=bool)
    for f in spec.order_fields + ("r",):
        same &= ref[f][1:] == ref[f][:-1]
    keep = np.concatenate([[True], ~same])
    assert keep.sum() == 600
    for f in spec.fields:
        # Order fields are big-endian views of the run's key.
        assert m.cols[f].dtype.kind == "u" and m.cols[f].dtype.itemsize == 8
        assert np.array_equal(m.cols[f], ref[f][keep])
