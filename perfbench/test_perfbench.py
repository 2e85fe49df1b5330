"""Tests of the benchmark itself: determinism of its counters and inputs,
and that its oracle turns a wrong answer into a failed operation.

    python3 -m pytest perfbench -q
"""
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracle as O  # noqa: E402
import workloads as W  # noqa: E402
from repro.core import query as core_query  # noqa: E402

# Per-layer metrics that count work: they must repeat exactly for one seed.
COUNTS = [
    "query.scan_examined_per_row", "query.runs_per_lookup",
    "query.runs_searched_per_lookup", "query.runs_pruned_per_lookup",
    "query.hit_ratio", "query.io_ms", "merge.count",
    "merge.entries_rewritten_per_entry", "index.gc_runs", "index.visible_runs",
    "tiers.reads.mem", "tiers.reads.ssd", "tiers.reads.shared",
    "tiers.bytes_read.shared", "tiers.bytes_written.ssd",
    "tiers.bytes_written.shared", "tiers.write_amp", "tiers.space_amp",
    "cache.read_block_calls", "cache.decode_block_calls",
    "recovery.shared_reads", "cold.shared_reads",
]


def traced_run(name, seed, tmp_path, tag):
    """A traced run of only the first steps (``seconds=0``)."""
    b = W.Bench(name, seed, 0.0, True, str(tmp_path / f"{name}-{seed}-{tag}"))
    W.WORKLOADS[name](b)
    return b, W.layer_metrics(b)


@pytest.mark.parametrize("name", ["resident", "purged", "htap"])
def test_same_seed_same_counters(name, tmp_path, monkeypatch):
    monkeypatch.setattr(W, "spark_scans", lambda b, t: None)  # Spark is not counted
    b1, m1 = traced_run(name, 7, tmp_path, "a")
    b2, m2 = traced_run(name, 7, tmp_path, "b")
    assert b1.failed == b2.failed == 0
    assert b1.attempted == b2.attempted
    assert b1.counts == b2.counts  # found rows, I/O seconds, tier reads, bytes
    assert {k: m1[k] for k in COUNTS} == {k: m2[k] for k in COUNTS}
    if name == "htap":
        assert m1["merge.count"] > 0 and m1["tiers.write_amp"] > 0
    else:
        assert m1["query.io_ms"] > 0


def test_other_seed_other_inputs():
    (k1, _, v1), (k2, _, v2) = O.resident_run(1, 0), O.resident_run(2, 0)
    assert not np.array_equal(k1, k2) and not np.array_equal(v1, v2)
    assert not np.array_equal(O.lookup_probes(1, 0, O.KEY_SPACE), O.lookup_probes(2, 0, O.KEY_SPACE))
    assert not np.array_equal(O.htap_cycle(1, 3, 30_000)[0], O.htap_cycle(2, 3, 30_000)[0])
    assert O.resident_query_ts(1, 0) != O.resident_query_ts(2, 0)
    # ... while one seed always gives the same inputs.
    assert np.array_equal(O.lookup_probes(1, 5, O.KEY_SPACE), O.lookup_probes(1, 5, O.KEY_SPACE))


def _answer(log, probes, qts):
    """A correct batch_lookup result, built from the oracle."""
    ok, ts, v = log.latest(probes, qts)
    keys = probes[ok]
    c1, c2 = O.split_key(keys, O.SPLIT)
    return {"c1": c1, "c2": c2, "begin_ts": ts[ok], "v": v[ok]}


def test_corrupted_result_is_a_failure(tmp_path):
    log = W.resident_log(3)
    probes = O.lookup_probes(3, 0, O.KEY_SPACE)
    qts = O.resident_query_ts(3, 0)
    expected = log.latest(probes, qts)
    good = _answer(log, probes, qts)
    assert O.check_lookup(good, O.SPLIT, probes, expected)

    def corrupt(field, fn):
        bad = {k: v.copy() for k, v in good.items()}
        bad[field] = fn(bad[field])
        return bad

    wrong = [
        corrupt("v", lambda a: a + (np.arange(len(a)) == 0)),  # one wrong value
        corrupt("begin_ts", lambda a: a - (np.arange(len(a)) == 0)),  # stale version
        {k: v[1:] for k, v in good.items()},  # a found key missing
        {k: np.concatenate([v, v[:1]]) for k, v in good.items()},  # a duplicate row
    ]
    b = W.Bench("resident", 3, 0.0, False, str(tmp_path))
    for bad in wrong:
        assert not O.check_lookup(bad, O.SPLIT, probes, expected)
        b.op("read", lambda: bad, lambda r: O.check_lookup(r, O.SPLIT, probes, expected))
    b.op("read", lambda: good, lambda r: O.check_lookup(r, O.SPLIT, probes, expected))
    b.op("read", lambda: 1 // 0)  # an exception is a failure too
    assert (b.attempted, b.failed) == (6, 5)


def test_wrong_lookups_fail_the_run(tmp_path, monkeypatch):
    """A batch_lookup that drops one row per batch fails every lookup."""
    real = core_query.batch_lookup

    def lossy(*args, **kwargs):
        return {k: v[1:] for k, v in real(*args, **kwargs).items()}

    monkeypatch.setattr(core_query, "batch_lookup", lossy)
    b = W.Bench("resident", 5, 0.0, False, str(tmp_path))
    W.run_resident(b)
    assert b.failed == len(b.samples["read"]) == W.COUNT_STEPS["resident"]
