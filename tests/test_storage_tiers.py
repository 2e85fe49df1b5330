"""Storage tiers and the virtual I/O clock — paper §6 substrate."""
import threading

import pytest

from repro.storage.tiers import (
    DirTier,
    IOStats,
    SHARED_LATENCY,
    SSD_LATENCY,
    StorageHierarchy,
    TierLatency,
    capture_io,
)


@pytest.fixture
def hier(tmp_path):
    return StorageHierarchy(str(tmp_path))


def test_put_get_roundtrip_all_tiers(hier):
    for tier in (hier.ssd, hier.shared):
        tier.put("a/b", b"hello")
        assert tier.get("a/b") == b"hello"
        assert tier.exists("a/b")
        assert not tier.exists("a/c")


def test_shared_storage_is_append_only(hier):
    """§1: shared storage supports no in-place update — a second put of
    the same key must fail until the old object is deleted."""
    hier.shared.put("x", b"1")
    with pytest.raises(FileExistsError):
        hier.shared.put("x", b"2")
    hier.shared.delete("x")
    hier.shared.put("x", b"2")
    assert hier.shared.get("x") == b"2"


def test_dir_tier_rejects_path_escape(hier):
    with pytest.raises(ValueError):
        hier.shared.put("../evil", b"x")


def test_list_with_prefix(hier):
    hier.shared.put("runs/r1/header", b"h")
    hier.shared.put("runs/r1/block.00000", b"b")
    hier.shared.put("tables/t/block", b"t")
    assert hier.shared.list("runs/") == ["runs/r1/block.00000", "runs/r1/header"]
    assert len(hier.shared.list()) == 3


def test_delete_missing_is_noop(hier):
    hier.shared.delete("nope")  # must not raise
    hier.ssd.delete("nope")


def test_iostats_counts_and_clock(hier):
    hier.shared.put("k", b"x" * 1000)
    hier.shared.get("k")
    snap = hier.stats.snapshot()
    assert snap["writes"]["shared"] == 1
    assert snap["reads"]["shared"] == 1
    assert snap["bytes_read"]["shared"] == 1000
    expected = SHARED_LATENCY.cost(1000)
    assert snap["simulated_seconds"] >= expected


def test_iostats_reset(hier):
    hier.ssd.put("k", b"abc")
    hier.stats.reset()
    snap = hier.stats.snapshot()
    assert snap["simulated_seconds"] == 0.0
    assert snap["writes"]["ssd"] == 0


def test_tier_latency_ordering():
    """SSD << shared — the hierarchy the paper exploits."""
    n = 64 * 1024
    assert SSD_LATENCY.cost(n) < SHARED_LATENCY.cost(n)


def test_capture_io_scopes_reads(hier):
    hier.shared.put("k", b"x" * 100)
    with capture_io() as cap:
        hier.shared.get("k")
    assert cap.reads["shared"] == 1
    assert cap.seconds == pytest.approx(SHARED_LATENCY.cost(100))
    # outside the scope nothing more is captured
    hier.shared.get("k")
    assert cap.reads["shared"] == 1


def test_capture_io_is_per_thread(hier):
    """Fig. 12 needs per-reader attribution: each thread's capture sees
    only its own charges."""
    hier.shared.put("k", b"x" * 100)
    results = {}

    def worker(name, n_reads):
        with capture_io() as cap:
            for _ in range(n_reads):
                hier.shared.get("k")
        results[name] = cap.reads["shared"]

    ts = [
        threading.Thread(target=worker, args=("a", 3)),
        threading.Thread(target=worker, args=("b", 5)),
    ]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert results == {"a": 3, "b": 5}


def test_crash_node_loses_local_keeps_shared(hier):
    hier.ssd.put("s", b"2")
    hier.shared.put("p", b"3")
    hier.crash_node()
    assert not hier.ssd.exists("s")
    assert hier.shared.get("p") == b"3"


def test_used_bytes(hier):
    hier.ssd.put("a", b"x" * 10)
    hier.ssd.put("b", b"x" * 20)
    assert hier.ssd.used_bytes() == 30


def test_custom_latency_model():
    lat = TierLatency(seek_s=1.0, per_byte_s=0.5)
    assert lat.cost(10) == 1.0 + 5.0


def test_stats_thread_safety(hier):
    hier.shared.put("k", b"z" * 10)

    def reader():
        for _ in range(200):
            hier.shared.get("k")

    ts = [threading.Thread(target=reader) for _ in range(4)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert hier.stats.snapshot()["reads"]["shared"] == 800
