"""Storage tiers with a virtual I/O clock.

Two tiers: the local **SSD** cache and remote **shared storage**
(HDFS/GlusterFS/S3 in the paper; a local directory here), both directories
of blobs. The paper's third level, local memory (§6), is the runs' own
resident columns: a run at a non-persisted level (§6.1) lives in its
``IndexRun`` and is copied to no tier. Every access charges a seek
latency plus a per-byte transfer cost to :class:`IOStats`. A query's
reads go to its ``capture_io`` scope through one function,
:func:`capture_reads`: each tier read for the bytes it read, and each
block a memory-resident run touches for the bytes that block holds as
stored, as one SSD read. Benchmarks report wall-clock compute *plus* the
virtual I/O seconds, which is what reproduces the paper's cache-behaviour
figures (Fig. 14) on arbitrary container hardware.

Shared-storage semantics honoured here, per §1/§6 of the paper:
append-only writes (a name can only be put once unless deleted first; the
one exception is ``DirTier.overwrite``, an atomic replace for the two small
metadata keys), block-granular reads, high per-access
latency, preference for few large files (the latency model's fixed seek
cost per access makes many small files expensive, as in the paper).
"""
from __future__ import annotations

import contextvars
import os
import shutil
import threading
from dataclasses import dataclass, field

# Ambient per-query I/O capture: a reader thread installs a capture via
# ``capture_io()`` and every tier charge inside the block also lands on
# it. ContextVars are per-thread, so concurrent readers (Fig. 12) each
# attribute exactly their own virtual I/O.
_CAPTURE: contextvars.ContextVar["IOCapture | None"] = contextvars.ContextVar(
    "repro_io_capture", default=None
)


class IOCapture:
    """Accumulates the virtual I/O seconds charged within a scope."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.reads: dict[str, int] = {"ssd": 0, "shared": 0}
        self._token = None

    def __enter__(self) -> "IOCapture":
        self._token = _CAPTURE.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _CAPTURE.reset(self._token)


def capture_io() -> IOCapture:
    """Scope within which this thread's virtual I/O cost is summed."""
    return IOCapture()


@dataclass(frozen=True)
class TierLatency:
    """Access-cost model for one tier: ``seek_s + len(bytes) * per_byte_s``
    per access."""

    seek_s: float
    per_byte_s: float

    def cost(self, nbytes: int, n: int = 1) -> float:
        """The cost of ``n`` accesses moving ``nbytes`` in all."""
        return n * self.seek_s + nbytes * self.per_byte_s


# Tier latencies roughly in the ratios of the paper's hardware: NVMe SSD
# ~100us seek, networked shared storage ~2ms + lower bandwidth.
SSD_LATENCY = TierLatency(seek_s=1e-4, per_byte_s=5e-10)
SHARED_LATENCY = TierLatency(seek_s=2e-3, per_byte_s=1e-8)


def capture_reads(tier: str, n: int, nbytes: int, latency: TierLatency) -> None:
    """Charge ``n`` reads of ``nbytes`` in all from ``tier`` to this
    thread's ``capture_io`` scope, if one is open.

    Every read a query is charged for comes through here: each tier read
    (:meth:`IOStats.charge_read`), and a memory-resident run's first
    touches of its blocks, which stand in for SSD reads of those blocks
    as stored (the setting of every §8.3 microbenchmark) and read no tier.
    """
    cap = _CAPTURE.get()
    if cap is not None:
        cap.seconds += latency.cost(nbytes, n)
        cap.reads[tier] += n


@dataclass
class IOStats:
    """Virtual I/O clock + per-tier access counters (thread-safe)."""

    reads: dict = field(default_factory=lambda: {"ssd": 0, "shared": 0})
    writes: dict = field(default_factory=lambda: {"ssd": 0, "shared": 0})
    bytes_read: dict = field(default_factory=lambda: {"ssd": 0, "shared": 0})
    bytes_written: dict = field(default_factory=lambda: {"ssd": 0, "shared": 0})
    simulated_seconds: float = 0.0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def charge_read(self, tier: str, nbytes: int, latency: TierLatency) -> None:
        with self._lock:
            self.reads[tier] += 1
            self.bytes_read[tier] += nbytes
            self.simulated_seconds += latency.cost(nbytes)
        capture_reads(tier, 1, nbytes, latency)

    def charge_write(self, tier: str, nbytes: int, latency: TierLatency) -> None:
        with self._lock:
            self.writes[tier] += 1
            self.bytes_written[tier] += nbytes
            self.simulated_seconds += latency.cost(nbytes)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "reads": dict(self.reads),
                "writes": dict(self.writes),
                "bytes_read": dict(self.bytes_read),
                "bytes_written": dict(self.bytes_written),
                "simulated_seconds": self.simulated_seconds,
            }

    def reset(self) -> None:
        with self._lock:
            for d in (self.reads, self.writes, self.bytes_read, self.bytes_written):
                for k in d:
                    d[k] = 0
            self.simulated_seconds = 0.0


class DirTier:
    """Filesystem-backed tier (SSD cache dir, or the shared-storage dir).

    Keys may contain ``/``; they map to files under ``root``. Writes are
    write-once (append-only semantics of shared storage, §1): putting an
    existing key raises unless it was deleted first. ``overwrite`` is the
    explicit atomic replace for metadata keys.
    """

    def __init__(self, name: str, root: str, stats: IOStats, latency: TierLatency):
        self.name = name
        self.root = root
        self._stats = stats
        self._latency = latency
        self._lock = threading.Lock()
        os.makedirs(root, exist_ok=True)

    def _path(self, key: str) -> str:
        root = os.path.normpath(self.root)
        p = os.path.normpath(os.path.join(root, key))
        if os.path.commonpath([root, p]) != root:
            raise ValueError(f"key escapes tier root: {key}")
        return p

    def _write(self, key: str, data: bytes, *, replace: bool) -> None:
        p = self._path(key)
        with self._lock:
            if not replace and os.path.exists(p):
                raise FileExistsError(
                    f"{self.name} tier is append-only; {key} already exists"
                )
            os.makedirs(os.path.dirname(p), exist_ok=True)
            tmp = p + ".tmp"
            with open(tmp, "wb") as f:
                f.write(data)
            os.replace(tmp, p)
        self._stats.charge_write(self.name, len(data), self._latency)

    def put(self, key: str, data: bytes) -> None:
        self._write(key, data, replace=False)

    def overwrite(self, key: str, data: bytes) -> None:
        """Atomically replace ``key`` (tmp file + ``os.replace``).

        Only for the small metadata keys (index state, PSN metadata), like
        a CURRENT/MANIFEST swap: a reader or a crash sees the old or the
        new value, never no value. Data blocks stay write-once via put().
        """
        self._write(key, data, replace=True)

    def get(self, key: str) -> bytes:
        with open(self._path(key), "rb") as f:
            data = f.read()
        self._stats.charge_read(self.name, len(data), self._latency)
        return data

    def delete(self, key: str) -> None:
        p = self._path(key)
        with self._lock:
            if os.path.exists(p):
                os.remove(p)

    def delete_dir(self, prefix: str) -> None:
        """Remove the directory ``prefix`` if it is empty."""
        # Under the lock, so it cannot remove a directory between put's
        # makedirs and its write.
        with self._lock:
            try:
                os.rmdir(self._path(prefix))
            except OSError:  # missing, or not empty: keep it
                pass

    def exists(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def list(self, prefix: str = "") -> list[str]:
        out = []
        for dirpath, _dirs, files in os.walk(self.root):
            for fn in files:
                if fn.endswith(".tmp"):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, fn), self.root)
                rel = rel.replace(os.sep, "/")
                if rel.startswith(prefix):
                    out.append(rel)
        return sorted(out)

    def used_bytes(self) -> int:
        total = 0
        for dirpath, _dirs, files in os.walk(self.root):
            for fn in files:
                total += os.path.getsize(os.path.join(dirpath, fn))
        return total

    def wipe(self) -> None:
        """Remove everything (crash simulation for recovery tests)."""
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root, exist_ok=True)


class StorageHierarchy:
    """The SSD cache and shared storage used by one indexer node."""

    def __init__(self, root: str):
        self.stats = IOStats()
        self.ssd = DirTier("ssd", os.path.join(root, "ssd"), self.stats, SSD_LATENCY)
        self.shared = DirTier(
            "shared", os.path.join(root, "shared"), self.stats, SHARED_LATENCY
        )

    def crash_node(self) -> None:
        """Lose the node-local SSD; shared storage survives. Runs resident
        in memory are lost with the index object that holds them.

        Models an indexer-process/node crash for recovery tests (§5.5).
        """
        self.ssd.wipe()
