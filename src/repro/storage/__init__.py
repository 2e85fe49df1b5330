"""Storage substrate: a local SSD cache over shared storage (paper §6).

The paper runs on RAM + a local Intel 750 SSD + GlusterFS. RAM holds the
runs' own resident columns (a non-persisted run lives only there, §6.1);
the SSD and shared storage are simulated over the local filesystem with
a virtual I/O clock (DESIGN.md §2):
real files underneath (so persistence and recovery paths are exercised),
per-tier latencies charged to ``IOStats`` (so cache effects reproduce the
paper's *shape* without depending on container hardware).
"""
from repro.storage.tiers import (  # noqa: F401
    IOStats,
    DirTier,
    StorageHierarchy,
    TierLatency,
    capture_io,
)
from repro.storage.cache import CacheManager  # noqa: F401
