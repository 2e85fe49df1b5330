"""Seeded input generators and answer oracles for the benchmark workloads.

Every input is a pure function of the workload seed (and of the step
number), and every expected answer is computed from the generated inputs
alone, never from the index under test, so a faster wrong answer shows up
as a failed operation.
"""
from __future__ import annotations

import numpy as np

from repro.synth_data import iot_update_cycle

# resident / purged: 20 level-0 runs x 100K random keys over 2M keys.
N_RUNS = 20
RUN_ENTRIES = 100_000
KEY_SPACE = 2_000_000
SPLIT = 16_384  # c1 = key // SPLIT (device), c2 = key % SPLIT (message)
RUN_TS_BITS = 24  # begin_ts of entry j in run i = i << RUN_TS_BITS | j

# htap / spark_scan: the section 8.4 IoT update model.
PER_CYCLE = 10_000
UPDATE_P = 0.10
HTAP_SPLIT = 1_000
GROOM_TS_BITS = 20  # the groomer's begin_ts = groom cycle << 20 | position

BATCH = 1_000  # probes per batch_lookup


def rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def split_key(keys: np.ndarray, split: int) -> tuple[np.ndarray, np.ndarray]:
    keys = np.asarray(keys, dtype=np.int64)
    return keys // split, keys % split


# ------------------------------------------------------------------ runs
def resident_run(seed: int, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(keys, begin_ts, v) of level-0 run ``i``; random ingest."""
    g = rng(seed, 1, i)
    keys = g.integers(0, KEY_SPACE, RUN_ENTRIES, dtype=np.int64)
    v = g.integers(0, 1 << 40, RUN_ENTRIES, dtype=np.int64)
    ts = (np.int64(i) << RUN_TS_BITS) + np.arange(RUN_ENTRIES, dtype=np.int64)
    return keys, ts, v


def lookup_probes(seed: int, step: int, key_space: int) -> np.ndarray:
    """BATCH distinct random probe keys from ``[0, key_space)``."""
    return rng(seed, 2, step).choice(key_space, BATCH, replace=False).astype(np.int64)


def resident_query_ts(seed: int, step: int) -> int:
    """A snapshot inside the newest run, so its tail is invisible."""
    cut = int(rng(seed, 3, step).integers(0, RUN_ENTRIES))
    return ((N_RUNS - 1) << RUN_TS_BITS) + cut


def scan_device(seed: int, step: int) -> int:
    return int(rng(seed, 4, step).integers(0, KEY_SPACE // SPLIT))


def htap_cycle(seed: int, cycle: int, next_key: int):
    """(keys, v, next unused key) for one groom cycle of ingest."""
    keys, next_key = iot_update_cycle(
        cycle, PER_CYCLE, p=UPDATE_P, next_new_key=next_key, seed=seed
    )
    v = rng(seed, 5, cycle).integers(0, 1 << 40, len(keys), dtype=np.int64)
    return keys, v, next_key


def spark_device(seed: int, step: int, n_devices: int) -> int:
    return int(rng(seed, 6, step).integers(0, n_devices))


# --------------------------------------------------------------- oracles
class VersionLog:
    """Every ingested version, sorted by (key, begin_ts); answers
    "latest version visible at query_ts" for any snapshot."""

    def __init__(self, parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]]):
        keys = np.concatenate([p[0] for p in parts])
        ts = np.concatenate([p[1] for p in parts])
        v = np.concatenate([p[2] for p in parts])
        comb = (keys << 32) | ts
        order = np.argsort(comb, kind="stable")
        self.comb = comb[order]
        self.v = v[order]

    def latest(self, probes: np.ndarray, query_ts: int):
        """(found mask, begin_ts, v) per probe."""
        pos = np.searchsorted(self.comb, (probes << 32) | query_ts, side="right") - 1
        ok = pos >= 0
        pos = np.maximum(pos, 0)
        ok &= (self.comb[pos] >> 32) == probes
        return ok, self.comb[pos] & 0xFFFFFFFF, self.v[pos]

    def latest_range(self, key_lo: int, key_hi: int, query_ts: int):
        """(keys, begin_ts, v) of the latest visible version of every key
        in ``[key_lo, key_hi)``, in key order."""
        a = np.searchsorted(self.comb, key_lo << 32)
        b = np.searchsorted(self.comb, key_hi << 32)
        comb, v = self.comb[a:b], self.v[a:b]
        vis = (comb & 0xFFFFFFFF) <= query_ts
        comb, v = comb[vis], v[vis]
        keys = comb >> 32
        last = np.ones(len(keys), dtype=bool)
        last[:-1] = keys[1:] != keys[:-1]
        return keys[last], comb[last] & 0xFFFFFFFF, v[last]


class LatestTable:
    """Latest version per dense key id (htap reads at the newest snapshot)."""

    def __init__(self) -> None:
        self.ts = np.full(0, -1, dtype=np.int64)
        self.v = np.zeros(0, dtype=np.int64)

    def add(self, keys: np.ndarray, ts: np.ndarray, v: np.ndarray) -> None:
        need = int(keys.max()) + 1 if len(keys) else 0
        if need > len(self.ts):
            grow = max(need, 2 * len(self.ts))
            self.ts = np.concatenate([self.ts, np.full(grow - len(self.ts), -1, np.int64)])
            self.v = np.concatenate([self.v, np.zeros(grow - len(self.v), np.int64)])
        # The last occurrence of a key in one cycle is its newest version.
        uniq, first_rev = np.unique(keys[::-1], return_index=True)
        last = len(keys) - 1 - first_rev
        self.ts[uniq] = ts[last]
        self.v[uniq] = v[last]

    def latest(self, probes: np.ndarray):
        inside = probes < len(self.ts)
        pos = np.where(inside, probes, 0)
        ok = inside & (self.ts[pos] >= 0)
        return ok, self.ts[pos], self.v[pos]

    def count(self, key_lo: int = 0, key_hi: int | None = None) -> int:
        return int((self.ts[key_lo:key_hi] >= 0).sum())


# --------------------------------------------------------------- checkers
def check_rows(res: dict, split: int, keys, ts, v) -> bool:
    """Result rows of a lookup or scan equal the expected (key, begin_ts,
    v) triples exactly: no row missing, extra, duplicated or stale."""
    got = np.asarray(res["c1"], np.int64) * split + np.asarray(res["c2"], np.int64)
    order = np.argsort(got, kind="stable")
    return (
        np.array_equal(got[order], keys)
        and np.array_equal(np.asarray(res["begin_ts"])[order], ts)
        and np.array_equal(np.asarray(res["v"])[order], v)
    )


def check_lookup(res: dict, split: int, probes: np.ndarray, expected) -> bool:
    ok, ts, v = expected
    order = np.argsort(probes, kind="stable")
    found = ok[order]
    return check_rows(res, split, probes[order][found], ts[order][found], v[order][found])
