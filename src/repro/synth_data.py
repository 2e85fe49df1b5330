"""Synthetic data, deterministic in ``seed`` so an oracle sees identical
input.

* ``lineitem``: a TPC-H-lite table at a scale factor (SF=1.0 is TPC-H
  SF1's 6M rows); the TPC-H integration test reads it at SF=0.01;
* the paper's §8 key generators: ``ingest_keys`` and ``query_keys``
  (§8.3) feed the Figs. 8–11 harnesses, and ``iot_update_cycle`` (§8.4's
  update model) the end-to-end harnesses and the benchmark.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_PART_PER_SF = 200_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )
    return spark.createDataFrame(pdf)


# ---------------------------------------------------------------------------
# Umzi (EDBT 2019) §8 workloads — synthetic key generator substitutions
# (DESIGN.md §2). All columns are 8-byte longs as in the paper.
# ---------------------------------------------------------------------------

def ingest_keys(n: int, *, mode: str, seed: int = 0, key_space: int | None = None) -> np.ndarray:
    """Paper §8.3: *sequential* keys simulate time-correlated ingest
    (0..n-1 in order); *random* keys are uniform without temporal
    correlation."""
    if mode == "sequential":
        return np.arange(n, dtype=np.int64)
    if mode == "random":
        g = _rng(seed)
        return g.integers(0, key_space or n, n, dtype=np.int64)
    raise ValueError(f"unknown ingest mode {mode!r}")


def query_keys(
    batch: int, *, mode: str, key_space: int, seed: int = 0
) -> np.ndarray:
    """Paper §8.3 query batches: sequential batches probe a contiguous
    key range (a random starting point); random batches sample uniformly
    from the ingested key space."""
    g = _rng(seed)
    if mode == "sequential":
        start = int(g.integers(0, max(1, key_space - batch)))
        return np.arange(start, start + batch, dtype=np.int64)
    if mode == "random":
        return g.integers(0, key_space, batch, dtype=np.int64)
    raise ValueError(f"unknown query mode {mode!r}")


def iot_update_cycle(
    cycle: int,
    per_cycle: int,
    *,
    p: float,
    next_new_key: int,
    seed: int = 0,
) -> tuple[np.ndarray, int]:
    """One groom cycle of the paper's §8.4 IoT update model.

    The latest cycle's ingest updates ``p%`` of the previous cycle's
    keys, ``0.1·p%`` of the last 50 cycles' keys, and ``0.01·p%`` of the
    last 100 cycles' keys; the remainder are brand-new keys. Keys are
    dense ids (cycle c owns [c·per_cycle, (c+1)·per_cycle) when p=0).

    Returns (keys ingested this cycle, next unused new key id).
    """
    if not 0 <= p <= 1:
        raise ValueError("p must be a fraction in [0, 1]")
    g = _rng(seed * 1_000_003 + cycle)
    n2 = int(per_cycle * p * 0.1) if cycle >= 1 else 0
    n3 = int(per_cycle * p * 0.01) if cycle >= 1 else 0
    # At p=100% the three fractions sum past 1; clamp the last-cycle share
    # so "all ingested records are updates" (§8.4) stays satisfiable.
    n1 = min(int(per_cycle * p), per_cycle - n2 - n3) if cycle >= 1 else 0
    parts = []
    if n1:
        lo = max(0, next_new_key - per_cycle)
        parts.append(g.integers(lo, next_new_key, n1, dtype=np.int64))
    if n2:
        lo = max(0, next_new_key - 50 * per_cycle)
        parts.append(g.integers(lo, next_new_key, n2, dtype=np.int64))
    if n3:
        lo = max(0, next_new_key - 100 * per_cycle)
        parts.append(g.integers(lo, next_new_key, n3, dtype=np.int64))
    n_new = per_cycle - n1 - n2 - n3
    parts.append(np.arange(next_new_key, next_new_key + n_new, dtype=np.int64))
    keys = np.concatenate(parts) if len(parts) > 1 else parts[0]
    g.shuffle(keys)
    return keys, next_new_key + n_new

