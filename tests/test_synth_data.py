"""Synthetic data generators — provided TPC-H-lite + the paper's §8
key/update generators added for this reproduction."""
import numpy as np
import pytest

from repro import synth_data as sd


class TestTpchLite:
    def test_lineitem_shape_and_determinism(self, spark):
        a = sd.lineitem(spark, sf=0.001, seed=0).toPandas()
        b = sd.lineitem(spark, sf=0.001, seed=0).toPandas()
        assert len(a) == 6000
        assert (a["l_orderkey"] == b["l_orderkey"]).all()


class TestIngestKeys:
    def test_sequential(self):
        k = sd.ingest_keys(100, mode="sequential")
        assert k.tolist() == list(range(100))

    def test_random_within_space(self):
        k = sd.ingest_keys(1000, mode="random", seed=1, key_space=50)
        assert k.min() >= 0 and k.max() < 50
        assert len(np.unique(k)) > 30

    def test_random_deterministic(self):
        a = sd.ingest_keys(100, mode="random", seed=3)
        b = sd.ingest_keys(100, mode="random", seed=3)
        assert (a == b).all()

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            sd.ingest_keys(10, mode="zigzag")


class TestQueryKeys:
    def test_sequential_contiguous(self):
        k = sd.query_keys(50, mode="sequential", key_space=1000, seed=2)
        assert (np.diff(k) == 1).all()
        assert k.min() >= 0 and k.max() < 1000

    def test_random_spread(self):
        k = sd.query_keys(1000, mode="random", key_space=10**6, seed=2)
        assert k.std() > 10**5

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            sd.query_keys(10, mode="x", key_space=10)


class TestIotUpdateModel:
    def test_p_zero_all_new_keys(self):
        nxt = 0
        seen = set()
        for cyc in range(5):
            keys, nxt = sd.iot_update_cycle(cyc, 100, p=0.0, next_new_key=nxt)
            assert len(keys) == 100
            assert not (set(keys.tolist()) & seen)
            seen |= set(keys.tolist())
        assert nxt == 500

    def test_update_fractions(self):
        """§8.4: p% from the last cycle, 0.1p% from last 50, 0.01p% last
        100 — the rest are new keys."""
        per, p = 10_000, 0.4
        keys0, nxt = sd.iot_update_cycle(0, per, p=p, next_new_key=0)
        keys1, nxt2 = sd.iot_update_cycle(1, per, p=p, next_new_key=nxt)
        n_new = nxt2 - nxt
        n_updates = per - n_new
        expected_updates = int(per * p) + int(per * p * 0.1) + int(per * p * 0.01)
        assert n_updates == expected_updates
        # updated keys reference previously ingested ids
        old = set(range(nxt))
        upd = [k for k in keys1.tolist() if k < nxt]
        assert len(upd) >= n_updates
        assert set(upd) <= old

    def test_p_one_mostly_updates(self):
        keys0, nxt = sd.iot_update_cycle(0, 1000, p=1.0, next_new_key=0)
        keys1, nxt2 = sd.iot_update_cycle(1, 1000, p=1.0, next_new_key=nxt)
        assert nxt2 == nxt  # no new keys at p=100% (floor effects aside)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            sd.iot_update_cycle(0, 10, p=1.5, next_new_key=0)

    def test_deterministic_in_seed(self):
        a, _ = sd.iot_update_cycle(3, 100, p=0.5, next_new_key=300, seed=7)
        b, _ = sd.iot_update_cycle(3, 100, p=0.5, next_new_key=300, seed=7)
        assert (a == b).all()

