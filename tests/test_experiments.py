"""Experiment harnesses (Figs. 8–15) at smoke scale: run, and check the
qualitative shapes the paper reports."""
import json
import os
import tempfile

import numpy as np
import pytest

from repro.experiments import defs
from repro.experiments.__main__ import FIGURES, main, write_bench
from repro.experiments.endtoend import E2EConfig, fig15, run_e2e
from repro.experiments.figs_index import (
    fig08,
    fig09,
    fig10_11_batch,
    fig10_11_runs,
    fig10_11_scan,
)

SMALL = (1_000, 10_000)


class TestDefs:
    @pytest.mark.parametrize("defn", ["I1", "I2", "I3"])
    def test_spec_shapes(self, defn):
        spec = defs.make_spec(defn)
        n_eq = {"I1": 1, "I2": 2, "I3": 1}[defn]
        n_sort = {"I1": 1, "I2": 0, "I3": 0}[defn]
        assert len(spec.eq_cols) == n_eq and len(spec.sort_cols) == n_sort
        assert spec.include_cols == ("v",)

    def test_unknown_defn(self):
        with pytest.raises(ValueError):
            defs.make_spec("I9")
        with pytest.raises(ValueError):
            defs.key_columns("I9", np.arange(3))

    def test_key_columns_split(self):
        eq, sorts = defs.key_columns("I1", np.asarray([0, 999, 1000, 2001]))
        assert eq["c1"].tolist() == [0, 0, 1, 2]
        assert sorts["c2"].tolist() == [0, 999, 0, 1]

    def test_build_run_roundtrip_lookup(self):
        from repro.core import query as q
        from repro.core.runlist import RunHandle

        ix = defs.make_index("I1")
        keys = np.arange(500, dtype=np.int64)
        run = defs.build_run(ix.spec, "I1", keys, gbid=0)
        ix.groomed.prepend(RunHandle(run))
        eq_p, sort_p = defs.probes_for("I1", np.asarray([42], np.int64))
        res = q.batch_lookup(ix, eq_p, sort_p, 2**62)
        assert len(res["begin_ts"]) == 1


class TestFig08:
    def test_build_scales_roughly_linearly(self):
        out = fig08(sizes=SMALL)
        rows = out["rows"]
        assert rows[0]["I1"] == 1.0  # normalized baseline
        # 10x entries should cost clearly more (not sublinear-flat)
        assert rows[1]["I1"] > 2 * rows[0]["I1"]

    def test_i3_not_slower_and_column_count_negligible(self):
        """§8.2: I3 (one fewer key column) is cheapest, but the impact of
        column count is negligible versus sort cost — so all three are
        within a small factor."""
        out = fig08(sizes=(100_000,))
        r = out["rows"][0]
        assert r["I3"] <= r["I2"]
        assert r["I3"] <= r["I1"] * 1.35
        assert max(r["I1"], r["I2"], r["I3"]) <= 2.5 * min(r["I1"], r["I2"], r["I3"])


class TestFig09:
    def test_runs_and_normalizes(self):
        out = fig09(sizes=SMALL, batch=200)
        assert out["tables"]["sequential"][0]["I1"] == 1.0
        for t in out["tables"].values():
            for row in t:
                assert all(v > 0 for k, v in row.items() if k != "n")


class TestFig10_11:
    def test_batch_amortization(self):
        """§8.3.2: batching reduces per-key lookup time."""
        out = fig10_11_batch(
            "sequential", n_runs=5, run_size=5_000, batches=(1, 100, 1000)
        )
        per_key = {r["batch"]: r["sequential"] for r in out["rows"]}
        assert per_key[1000] < per_key[1] * 0.5

    def test_sequential_prunes_better_than_random_queries(self):
        out = fig10_11_batch(
            "sequential", n_runs=10, run_size=5_000, batches=(1000,)
        )
        r = out["rows"][0]
        assert r["sequential"] < r["random"]

    def test_random_ingest_kills_pruning(self):
        """§8.3.3: with random ingest the synopsis is useless; sequential
        and random query cost converge."""
        out = fig10_11_batch("random", n_runs=10, run_size=5_000, batches=(1000,))
        r = out["rows"][0]
        assert r["sequential"] > 0.5 * r["random"]

    def test_random_queries_scale_with_runs(self):
        out = fig10_11_runs(
            "sequential", run_counts=(1, 10, 20), run_size=2_000, batch=200
        )
        rnd = {r["runs"]: r["random"] for r in out["rows"]}
        # ~linear growth in #runs (Fig. 10b): monotone and clearly super-
        # constant even at smoke scale
        assert rnd[1] < rnd[10] < rnd[20]
        assert rnd[20] > rnd[1] * 2

    def test_sequential_queries_flat_in_runs(self):
        out = fig10_11_runs(
            "sequential", run_counts=(1, 10, 20), run_size=2_000, batch=200
        )
        seq = {r["runs"]: r["sequential"] for r in out["rows"]}
        assert seq[20] < seq[1] * 6  # far from 20x

    def test_scan_time_grows_with_range(self):
        """Fig. 10c: scan time grows with the range above the scan's fixed
        search + I/O cost. One decade (10K → 100K rows) must cost > 5×;
        a scan doing constant work fails this at any compute speed, since
        the modelled block reads alone grow 7× (4 blocks against 28)."""
        out = fig10_11_scan(
            "sequential", n_runs=4, run_size=25_000, ranges=(10_000, 100_000)
        )
        seq = {r["range"]: r["sequential"] for r in out["rows"]}
        assert seq[100_000] > seq[10_000] * 5


class TestEndToEnd:
    CFG = dict(cycles=8, per_cycle=1_000, post_groom_every=4, lookup_batch=100)

    def test_run_e2e_basic(self):
        res = run_e2e(E2EConfig(**self.CFG))
        assert len(res.per_cycle_lookup_s) == 8
        assert res.final_describe["covered_gbid"] == 7
        assert all(t > 0 for t in res.per_cycle_lookup_s)

    def test_run_e2e_removes_its_storage(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        run_e2e(E2EConfig(**self.CFG))
        assert os.listdir(tmp_path) == []

    def test_purge_all_costs_more_io(self):
        none = run_e2e(E2EConfig(**self.CFG, purge="none"))
        alls = run_e2e(E2EConfig(**self.CFG, purge="all"))
        assert sum(alls.per_cycle_io_s) > 5 * sum(none.per_cycle_io_s)

    def test_no_evolve_accumulates_runs(self):
        out = fig15(E2EConfig(**self.CFG))
        on = out["run_counts"]["post-groom"]
        off = out["run_counts"]["no post-groom"]
        assert off[-1] >= on[-1]  # evolve reduces run count (§8.4.4)

    def test_concurrent_readers_results_complete(self):
        res = run_e2e(E2EConfig(**self.CFG, readers=4))
        assert res.reader_batches == 8 * 4

    def test_update_rate_respected(self):
        res0 = run_e2e(E2EConfig(**self.CFG, p=0.0))
        res9 = run_e2e(E2EConfig(**self.CFG, p=0.9))
        # p=0 ingests only fresh keys → more total entries than p=0.9?
        # Both ingest the same count; entries equal — but describe() totals
        # visible entries, identical. Just sanity-check both ran.
        assert res0.final_describe["entries"] == res9.final_describe["entries"]


class TestCommand:
    def test_every_name_is_a_harness(self):
        assert set(FIGURES) == {f"fig{n:02d}" for n in range(8, 16)} | {"scan"}
        assert all(callable(fn) for fn in FIGURES.values())

    def test_unknown_name_lists_the_valid_ones(self, capsys):
        assert main(["fig99"]) != 0
        err = capsys.readouterr().err
        assert all(name in err for name in FIGURES)

    def test_bench_json_roundtrip(self, tmp_path, monkeypatch):
        out = fig08(sizes=SMALL)
        monkeypatch.chdir(tmp_path)
        path = write_bench("fig08", {"sizes": SMALL}, out)
        assert path.resolve() == tmp_path / "results" / "BENCH_fig08.json"
        doc = json.loads(path.read_text())
        assert doc["figure"] == "fig08" and doc["params"] == {"sizes": list(SMALL)}
        assert doc["result"]["rows"] == out["rows"]
        wall = doc["result"]["wall_seconds"]
        assert set(wall) == {f"{d},{n}" for d in ("I1", "I2", "I3") for n in SMALL}
        assert wall["I1,1000"] == out["wall_seconds"][("I1", 1_000)]
        assert doc["result"]["baseline_seconds"] == out["baseline_seconds"]
