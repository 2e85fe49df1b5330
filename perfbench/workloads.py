"""The benchmark's workloads: resident, purged and htap.

Each runs one client in a closed loop: a step starts only after the
previous one has finished. A step's operations are timed one by one with
tracing off (or, in a traced run, alternately on and off) and every answer
is checked against the generator-derived oracle outside the timed region.
"""
from __future__ import annotations

import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext

import numpy as np
import pandas as pd

import oracle as O
from spans import NAME, NOTE, PARENT, STEP, T0, T1, Tracer

from repro.core import query as core_query
from repro.core import recovery as core_recovery
from repro.core.index import UmziConfig, UmziIndex
from repro.core.run import GROOMED, IndexRun, IndexSpec
from repro.storage import CacheManager, StorageHierarchy, capture_io
from repro.wildfire import Groomer, Indexer, PostGroomer, TableSchema, TableShard

# Index definition I1: equality c1, sort c2, include v (section 8.1).
SPEC = IndexSpec(
    eq_cols=("c1",), sort_cols=("c2",), include_cols=("v",), hash_bits=10, block_rows=4096
)
CONFIG = UmziConfig(K=3, T=4)
SCHEMA = TableSchema(
    name="iot", columns=("c1", "c2", "v"), primary_key=("c1", "c2"),
    sharding_key=("c1",), partition_key=("c2",),
)
SETUP_REPS = 5
PG_EVERY = 10  # post-groom + evolve every 10th groom cycle
WARM_CYCLES = 10  # htap set-up: cycles ingested before timing starts
EPOCH_CYCLES = 40  # timed htap cycles per table; then crash + recover
SPARK_QUERIES = 3  # timed query pairs after the first one (traced htap)
SETUP_STEP = -1  # step id of traced set-up spans
UNTIMED_STEP = 10**6  # input stream of untimed operations
RECOVERY_STEP = -2  # step id of traced recovery spans
# Count metrics are taken over this many first steps of each workload,
# which every run makes, so that they repeat exactly for one seed.
COUNT_STEPS = {"resident": 4, "purged": 4, "htap": 12}


def median(xs):
    return statistics.median(xs) if xs else 0.0


class Calibration:
    """A fixed CPU + memory kernel that uses no code of the program: a
    Python loop of small numpy calls over a 16 MB sorted array, like the
    index search. It runs before every step, so that the gated latencies
    can be given in units of this machine's current speed, which drifts
    by up to 1.8x over minutes on a shared host."""

    def __init__(self) -> None:
        g = np.random.default_rng(0)
        self.a = np.sort(g.integers(0, 1 << 62, 1 << 21))
        self.probes = g.integers(0, 1 << 62, 2000)

    def run(self) -> float:
        a = self.a
        t0 = time.perf_counter()
        for p in self.probes:
            i = int(np.searchsorted(a, p))
            a[i : i + 64].sum()
        return time.perf_counter() - t0


class Bench:
    """One workload run: timings, failures, counters and the tracer."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, workdir: str,
                 src_dir: str = ""):
        self.name, self.seed, self.seconds, self.workdir = name, seed, seconds, workdir
        self.src_dir = src_dir  # where Spark's Python workers import repro from
        self.tracer = Tracer() if trace else None
        self.attempted = self.failed = 0
        self.samples = defaultdict(list)  # op kind -> seconds, untraced steps
        self.traced_samples = defaultdict(list)  # op kind -> seconds, traced steps
        self.counts = defaultdict(float)  # over the counted steps
        self.n_counted = COUNT_STEPS[name]  # the first steps of the run
        self.traced: list[int] = []
        self.calibration = Calibration()
        self.setup_s = 0.0
        self.report: dict[str, tuple[float, str]] = {}
        self.extra: dict[str, float] = {}  # per-layer values set by a workload

    # ------------------------------------------------------------ set-up
    def root(self, rep: int) -> str:
        return os.path.join(self.workdir, f"rep{rep}")

    def setup(self, build):
        """Set up SETUP_REPS times, each from scratch; keep the last."""
        times = []
        for rep in range(SETUP_REPS):
            out = None  # free the previous set-up's index first
            last = rep == SETUP_REPS - 1
            scope = self.tracer.traced_step(SETUP_STEP) if self.tracer and last else nullcontext()
            t0 = time.perf_counter()
            with scope:
                out = build(rep)
            times.append(time.perf_counter() - t0)
            if not last:
                shutil.rmtree(self.root(rep), ignore_errors=True)
        self.setup_s = median(times)
        return out

    # ------------------------------------------------------------ loop
    def steps(self, min_steps: int = 0):
        """Yield (step, traced, counted) until ``seconds`` have passed and
        at least ``min_steps`` and the counted steps are done. The counted
        steps come first; a traced run traces them and then every odd
        step, so that the even ones measure the untraced time."""
        deadline = time.perf_counter() + self.seconds
        i = 0
        while i < max(min_steps, self.n_counted) or time.perf_counter() < deadline:
            counted = i < self.n_counted
            traced = self.tracer is not None and (counted or i % 2 == 1)
            if traced:
                self.traced.append(i)
            self.samples["cal"].append(self.calibration.run())
            yield i, traced, counted
            i += 1

    def scope(self, step: int, traced: bool):
        return self.tracer.traced_step(step) if traced else nullcontext()

    def op(self, kind: str, fn, check=None, traced: bool = False):
        """Time one operation; returns (result, seconds) or (None, None)
        if it raised. A wrong answer or an exception counts as failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None, None
        dt = time.perf_counter() - t0
        (self.traced_samples if traced else self.samples)[kind].append(dt)
        if check is not None and not check(out):
            self.failed += 1
            print(f"wrong answer: {self.name} {kind}", file=sys.stderr)
        return out, dt

    def lookup(self, index, probes, query_ts, split, expected, traced, counted, kind="read"):
        """One oracle-checked 1K-key batch_lookup, with its I/O counters."""
        c1, c2 = O.split_key(probes, split)
        stats = index.cache.h.stats if index.cache is not None else None
        before = stats.snapshot() if stats else None
        with capture_io() as cap:
            res, dt = self.op(
                kind,
                lambda: core_query.batch_lookup(index, [c1], [c2], query_ts),
                lambda r: O.check_lookup(r, split, probes, expected),
                traced,
            )
        if counted and kind == "read":
            c = self.counts
            c["lookups"] += 1
            c["probes"] += len(probes)
            c["found"] += 0 if res is None else len(res["begin_ts"])
            c["io_s"] += cap.seconds
            for tier, n in cap.reads.items():
                c[f"reads.{tier}"] += n
            if stats:
                c["bytes_read.shared"] += (
                    stats.snapshot()["bytes_read"]["shared"] - before["bytes_read"]["shared"]
                )
        if kind == "read" and not traced:
            self.samples["io"].append(cap.seconds)
        return dt

    def step_done(self, *durations) -> None:
        if all(d is not None for d in durations):
            self.samples["step"].append(sum(durations))

    # ------------------------------------------------------------ results
    def end_to_end(self) -> dict[str, float]:
        """The gated metrics; each one exists on every workload. Latency
        is in units of the calibration kernel's median time."""
        cal = median(self.samples["cal"])
        return {
            "setup_s": self.setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "read_p50_rel": median(self.samples["read"]) / cal,
            "step_p50_rel": median(self.samples["step"]) / cal,
        }

    def report_lines(self, e2e: dict[str, float]) -> list[str]:
        """Every end-to-end metric by name and unit, including the ones
        only one workload has and the ones the JSON line leaves out."""
        reads, steps = self.samples["read"], self.samples["step"]
        out = {
            "setup_s": (e2e["setup_s"], "s"),
            "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
            "error_rate": (self.failed / max(1, self.attempted), "ratio"),
            "calibration_ms": (1e3 * median(self.samples["cal"]), "ms"),
            "read_p50_rel": (e2e["read_p50_rel"], "ratio"),
            "step_p50_rel": (e2e["step_p50_rel"], "ratio"),
            "step_p50_ms": (1e3 * median(steps), "ms"),
            "steps_per_s": (len(steps) / sum(steps) if steps else 0.0, "1/s"),
            "lookup_p50_ms": (1e3 * median(reads), "ms"),
        }
        if len(reads) >= 10:
            out["lookup_p90_ms"] = (1e3 * statistics.quantiles(reads, n=10)[-1], "ms")
        out.update(self.report)
        lines = [f"# {self.name} seed={self.seed} steps={len(self.samples['step'])} "
                 f"reads={len(reads)} attempted={self.attempted} failed={self.failed}"]
        return lines + [f"# {k} = {v:.6g} {u}" for k, (v, u) in out.items()]


# ------------------------------------------------------------ resident / purged
def build_runs(seed: int, index: UmziIndex) -> UmziIndex:
    """20 level-0 runs x 100K random-ingest entries, newest run first."""
    for i in range(O.N_RUNS):
        keys, ts, v = O.resident_run(seed, i)
        c1, c2 = O.split_key(keys, O.SPLIT)
        n = len(keys)
        index.add_groomed_run(
            IndexRun.build(
                SPEC, zone=GROOMED, level=0, gbid_lo=i, gbid_hi=i,
                eq={"c1": c1}, sorts={"c2": c2}, begin_ts=ts,
                rid_zone=np.zeros(n, np.int64), rid_block=np.full(n, i, np.int64),
                rid_off=np.arange(n, dtype=np.int64), includes={"v": v},
            )
        )
    return index


def resident_log(seed: int) -> O.VersionLog:
    return O.VersionLog([O.resident_run(seed, i) for i in range(O.N_RUNS)])


def run_resident(b: Bench) -> None:
    """Memory-resident runs; a step is one 1K-key batch_lookup and one
    range_scan over one device's whole message range."""
    index = b.setup(lambda rep: build_runs(b.seed, UmziIndex(SPEC)))
    log = resident_log(b.seed)
    for i, traced, counted in b.steps():
        probes = O.lookup_probes(b.seed, i, O.KEY_SPACE)
        qts = O.resident_query_ts(b.seed, i)
        expected = log.latest(probes, qts)
        dev = O.scan_device(b.seed, i)
        rows = log.latest_range(dev * O.SPLIT, (dev + 1) * O.SPLIT, qts)
        bounds = ((dev,), (0,), (O.SPLIT - 1,), qts)

        def check_scan(r):
            return O.check_rows(r, O.SPLIT, *rows)

        with b.scope(i, traced):
            t_read = b.lookup(index, probes, qts, O.SPLIT, expected, traced, counted)
            _, t_scan = b.op(
                "scan", lambda: core_query.range_scan(index, *bounds), check_scan, traced
            )
            if traced:  # the other reconciliation method, traced runs only
                b.op(
                    "scan_set",
                    lambda: core_query.range_scan(index, *bounds, method="set"),
                    check_scan,
                    traced,
                )
        b.step_done(t_read, t_scan)
    b.report["lookup_io_ms"] = (1e3 * median(b.samples["io"]), "ms")
    b.report["scan_p50_ms"] = (1e3 * median(b.samples["scan"]), "ms")


def run_purged(b: Bench) -> None:
    """Persisted runs, all purged from the local tiers before every step;
    a step is one 1K-key batch_lookup served from shared storage."""

    def build(rep):
        cache = CacheManager(StorageHierarchy(b.root(rep)))
        return build_runs(b.seed, UmziIndex(SPEC, cache=cache))

    index = b.setup(build)
    log = resident_log(b.seed)
    for i, traced, counted in b.steps():
        probes = O.lookup_probes(b.seed, i, O.KEY_SPACE)
        qts = O.resident_query_ts(b.seed, i)
        expected = log.latest(probes, qts)
        with b.scope(i, traced):
            index.apply_cache_level(-1)  # purge every run; not timed
            t_read = b.lookup(index, probes, qts, O.SPLIT, expected, traced, counted)
        b.step_done(t_read)
    b.report["lookup_io_ms"] = (1e3 * median(b.samples["io"]), "ms")


# ------------------------------------------------------------ htap
class Table:
    """One table shard with its index, groomer, post-groomer and indexer,
    plus the oracle's view of every version ingested so far."""

    def __init__(self, root: str, seed: int):
        self.root = root
        self.hier = StorageHierarchy(root)
        self.cache = CacheManager(self.hier)
        self.index = UmziIndex(SPEC, CONFIG, self.cache)
        self.shard = TableShard(SCHEMA, self.hier)
        self.groomer = Groomer(self.shard, self.index, self.hier)
        self.pg = PostGroomer(SCHEMA, self.index, self.hier)
        self.indexer = Indexer(SCHEMA, self.index, self.hier, self.pg)
        self.seed = seed
        self.cycle = 0
        self.next_key = 0
        self.rows = 0
        self.latest = O.LatestTable()

    def next_frame(self) -> pd.DataFrame:
        keys, v, self.next_key = O.htap_cycle(self.seed, self.cycle, self.next_key)
        c1, c2 = O.split_key(keys, O.HTAP_SPLIT)
        # The groomer stamps row j of groom cycle c with c << 20 | j.
        ts = (np.int64(self.cycle + 1) << O.GROOM_TS_BITS) + np.arange(len(keys), dtype=np.int64)
        self.latest.add(keys, ts, v)
        self.rows += len(keys)
        return pd.DataFrame({"c1": c1, "c2": c2, "v": v})

    def pg_due(self) -> bool:
        return (self.cycle + 1) % PG_EVERY == 0

    def post_groom(self) -> int:
        self.pg.post_groom(upto_gbid=self.groomer.next_gbid - 1)
        return self.indexer.poll()

    def fill(self, cycles: int) -> "Table":
        for _ in range(cycles):
            self.shard.ingest(self.next_frame())
            if self.groomer.groom() is None:
                raise RuntimeError("groom found no rows")
            if self.pg_due() and self.post_groom() != 1:
                raise RuntimeError("post-groom was not evolved")
            self.cycle += 1
        return self

    def probes(self, step: int) -> np.ndarray:
        # About one in eleven probes is a key not ingested yet: it must miss.
        return O.lookup_probes(self.seed, step, int(self.next_key * 1.1))

    def user_bytes(self, rows: int) -> int:
        return rows * 8 * len(SCHEMA.columns)


def run_htap(b: Bench) -> None:
    """Tables of WARM_CYCLES + EPOCH_CYCLES groom cycles, one after
    another until time is up. A timed cycle is ingest -> groom (+ maintain)
    -> every 10th cycle post-groom + poll (evolve) -> one 1K-key
    batch_lookup. A full table ends with a crash and recovery. Starting
    over keeps the work of a step the same however many steps a run
    makes; a table that is cut off by the deadline is not recovered."""
    t = b.setup(lambda rep: Table(b.root(rep), b.seed).fill(WARM_CYCLES))
    first = None  # the first full table; a traced run scans it with Spark
    maint = defaultdict(float)  # rows and seconds of ingest + maintenance
    for i, traced, counted in b.steps(min_steps=EPOCH_CYCLES):
        if t is None:  # not timed
            t = Table(b.root(SETUP_REPS + i), b.seed).fill(WARM_CYCLES)
        htap_step(b, t, i, traced, counted, maint)
        if t.cycle == WARM_CYCLES + EPOCH_CYCLES:
            recover_table(b, t, first=not b.samples["recovery"])
            if first is None and b.tracer is not None:
                first = t
            else:
                shutil.rmtree(t.root, ignore_errors=True)
            t = None
    if b.tracer is not None:
        spark_scans(b, first)
    c = b.counts
    write_amp = (c["written.ssd"] + c["written.shared"]) / max(1, c["user_bytes"])
    b.extra["tiers.write_amp"] = write_amp
    for tier in ("ssd", "shared"):
        b.extra[f"tiers.bytes_written.{tier}"] = c[f"written.{tier}"] / max(1, c["user_bytes"])
    b.extra["index.visible_runs"] = c["visible_runs"] / b.n_counted
    b.report["lookup_io_ms"] = (1e3 * median(b.samples["io"]), "ms")
    b.report["ingest_rows_per_s"] = (maint["rows"] / max(maint["s"], 1e-9), "1/s")
    b.report["groom_p50_ms"] = (1e3 * median(b.samples["groom"]), "ms")
    b.report["write_amp"] = (write_amp, "ratio")
    b.report["space_amp"] = (b.extra.get("tiers.space_amp", 0.0), "ratio")
    b.report["recovery_s"] = (median(b.samples["recovery"]), "s")
    b.report["cold_lookup_ms"] = (1e3 * median(b.samples["cold_read"]), "ms")


def htap_step(b: Bench, t: Table, i: int, traced: bool, counted: bool, maint) -> None:
    stats = t.hier.stats
    before = stats.snapshot()
    rows_before, runs_before = t.rows, len(t.cache.known_runs())
    frame = t.next_frame()
    with b.scope(i, traced):
        _, t_in = b.op("ingest", lambda: t.shard.ingest(frame), None, traced)
        _, t_gr = b.op("groom", t.groomer.groom, lambda g: g is not None, traced)
        t_pg = 0.0
        if t.pg_due():
            _, t_pg = b.op("post_groom", t.post_groom, lambda n: n == 1, traced)
        t.cycle += 1
        probes = t.probes(i)
        t_read = b.lookup(t.index, probes, 2**62, O.HTAP_SPLIT,
                          t.latest.latest(probes), traced, counted)
    b.step_done(t_in, t_gr, t_pg, t_read)
    if None not in (t_in, t_gr, t_pg):
        maint["rows"] += len(frame)
        maint["s"] += t_in + t_gr + t_pg
    if counted:
        after = stats.snapshot()
        c = b.counts
        c["rows"] += t.rows - rows_before
        c["user_bytes"] += t.user_bytes(t.rows - rows_before)
        c["runs_delta"] += len(t.cache.known_runs()) - runs_before
        c["visible_runs"] += t.index.describe()["visible_runs"]
        for tier in ("ssd", "shared"):
            c[f"written.{tier}"] += after["bytes_written"][tier] - before["bytes_written"][tier]
        if i == b.n_counted - 1:
            b.extra["tiers.space_amp"] = t.hier.shared.used_bytes() / t.user_bytes(t.rows)


def recover_table(b: Bench, t: Table, first: bool) -> None:
    """Crash the node (memory + SSD lost), rebuild the index from shared
    storage and check one lookup batch on it. Recovered runs have no local
    copy, so that batch reads every block it needs from shared storage:
    the cold miss path."""
    stats = t.hier.stats
    t.hier.crash_node()
    before = stats.snapshot()
    with b.scope(RECOVERY_STEP, b.tracer is not None):
        index, _ = b.op(
            "recovery", lambda: core_recovery.recover(SPEC, CONFIG, CacheManager(t.hier))
        )
        if index is None:
            return
        after = stats.snapshot()
        probes = t.probes(UNTIMED_STEP)
        b.lookup(index, probes, 2**62, O.HTAP_SPLIT, t.latest.latest(probes), False, False,
                 kind="cold_read")
    if first:  # the first table is the same in every run of a seed
        b.extra["recovery.shared_reads"] = after["reads"]["shared"] - before["reads"]["shared"]
        b.extra["recovery.bytes_read_per_entry"] = (
            after["bytes_read"]["shared"] - before["bytes_read"]["shared"]
        ) / max(1, index.describe()["entries"])
        b.extra["cold.shared_reads"] = (
            stats.snapshot()["reads"]["shared"] - after["reads"]["shared"]
        )


# ------------------------------------------------------------ sparkio
def start_spark(workdir: str, src_dir: str):
    """A local[2] session whose JVM and Python workers keep their files
    under ``workdir`` and import ``repro`` from ``src_dir``."""
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # Every JVM the launch starts keeps its temporary files under workdir.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        "--master local[2] --driver-memory 1g "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={tmp} "
        f"--conf spark.sql.warehouse.dir={os.path.join(workdir, 'warehouse')} "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "4")
        .getOrCreate()
    )


def stop_spark(spark) -> None:
    """Stop the session and its JVM, and wait for the JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()


def spark_scans(b: Bench, t: Table) -> None:
    """Spark counts over the unified view of both zones of ``t``: a
    pushed ``c1 = X`` filter (synopsis skipping) and an unfiltered count.
    Traced htap runs only: one query varies too much from run to run to
    be gated, so these give per-layer numbers."""
    from repro.sparkio import unified_view

    root = t.hier.shared.root
    n_devices = (t.next_key + O.HTAP_SPLIT - 1) // O.HTAP_SPLIT
    total = t.latest.count()
    t0 = time.perf_counter()
    spark = start_spark(b.workdir, b.src_dir)
    try:
        b.extra["spark.start_s"] = time.perf_counter() - t0

        def view():
            return unified_view(spark, root, query_ts=2**62, key_cols=["c1", "c2"])

        def planned(df):
            df._jdf.queryExecution().executedPlan()  # analysis + planning only
            return df

        plan, parts_point, parts_full = [], [], []
        for i in range(SPARK_QUERIES + 1):
            dev = O.spark_device(b.seed, i, n_devices)
            want = t.latest.count(dev * O.HTAP_SPLIT, (dev + 1) * O.HTAP_SPLIT)
            df, t_plan = b.op("spark_plan", lambda: planned(view().filter(f"c1 = {dev}")))
            if df is None:
                continue
            plan.append(t_plan)
            kind = "spark_first" if i == 0 else "spark_point"
            b.op(kind, df.count, lambda n: n == want)
            b.op(kind if i == 0 else "spark_full", lambda: view().count(), lambda n: n == total)
            raw = spark.read.format("umzi").option("path", root).load()
            parts_point.append(raw.filter(f"c1 = {dev}").rdd.getNumPartitions())
            parts_full.append(raw.rdd.getNumPartitions())
    finally:
        stop_spark(spark)
    s = b.samples
    b.extra["spark.first_query_s"] = sum(s["spark_first"])
    b.extra["spark.plan_ms"] = 1e3 * median(plan[1:])
    b.extra["spark.exec_ms"] = 1e3 * median(s["spark_point"])
    b.extra["spark.partitions_point"] = float(np.mean(parts_point))
    b.extra["spark.partitions_full"] = float(np.mean(parts_full))
    b.report["spark_point_p50_ms"] = (1e3 * median(s["spark_point"]), "ms")
    b.report["spark_full_p50_ms"] = (1e3 * median(s["spark_full"]), "ms")


WORKLOADS = {
    "resident": run_resident,
    "purged": run_purged,
    "htap": run_htap,
}


# ------------------------------------------------------------ per-layer
# Per-layer metrics a workload measures itself, outside any span.
EXTRA = (
    "index.visible_runs", "recovery.shared_reads", "recovery.bytes_read_per_entry",
    "cold.shared_reads",
    "tiers.bytes_written.ssd", "tiers.bytes_written.shared", "tiers.write_amp",
    "tiers.space_amp", "spark.partitions_point", "spark.partitions_full",
    "spark.plan_ms", "spark.exec_ms", "spark.start_s", "spark.first_query_s",
)


def layer_metrics(b: Bench) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced steps; every name in
    BENCHMARK.json's per_layer list, 0 where a layer is not exercised."""
    tr = b.tracer
    spans = tr.spans
    roots = tr.roots()
    own = tr.self_ns()
    counted = set(range(b.n_counted))

    def ms(i):
        return (spans[i][T1] - spans[i][T0]) / 1e6

    def named(name, *, root=None, under=None, steps=None):
        out = []
        for i, s in enumerate(spans):
            if s[NAME] != name or (steps is not None and s[STEP] not in steps):
                continue
            if root is not None and (s[PARENT] < 0) != root:
                continue
            if under is not None and spans[roots[i]][NAME] != under:
                continue
            out.append(i)
        return out

    def p50(idx, f=ms):
        return median([f(i) for i in idx])

    def per(total, n):
        return total / n if n else 0.0

    steps = set(b.traced)  # not set-up or recovery
    lookups = named("query.batch_lookup", root=True, steps=steps)
    lookups_c = named("query.batch_lookup", root=True, steps=counted)
    n_lk = len(lookups_c)
    scans = [i for i in named("query.range_scan", root=True) if spans[i][NOTE] is not None]
    pq = [i for i in scans if spans[i][NOTE][1] != "set"]
    set_scans = [i for i in scans if spans[i][NOTE][1] == "set"]
    pq_c = [i for i in pq if spans[i][STEP] in counted]
    pq_c_ids = set(pq_c)
    examined = sum(
        spans[i][NOTE] for i in named("IndexRun.search", under="query.range_scan", steps=counted)
        if roots[i] in pq_c_ids
    )
    builds = named("IndexRun.build")
    maint = named("UmziIndex.maintain", steps=counted)
    maint_all = named("UmziIndex.maintain")
    c = b.counts
    rb = named("CacheManager.read_block", under="query.batch_lookup", steps=counted)
    rb_all = named("CacheManager.read_block", under="query.batch_lookup", steps=steps)
    dec = named("IndexRun.decode_block", under="query.batch_lookup", steps=counted)
    dec_all = named("IndexRun.decode_block", under="query.batch_lookup", steps=steps)
    n_lk_all = len(lookups)
    purges = named("UmziIndex.apply_cache_level")
    purge_ms = sum(ms(i) for i in named("CacheManager.purge_run", under="UmziIndex.apply_cache_level"))
    created = len(named("IndexRun.build", steps=counted)) + len(named("IndexRun.merge_runs", steps=counted))
    untraced_read = median(b.samples["read"])
    traced_read = median(b.traced_samples["read"])

    m = {
        "query.batch_lookup_ms": p50(lookups),
        "query.batch_lookup_self_ms": p50(lookups, lambda i: own[i] / 1e6),
        "query.range_scan_ms": p50(pq),
        "query.range_scan_set_ms": p50(set_scans),
        "query.scan_examined_per_row": per(examined, sum(spans[i][NOTE][0] for i in pq_c)),
        "query.runs_per_lookup": per(
            sum(spans[i][NOTE] for i in named("UmziIndex.query_snapshot", under="query.batch_lookup", steps=counted)), n_lk),
        "query.runs_searched_per_lookup": per(
            len(named("UmziIndex.source_for", under="query.batch_lookup", steps=counted)), n_lk),
        "query.runs_pruned_per_lookup": per(
            sum(spans[i][NOTE] for i in named("IndexRun.synopsis_admits_batch", under="query.batch_lookup", steps=counted)), n_lk),
        "query.hit_ratio": per(c["found"], c["probes"]),
        "query.io_ms": 1e3 * per(c["io_s"], c["lookups"]),
        "run.build_ms": p50(builds),
        "run.build_ns_per_entry": per(sum(ms(i) * 1e6 for i in builds), sum(spans[i][NOTE] for i in builds)),
        "run.merge_ms": p50(named("IndexRun.merge_runs")),
        "run.search_ms": p50(named("IndexRun.search")),
        # Mean, not median: most maintain() calls merge nothing.
        "index.maintain_ms": per(sum(ms(i) for i in maint_all), len(maint_all)),
        "merge.count": per(sum(spans[i][NOTE][0] for i in maint), b.n_counted),
        "merge.entries_rewritten_per_entry": per(
            sum(spans[i][NOTE][1] for i in maint), c["rows"]),
        "index.evolve_ms": p50(named("UmziIndex.evolve")),
        "index.gc_runs": per(created - c["runs_delta"], b.n_counted),
        "recovery.ms": p50(named("recovery.recover")),
        "cold.lookup_ms": p50(named("query.batch_lookup", root=True, steps={RECOVERY_STEP})),
        "tiers.reads.mem": per(c["reads.mem"], c["lookups"]),
        "tiers.reads.ssd": per(c["reads.ssd"], c["lookups"]),
        "tiers.reads.shared": per(c["reads.shared"], c["lookups"]),
        "tiers.bytes_read.shared": per(c["bytes_read.shared"], c["lookups"]),
        "tiers.get_ms": p50(named("DirTier.get")),
        "tiers.put_ms": p50(named("DirTier.put")),
        "cache.read_block_calls": per(len(rb), n_lk),
        "cache.read_block_ms": per(sum(ms(i) for i in rb_all), n_lk_all),
        "cache.hit_ratio": per(len(rb) - c["reads.shared"], len(rb)),
        "cache.decode_block_calls": per(len(dec), n_lk),
        "cache.decode_block_ms": per(sum(ms(i) for i in dec_all), n_lk_all),
        "cache.write_run_ms": p50(named("CacheManager.write_run")),
        "cache.purge_ms": per(purge_ms, len(purges)),
        "shard.ingest_ms": p50(named("TableShard.ingest")),
        "groomer.groom_ms": p50(named("Groomer.groom")),
        "postgroomer.post_groom_ms": p50(named("PostGroomer.post_groom")),
        "postgroomer.pg_lookup_ms": p50(named("query.batch_lookup", under="PostGroomer.post_groom")),
        "indexer.poll_ms": p50(named("Indexer.poll", root=True)),
        "trace.overhead_ms": 1e3 * (traced_read - untraced_read),
    }
    m.update({k: b.extra.get(k, 0.0) for k in EXTRA})
    for layer, v in tr.layer_self_ms(steps).items():
        m[f"self.{layer}_ms"] = v
    return m
