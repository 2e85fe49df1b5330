"""Run one benchmark workload against the program in this checkout.

    python3 perfbench/run.py --workload resident --seed 1 --seconds 40 --trace 0

Workloads: resident, htap (gated in BENCHMARK.json) and purged (see
perfbench/README.md).
The program under test is imported from ``src/`` of the checkout that
holds this file; the run's storage and Spark files live under
``.bench_work/`` there and are removed at exit (a traced run leaves its
spans in ``.bench_work/spans-<workload>-<seed>.jsonl``).

Prints a report of every metric by name and unit, then as its last line
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def declared(kind: str) -> dict[str, str]:
    """name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path[:0] = [HERE, src]
    import workloads as W  # imports the program under test from src/

    if args.workload not in W.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(W.WORKLOADS)}")
    work = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(work, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    b = W.Bench(args.workload, args.seed, args.seconds, bool(args.trace), workdir, src)
    try:
        W.WORKLOADS[args.workload](b)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = b.end_to_end()
    print("\n".join(b.report_lines(e2e)))
    if args.trace:
        values = W.layer_metrics(b)
        b.tracer.write(os.path.join(work, f"spans-{args.workload}-{args.seed}.jsonl"))
        kind = "per_layer"
    else:
        values = e2e
        kind = "end_to_end"
    units = declared(kind)
    if set(values) != set(units):
        raise SystemExit(f"metrics differ from BENCHMARK.json {kind}: "
                         f"{sorted(set(values) ^ set(units))}")
    print(json.dumps({
        "correct": b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
