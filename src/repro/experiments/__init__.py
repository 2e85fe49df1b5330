"""Experiment harnesses reproducing the paper's evaluation (§8).

``defs``: the three index definitions I1/I2/I3 and run builders.
``figs_index``: Figures 8–11 (index build + query microbenchmarks).
``endtoend``: Figures 12–15 (concurrent ingest/groom/post-groom/query)
and the unified multi-zone Spark scan demo.

Each harness returns plain result dicts; ``python -m repro.experiments
<name>`` (``__main__``) runs one at its EXPERIMENTS.md scale, prints the
paper-style table and writes ``results/BENCH_<name>.json``.
"""
