"""One command per figure: ``python -m repro.experiments <name>``.

Runs the named harness at its default (EXPERIMENTS.md) scale, prints its
paper-style tables and writes ``results/BENCH_<name>.json`` under the
current directory: the git sha, the harness's parameters and its result.
"""
from __future__ import annotations

import dataclasses
import inspect
import json
import subprocess
import sys
from pathlib import Path

from repro.experiments.endtoend import fig12, fig13, fig14, fig15, unified_scan
from repro.experiments.figs_index import PANELS, fig08, fig09, fig10, fig11

FIGURES = {
    "fig08": fig08,
    "fig09": fig09,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "scan": unified_scan,
}


def print_table(title: str, rows: list[dict], key: str) -> None:
    cols = [c for c in rows[0] if c != key]
    print(f"\n== {title}")
    print("  " + " | ".join(f"{h:>12}" for h in [key] + cols))
    for r in rows:
        vals = [r[key]] + [r[c] for c in cols]
        print(
            "  "
            + " | ".join(
                f"{v:>12}" if isinstance(v, (int, str)) else f"{v:>12.3f}"
                for v in vals
            )
        )


def print_series(title: str, series: dict) -> None:
    print(f"\n== {title}")
    keys = list(series)
    print("  " + " | ".join([f"{'cycle':>8}"] + [f"{str(k):>12}" for k in keys]))
    for i in range(len(series[keys[0]])):
        print(
            "  "
            + " | ".join([f"{i:>8}"] + [f"{series[k][i]:>12.3f}" for k in keys])
        )


def _is_rows(val) -> bool:
    return isinstance(val, list) and bool(val) and isinstance(val[0], dict)


def report(title: str, result: dict) -> None:
    """Print a harness result: each list of row dicts as a table, each dict
    of per-cycle lists as a series, each ``*_seconds`` scalar in ms. Raw
    ``*_seconds`` dicts go to the JSON file only."""
    for key, val in result.items():
        name = f"{title} {key}"
        if key.endswith("_seconds"):
            if isinstance(val, float):
                print(f"\n{name}: {val * 1e3:.3f} ms")
        elif _is_rows(val):
            print_table(name, val, key=next(iter(val[0])))
        elif isinstance(val, dict) and val:
            if all(isinstance(v, list) and not _is_rows(v) for v in val.values()):
                print_series(name, val)
            else:
                report(name, val)


def harness_params(fn) -> dict:
    """The harness's keyword defaults; fig10/fig11 report their panels'."""
    if fn in (fig10, fig11):
        return {name: harness_params(panel) for name, panel in PANELS.items()}
    return {
        k: p.default
        for k, p in inspect.signature(fn).parameters.items()
        if p.default is not p.empty
    }


def jsonable(obj):
    """Dataclasses as dicts, tuples as lists, every dict key a string
    (tuple keys joined with ',')."""
    if dataclasses.is_dataclass(obj):
        return jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {
            ",".join(map(str, k)) if isinstance(k, tuple) else str(k): jsonable(v)
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def write_bench(name: str, params: dict, result: dict) -> Path:
    path = Path("results") / f"BENCH_{name}.json"
    path.parent.mkdir(exist_ok=True)
    doc = {"figure": name, "git_sha": git_sha(), "params": params, "result": result}
    path.write_text(json.dumps(jsonable(doc), indent=1) + "\n")
    return path


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in FIGURES:
        print(
            f"usage: python -m repro.experiments {{{'|'.join(FIGURES)}}}",
            file=sys.stderr,
        )
        return 2
    name = argv[0]
    fn = FIGURES[name]
    result = fn()
    report(name, result)
    print(f"\nwrote {write_bench(name, harness_params(fn), result)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
