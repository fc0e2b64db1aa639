#!/usr/bin/env python3
"""Rewrite tests/reference.json from the presets; print what moved.

Usage: python3 scripts/reference.py.  Runs every preset of
run_all_figures.py at its own symbol count into a temporary directory, and
every benchmark workload of perfbench/workloads.py at seed 1, one config at a
time, into its own subdirectory, whose name prefixes its files' keys.
Each output file is reduced to columns of cells (as diff_outputs.py reads
them): CSV comment lines under "#", and each gain raster row by the sum,
moment and cell count of perfbench/checks.py::seed_free_values.  Then it
prints, per file and column, the cells that moved against the committed
reference and the largest relative move, and writes the new reference.

Monte Carlo counts, keys, metadata and text compare exactly; closed forms,
throughput, error bounds, gain sums and condition numbers (``TOLERANT``)
within ``REL_TOL``.  tests/test_reference.py holds the program to it.
"""

import dataclasses
import json
import math
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "tests" / "reference.json"
sys.path[:0] = [str(ROOT / "scripts"), str(ROOT / "perfbench")]

from checks import REL_TOL, seed_free_values  # noqa: E402
from diff_outputs import columns, moved_cells  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from vlcmimo.config import preset  # noqa: E402

RECIPES = runpy.run_path(str(ROOT / "scripts" / "run_all_figures.py"))["RECIPES"]
# Columns (CSV headers, or a metadata key path's first part) of computed floats.
TOLERANT = {"analytic_per_pd", "analytic_avg_ber", "throughput_bits_per_hz", "error_bound",
            "velocity_mps", "sum", "moment", "channel_condition_numbers", "error_bounds",
            "peak_gain"}


def generate(out_dir: Path) -> Path:
    """Write every preset's and benchmark workload's outputs, serially and quietly."""
    for name, recipe in RECIPES.items():
        recipe(preset(name), out_dir)
    for name, workload in WORKLOADS.items():
        workload.run(workload.configs(1), out_dir / name, threads=1)
    return out_dir


def reduce(out_dir: Path) -> dict:
    """The reference form of every output file in ``out_dir``: {file: {column: [cells]}}."""
    ref = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        cols = columns(path)
        if path.name.endswith("_gain_map.csv"):
            comments = cols.pop("#")
            rows = [seed_free_values("gain_map", dict(zip(cols, row)))
                    for row in zip(*cols.values())]
            cols = {"#": comments, "x_m": [k for k in cols if k != "y_m"], "y_m": cols["y_m"],
                    **{k: [str(r[k]) for r in rows] for k in ("sum", "moment", "cells")}}
        ref[path.relative_to(out_dir).as_posix()] = cols
    return ref


@dataclasses.dataclass
class Move:
    """The cells of one column that differ between two references."""

    file: str
    column: str
    moved: int
    cells: int
    largest: float      # relative change; inf for text or a missing cell

    @property
    def ok(self) -> bool:
        return self.column.split(".")[0] in TOLERANT and self.largest <= REL_TOL

    def __str__(self):
        return (f"{self.file} {self.column}: {self.moved} of {self.cells} cells moved, "
                f"max relative change {self.largest:.2g}{'' if self.ok else ' (not allowed)'}")


def moves(old: dict, new: dict) -> list[Move]:
    """Every column of every file whose cells differ; a file on one side is one move."""
    found = []
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            found.append(Move(name, "(file)", 1, 1, math.inf))
            continue
        a, b = old[name], new[name]
        for col in dict.fromkeys([*a, *b]):
            xs, ys = a.get(col, []), b.get(col, [])
            moved = moved_cells(xs, ys)
            if moved:
                found.append(Move(name, col, len(moved), max(len(xs), len(ys)), max(moved)))
    return found


def main() -> int:
    old = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = reduce(generate(Path(tmp)))
    found = moves(old, new)
    for move in found:
        print(move)
    print(f"{len(found)} moved columns in {len({m.file for m in found})} of {len(new)} files; "
          f"wrote {REFERENCE.relative_to(ROOT)}")
    REFERENCE.write_text(json.dumps(new, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
