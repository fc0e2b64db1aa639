"""Cell-by-cell comparison of the CSV and JSON outputs of two directories.

Usage: python3 scripts/diff_outputs.py A B.  Prints "identical" for each file in
both with the same bytes; else, per moved column (CSV header, "#" for a CSV's
comment lines, or JSON key path), the count of moved cells and the largest
|a - b| / max(|a|, |b|), inf for text.
A differing CSV with Monte Carlo columns gets one more line: its zero-error
rows on each side, and the largest move of mc_avg_ber in standard errors of
the difference, sqrt(seA^2 + seB^2) with se = mc_halfwidth_95 / 1.96, over
rows where either side has a halfwidth.  A differing CSV with an is_bound
column also gets its bound violations on each side: the rows with is_bound 1
whose mc_avg_ber exceeds analytic_avg_ber by more than BOUND_SE se (3, from
perfbench/checks.py).  A file in one directory only is reported as "only in
A" or "only in B".  Exits 1 when any file differs or is one-sided, else 0,
and 2 on wrong arguments.
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from checks import BOUND_SE  # noqa: E402


def columns(path: Path) -> dict:
    """{column: [cell, ...]} of a CSV or a JSON file; a CSV's '#' lines are column '#'."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        lines = text.splitlines()
        header, *rows = csv.reader(s for s in lines if not s.startswith("#"))
        return {"#": [s for s in lines if s.startswith("#")],
                **{name: [row[i] for row in rows] for i, name in enumerate(header)}}
    cols, queue = {}, [("", json.loads(text))]
    while queue:      # breadth first, so the items of a list stay in order
        key, value = queue.pop(0)
        if isinstance(value, dict):
            queue += [(f"{key}.{k}".lstrip("."), v) for k, v in value.items()]
        elif isinstance(value, list):
            queue += [(key, v) for v in value]
        else:
            cols.setdefault(key, []).append(str(value))
    return cols


def change(a: str, b: str) -> float:
    """Largest relative change between two cells, '|'-joined numbers item by item."""
    pairs = zip(a.split("|"), b.split("|")) if a.count("|") == b.count("|") else [(a, b)]
    try:
        return max(abs(float(x) - float(y)) / max(abs(float(x)), abs(float(y)), 1e-300)
                   for x, y in pairs if x != y)
    except ValueError:
        return math.inf


def moved_cells(xs: list, ys: list) -> list[float]:
    """The ``change`` of each differing cell of two columns, inf per cell on one side only."""
    return ([change(x, y) for x, y in zip(xs, ys) if x != y]
            + [math.inf] * abs(len(xs) - len(ys)))


def monte_carlo(ca: dict, cb: dict) -> str | None:
    """Zero-error rows of A and B and the largest mc_avg_ber move in standard errors."""
    if not all(c in cols for c in ("mc_avg_ber", "mc_halfwidth_95") for cols in (ca, cb)):
        return None
    zeros = [sum(float(v) == 0.0 for v in cols["mc_avg_ber"]) for cols in (ca, cb)]
    moves = [abs(float(x) - float(y)) * 1.96 / math.hypot(float(hx), float(hy))
             for x, y, hx, hy in zip(ca["mc_avg_ber"], cb["mc_avg_ber"],
                                     ca["mc_halfwidth_95"], cb["mc_halfwidth_95"])
             if float(hx) or float(hy)]
    largest = f"{max(moves):.2f}" if moves else "n/a"
    return (f"  monte carlo: zero-error rows {zeros[0]} in A, {zeros[1]} in B; "
            f"largest mc_avg_ber move {largest} SE")


def bound_violations(ca: dict, cb: dict) -> str | None:
    """Rows of A and B where Monte Carlo exceeds its bound by more than BOUND_SE SE."""
    names = ("is_bound", "analytic_avg_ber", "mc_avg_ber", "mc_halfwidth_95")
    if not all(c in cols for c in names for cols in (ca, cb)):
        return None
    counts = [sum(bound == "1" and float(mc) > float(ana) + BOUND_SE * float(hw) / 1.96
                  for bound, ana, mc, hw in zip(*(cols[c] for c in names)))
              for cols in (ca, cb)]
    return f"  bound violations {counts[0]} in A, {counts[1]} in B"


def main(a: Path, b: Path) -> int:
    found = [{p.relative_to(d) for p in d.rglob("*") if p.suffix in (".csv", ".json")}
             for d in (a, b)]
    status = 0
    for rel in sorted(found[0] | found[1]):
        if rel in found[0] ^ found[1]:
            print(f"{rel}: only in {'A' if rel in found[0] else 'B'}")
            status = 1
            continue
        same = (a / rel).read_bytes() == (b / rel).read_bytes()
        print(f"{rel}: {'identical' if same else 'differs'}")
        status |= not same
        ca, cb = ({}, {}) if same else (columns(a / rel), columns(b / rel))
        for name in dict.fromkeys([*ca, *cb]):
            xs, ys = ca.get(name, []), cb.get(name, [])
            moved = moved_cells(xs, ys)
            if moved:
                print(f"  {name}: {len(moved)} of {max(len(xs), len(ys))} cells moved, "
                      f"max relative change {max(moved):.2g}")
        for summary in (monte_carlo, bound_violations):
            if not same and (line := summary(ca, cb)):
                print(line)
    return status


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="first output directory (A)")
    parser.add_argument("b", type=Path, help="second output directory (B)")
    args = parser.parse_args()
    for d in (args.a, args.b):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
    sys.exit(main(args.a, args.b))
