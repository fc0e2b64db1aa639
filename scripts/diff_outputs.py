"""Cell-by-cell comparison of the CSV and JSON outputs of two directories.

Usage: python3 scripts/diff_outputs.py A B.  Prints "identical" for each file in
both with the same bytes; else, per moved column (CSV header or JSON key path),
the count of moved cells and the largest |a - b| / max(|a|, |b|), inf for text.
A file in one directory only is reported as "only in A" or "only in B".  Exits
1 when any file differs or is one-sided, else 0, and 2 on wrong arguments.
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path


def columns(path: Path) -> dict:
    """{column: [cell, ...]} of a CSV ('#' lines skipped) or a JSON file."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        header, *rows = csv.reader(s for s in text.splitlines() if not s.startswith("#"))
        return {name: [row[i] for row in rows] for i, name in enumerate(header)}
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
            moved = [change(x, y) for x, y in zip(xs, ys) if x != y]
            moved += [math.inf] * abs(len(xs) - len(ys))
            if moved:
                print(f"  {name}: {len(moved)} of {max(len(xs), len(ys))} cells moved, "
                      f"max relative change {max(moved):.2g}")
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
