"""Output checks behind ``failed_frac`` and ``validated_rows_per_s``.

Every CSV row the runner writes is checked; the checks hold for any workload
seed:

* values that do not depend on the seed (perfect-CSI closed forms, mobility
  error bounds, throughput, gain-raster row sums) match the reference recorded
  from the seed commit within ``REL_TOL``;
* a perfect-CSI Monte Carlo row where the exact closed form predicts, or the
  run observed, at least ``MIN_ERRORS`` errors agrees with the closed form
  within ``Z_BOUND`` standard errors (so an undercount fails as surely as an
  overcount);
* an outdated-CSI bound lies in [0, 1] and Monte Carlo stays at or below it
  plus ``BOUND_SE`` standard errors.

A row is *validated* when it passes and its value is known to a stated
accuracy: a Monte Carlo row needs a relative standard error of at most
``MAX_RSE``; a closed-form row is validated by the reference match itself.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

REL_TOL = 1e-9
Z_BOUND = 5.0
MIN_ERRORS = 100
BOUND_SE = 3.0
MAX_RSE = 0.10

# Columns that identify a row, by CSV kind (the file name's suffix).
_KEY_COLUMNS = {
    "ber": ("snr_db", "scheme", "csi_mode", "n_links", "spacing_m", "semi_angle_deg"),
    "mobility": ("snr_db", "scheme", "csi_mode", "csi_model", "elapsed_s"),
    "throughput": ("snr_db", "scheme", "n_links", "spacing_m", "semi_angle_deg"),
    "gain_map": ("y_m",),
}


def csv_kind(name: str) -> str:
    """CSV kind from a runner output file name such as ``fig4_ber.csv``."""
    for kind in _KEY_COLUMNS:
        if name.endswith(f"_{kind}.csv"):
            return kind
    raise ValueError(f"not a runner CSV: {name}")


def parse_csv(text: str) -> tuple[str, list[dict]]:
    """Body digest and data rows (header name -> cell text) of a runner CSV."""
    body = [line for line in text.splitlines() if not line.startswith("#")]
    digest = hashlib.sha256("\n".join(body).encode()).hexdigest()[:16]
    header = body[0].split(",")
    rows = []
    for line in body[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row has {len(cells)} cells, header {len(header)}")
        rows.append(dict(zip(header, cells)))
    return digest, rows


def row_key(kind: str, row: dict) -> str:
    return ",".join(row[c] for c in _KEY_COLUMNS[kind])


def seed_free_values(kind: str, row: dict) -> dict:
    """The row's values that do not depend on the workload seed."""
    if kind == "ber" and row["csi_mode"] == "perfect":
        return {"analytic_avg_ber": float(row["analytic_avg_ber"]),
                "analytic_per_pd": [float(v) for v in row["analytic_per_pd"].split("|")]}
    if kind == "mobility":
        return {"error_bound": float(row["error_bound"]),
                "velocity_mps": float(row["velocity_mps"])}
    if kind == "throughput":
        return {"throughput_bits_per_hz": float(row["throughput_bits_per_hz"])}
    if kind == "gain_map":
        cells = [float(v) for k, v in row.items() if k != "y_m"]
        return {"sum": math.fsum(cells),
                "moment": math.fsum((j + 1) * v for j, v in enumerate(cells)),
                "cells": len(cells)}
    return {}


def _close(a, b) -> bool:
    if isinstance(b, dict):
        return isinstance(a, dict) and a.keys() == b.keys() and all(
            _close(a[k], b[k]) for k in b)
    if isinstance(b, list):
        return isinstance(a, list) and len(a) == len(b) and all(map(_close, a, b))
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-300)


def _mc_problem(row: dict) -> tuple[str | None, bool]:
    """Statistical check of a Monte Carlo row: (problem or None, accurate)."""
    n = len(row["analytic_per_pd"].split("|"))
    symbols = int(row["symbols"])
    mc = float(row["mc_avg_ber"])
    ana = float(row["analytic_avg_ber"])
    se = float(row["mc_halfwidth_95"]) / 1.96
    if not 0.0 <= mc <= 1.0:
        return f"mc_avg_ber {mc} outside [0, 1]", False
    accurate = mc > 0.0 and se / mc <= MAX_RSE
    if row["is_bound"] == "1":
        per_pd = [float(v) for v in row["analytic_per_pd"].split("|")]
        if not all(0.0 <= v <= 1.0 for v in per_pd + [ana]):
            return f"bound {ana} outside [0, 1]", False
        if mc > ana + BOUND_SE * se:
            return f"mc {mc} above bound {ana} + {BOUND_SE} SE", False
        return None, accurate
    if row["csi_mode"] != "perfect":
        return f"csi_mode {row['csi_mode']} without is_bound", False
    if max(mc, ana) * symbols * n >= MIN_ERRORS:
        null_se = math.sqrt(ana * (1.0 - ana) / (symbols * n))
        z = (mc - ana) / null_se if null_se > 0.0 else math.inf
        if abs(z) > Z_BOUND:
            return f"mc {mc} vs exact {ana}: z = {z:.2f}", False
    return None, accurate


@dataclass
class CsvCheck:
    """Outcome of checking one CSV against its reference rows."""

    digest: str
    attempted: int = 0
    failed: int = 0
    validated: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, key: str, why: str):
        self.failed += 1
        self.problems.append(f"{key}: {why}")


def check_csv(name: str, text: str, reference: dict) -> CsvCheck:
    """Check every row of one CSV; ``reference`` maps row key -> seed-free values."""
    kind = csv_kind(name)
    digest, rows = parse_csv(text)
    result = CsvCheck(digest=digest, attempted=len(reference))
    seen = set()
    for row in rows:
        key = row_key(kind, row)
        if key not in reference or key in seen:
            result.attempted += 1
            result.fail(key, "unexpected row")
            continue
        seen.add(key)
        try:
            if not _close(seed_free_values(kind, row), reference[key]):
                result.fail(key, "differs from the seed-commit reference")
                continue
            problem, accurate = (_mc_problem(row) if "mc_avg_ber" in row
                                 else (None, True))
        except (KeyError, ValueError) as exc:
            result.fail(key, f"unparsable row: {exc!r}")
            continue
        if problem:
            result.fail(key, problem)
        elif accurate:
            result.validated += 1
    for key in reference.keys() - seen:
        result.fail(key, "missing row")
    return result


def seed_free_reference(name: str, text: str) -> dict:
    """Reference rows of one CSV: row key -> seed-free values."""
    kind = csv_kind(name)
    _, rows = parse_csv(text)
    return {row_key(kind, row): seed_free_values(kind, row) for row in rows}
