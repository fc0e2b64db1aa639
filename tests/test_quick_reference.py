"""The quick presets and the four benchmark workloads reproduce tests/quick_reference.json.

The reference is written by scripts/quick_reference.py; each workload's files
sit under its name, at seed 1 on one thread.

Monte Carlo counts, keys and metadata must match exactly, and closed forms,
throughput and gain sums within rel 1e-9.  After a deliberate change, rerun
the script: it prints what moved and rewrites the reference.
"""

import copy
import json
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = runpy.run_path(str(ROOT / "scripts" / "quick_reference.py"))
REFERENCE = json.loads(SCRIPT["REFERENCE"].read_text(encoding="utf-8"))


def refused(new: dict) -> list[str]:
    return [str(m) for m in SCRIPT["moves"](REFERENCE, new) if not m.ok]


def test_quick_presets_match_reference(tmp_path):
    assert refused(SCRIPT["reduce"](SCRIPT["generate"](tmp_path))) == []


def test_reference_pins_every_benchmark_workload():
    workloads = {name.split("/")[0] for name in REFERENCE if "/" in name}
    assert workloads == set(SCRIPT["WORKLOADS"]) == {
        "mc_fig4", "wide_perfect", "wide_outdated", "gain_raster"}
    assert "wide_outdated/wide_outdated_mobility.csv" in REFERENCE


def moved(name: str, column: str, edit) -> dict:
    """The reference with ``edit`` applied to the first cell of one column."""
    new = copy.deepcopy(REFERENCE)
    cells = new[name][column]
    cells[0] = edit(cells[0])
    return new


@pytest.mark.parametrize("column", ["symbols", "mc_avg_ber", "is_bound"])
def test_a_changed_monte_carlo_cell_is_refused(column):
    [problem] = refused(moved("fig4_ber.csv", column,
                              lambda c: str(float(c) + 1) if "." in c else str(int(c) + 1)))
    assert problem.startswith(f"fig4_ber.csv {column}: 1 of 186 cells moved")
    assert problem.endswith("(not allowed)")


@pytest.mark.parametrize("column", ["analytic_avg_ber", "analytic_per_pd"])
def test_a_closed_form_move_above_tolerance_is_refused(column):
    def scale(factor):
        return lambda c: "|".join(repr(float(v) * factor) for v in c.split("|"))
    assert len(refused(moved("fig4_ber.csv", column, scale(1 + 3e-9)))) == 1
    within = moved("fig4_ber.csv", column, scale(1 + 3e-10))
    assert refused(within) == [] and len(SCRIPT["moves"](REFERENCE, within)) == 1


def test_a_metadata_or_raster_change_is_refused():
    assert refused(moved("fig4_ber_meta.json", "seed", lambda c: "1"))
    assert refused(moved("fig3a_gain_map.csv", "#", lambda c: c + "0"))
    assert refused(moved("fig3a_gain_map.csv", "sum", lambda c: repr(float(c) + 1e-6)))
    missing = copy.deepcopy(REFERENCE)
    del missing["fig8_throughput.csv"]
    assert refused(missing) == ["fig8_throughput.csv (file): 1 of 1 cells moved, "
                                "max relative change inf (not allowed)"]
