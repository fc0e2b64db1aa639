"""The presets and the four benchmark workloads reproduce tests/reference.json.

The reference is written by scripts/reference.py; the presets run at their own
symbol counts, and each workload's files sit under its name, at seed 1.

One run of them is held to the reference: Monte Carlo counts, keys and
metadata exactly, and closed forms, throughput and gain sums within rel 1e-9.
The same run passes the row rules of perfbench/checks.py on every CSV row:
each perfect-CSI Monte Carlo rate within 5 standard errors of its closed form
once 100 errors are expected or seen, and each outdated-CSI rate at most its
bound plus 3 standard errors.  After a deliberate change, rerun the script: it
prints what moved and rewrites the reference, and this test gates the new one.
"""

import copy
import json
import runpy
from pathlib import Path

import numpy as np
import pytest

from vlcmimo import analytic
from vlcmimo.config import preset

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = runpy.run_path(str(ROOT / "scripts" / "reference.py"))
REFERENCE = json.loads(SCRIPT["REFERENCE"].read_text(encoding="utf-8"))

# The script has put perfbench/ on sys.path, as it imports REL_TOL from there.
from checks import check_csv, seed_free_reference  # noqa: E402


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> Path:
    """One run of every preset and workload, shared by the tests of this module."""
    return SCRIPT["generate"](tmp_path_factory.mktemp("reference"))


def gate(out_dir: Path) -> dict:
    """checks.py's verdict on every CSV under ``out_dir``, by its path there."""
    found = {}
    for path in sorted(out_dir.rglob("*.csv")):
        text = path.read_text(encoding="utf-8")
        found[path.relative_to(out_dir).as_posix()] = check_csv(
            path.name, text, seed_free_reference(path.name, text))
    return found


def refused(new: dict) -> list[str]:
    return [str(m) for m in SCRIPT["moves"](REFERENCE, new) if not m.ok]


def test_presets_match_reference(outputs):
    assert refused(SCRIPT["reduce"](outputs)) == []


def test_every_row_passes_the_row_rules(outputs):
    checks = gate(outputs)
    assert set(checks) == {name for name in REFERENCE if name.endswith(".csv")}
    assert {name: check.problems for name, check in checks.items() if check.failed} == {}
    assert all(check.attempted for check in checks.values())


def test_gate_fails_a_closed_form_one_percent_high(tmp_path, monkeypatch):
    """Q × 1.01 moves every fig4 closed form; the rows with enough errors fail on z."""
    q_function = analytic.q_function
    monkeypatch.setattr(analytic, "q_function", lambda x: 1.01 * q_function(x))
    SCRIPT["RECIPES"]["fig4"](preset("fig4"), tmp_path)
    check = gate(tmp_path)["fig4_ber.csv"]
    assert check.attempted == 186 and check.failed > 40
    assert all(": mc " in p and " vs exact " in p and ": z = " in p for p in check.problems)


def test_draw_stream_is_numpys_sfc64_normal_stream():
    """Block 0 of the presets' seed: every Monte Carlo count in the reference reads it."""
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy=(20260810, 0))))
    assert repr(rng.standard_normal(4).tolist()) == (
        "[1.5729959923506796, 1.5320512282671042, -0.20291309351586653, -0.9141691522394202]"
    ), f"numpy {np.__version__} changed its SFC64 or standard_normal stream"


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
