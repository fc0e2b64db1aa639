"""scripts/diff_outputs.py: the cell-by-cell report on two output directories."""

import runpy
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "diff_outputs.py"
CSV = "# seed 1\nsnr_db,mc_avg_ber,symbols\n80.0,0.25,1000\n84.0,0.125,1000\n"


@pytest.fixture
def report(tmp_path, capsys):
    main = runpy.run_path(str(SCRIPT))["main"]

    def run(a_text, b_text):
        for name, text in (("a", a_text), ("b", b_text)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "fig4.csv").write_text(text, encoding="utf-8")
        main(tmp_path / "a", tmp_path / "b")
        return capsys.readouterr().out.splitlines()

    return run


def test_identical_directories(report):
    assert report(CSV, CSV) == ["fig4.csv: identical"]


def test_one_moved_cell(report):
    moved = CSV.replace("0.125", "0.1")
    assert report(CSV, moved) == [
        "fig4.csv: differs",
        "  mc_avg_ber: 1 of 2 cells moved, max relative change 0.2",
    ]
