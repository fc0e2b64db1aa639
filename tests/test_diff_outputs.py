"""scripts/diff_outputs.py: the cell-by-cell report on two output directories."""

import runpy
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "diff_outputs.py"
CSV = "# seed 1\nsnr_db,mc_avg_ber,symbols\n80.0,0.25,1000\n84.0,0.125,1000\n"


@pytest.fixture
def report(tmp_path, capsys):
    main = runpy.run_path(str(SCRIPT))["main"]

    def run(a_text, b_text):
        """Exit status and printed lines; a text of None writes no file on that side."""
        for name, text in (("a", a_text), ("b", b_text)):
            (tmp_path / name).mkdir()
            if text is not None:
                (tmp_path / name / "fig4.csv").write_text(text, encoding="utf-8")
        status = main(tmp_path / "a", tmp_path / "b")
        return status, capsys.readouterr().out.splitlines()

    return run


def test_identical_directories(report):
    assert report(CSV, CSV) == (0, ["fig4.csv: identical"])


def test_one_moved_cell(report):
    moved = CSV.replace("0.125", "0.1")
    assert report(CSV, moved) == (1, [
        "fig4.csv: differs",
        "  mc_avg_ber: 1 of 2 cells moved, max relative change 0.2",
    ])


def test_moved_comment_line_is_column_hash(report):
    """A CSV whose body is the same but whose '#' lines differ reports them as column '#'."""
    assert report(CSV, CSV.replace("# seed 1", "# seed 2")) == (1, [
        "fig4.csv: differs",
        "  #: 1 of 1 cells moved, max relative change inf",
    ])


def test_monte_carlo_moves_in_standard_errors(report):
    # Row 1 moves 0.03 with se 0.01 on each side: 0.03 / sqrt(2) / 0.01 = 2.12 SE.
    # Row 2 has no errors on either side and no halfwidth, so it is skipped.
    head = "snr_db,mc_avg_ber,mc_halfwidth_95\n"
    a = head + "80.0,0.25,0.0196\n84.0,0.0,0.0\n88.0,0.0,0.0\n"
    b = head + "80.0,0.22,0.0196\n84.0,0.0,0.0\n88.0,0.001,0.00196\n"
    assert report(a, b) == (1, [
        "fig4.csv: differs",
        "  mc_avg_ber: 2 of 3 cells moved, max relative change 1",
        "  mc_halfwidth_95: 1 of 3 cells moved, max relative change 1",
        "  monte carlo: zero-error rows 2 in A, 1 in B; largest mc_avg_ber move 2.12 SE",
    ])


def test_bound_violations_counted_per_side(report):
    # se 0.01: row 1 exceeds its bound by 4 SE in A and 2 SE in B; row 2 exceeds
    # by 4 SE on both sides but is an exact rate (is_bound 0), so it is not counted.
    head = "analytic_avg_ber,is_bound,mc_avg_ber,mc_halfwidth_95\n"
    a = head + "0.1,1,0.14,0.0196\n0.1,0,0.14,0.0196\n"
    b = head + "0.1,1,0.12,0.0196\n0.1,0,0.14,0.0196\n"
    assert report(a, b) == (1, [
        "fig4.csv: differs",
        "  mc_avg_ber: 1 of 2 cells moved, max relative change 0.14",
        "  monte carlo: zero-error rows 0 in A, 0 in B; largest mc_avg_ber move 1.41 SE",
        "  bound violations 1 in A, 0 in B",
    ])


@pytest.mark.parametrize("side", ["A", "B"])
def test_file_in_one_directory_only(report, side):
    texts = (CSV, None) if side == "A" else (None, CSV)
    assert report(*texts) == (1, [f"fig4.csv: only in {side}"])


@pytest.mark.parametrize("args", [[], ["only_one"], ["a", "b", "c"], ["missing_a", "missing_b"]])
def test_wrong_arguments_print_usage_and_exit_2(tmp_path, args):
    done = subprocess.run([sys.executable, str(SCRIPT), *args], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith("usage: diff_outputs.py")
    assert "Traceback" not in done.stderr
