"""Tests of the benchmark's own checks, failure accounting and tracer."""

import json
import math
from pathlib import Path

import pytest

import run
import tracing
from checks import check_csv

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())
BER = REFERENCE["mc_fig4"]["fig4_ber.csv"]
MOBILITY = REFERENCE["wide_outdated"]["wide_outdated_mobility.csv"]
SYMBOLS = 10**9


def ber_csv(edit=None) -> str:
    """A fig4 CSV whose Monte Carlo column equals the exact closed form."""
    lines = ["# seed=1", "snr_db,scheme,csi_mode,n_links,spacing_m,semi_angle_deg,"
             "analytic_per_pd,analytic_avg_ber,is_bound,mc_avg_ber,mc_halfwidth_95,symbols"]
    for i, (key, ref) in enumerate(sorted(BER.items())):
        row = {"per_pd": "|".join(map(repr, ref["analytic_per_pd"])),
               "ana": ref["analytic_avg_ber"], "mc": ref["analytic_avg_ber"]}
        if edit:
            edit(i, row)
        p, n = row["mc"], SYMBOLS * len(ref["analytic_per_pd"])
        hw = 1.96 * math.sqrt(p * (1 - p) / n)
        lines.append(f"{key},{row['per_pd']},{row['ana']!r},0,{p!r},{hw!r},{SYMBOLS}")
    return "\n".join(lines) + "\n"


def mobility_csv(mc, bound) -> str:
    lines = ["snr_db,scheme,csi_mode,csi_model,elapsed_s,velocity_mps,error_bound,"
             "analytic_per_pd,analytic_avg_ber,is_bound,mc_avg_ber,mc_halfwidth_95,symbols"]
    for key, ref in sorted(MOBILITY.items()):
        hw = 1.96 * math.sqrt(mc * (1 - mc) / (10_000 * 12))
        lines.append(f"{key},{ref['velocity_mps']!r},{ref['error_bound']!r},"
                     f"{'|'.join([repr(bound)] * 12)},{bound!r},1,{mc!r},{hw!r},10000")
    return "\n".join(lines) + "\n"


def test_exact_rows_pass_and_validate_when_informative():
    result = check_csv("fig4_ber.csv", ber_csv(), BER)
    assert (result.attempted, result.failed) == (len(BER), 0), result.problems
    informative = sum(ref["analytic_avg_ber"] * SYMBOLS * 4 >= 100 for ref in BER.values())
    assert 0 < result.validated == informative < len(BER)


def test_perturbed_analytic_value_fails_one_row():
    def edit(i, row):
        if i == 7:
            row["ana"] *= 1 + 1e-6
    result = check_csv("fig4_ber.csv", ber_csv(edit), BER)
    assert result.failed == 1 and "reference" in result.problems[0]


@pytest.mark.parametrize("factor", [1.01, 0.0], ids=["overcount", "undercount"])
def test_mc_count_outside_z_bound_fails_one_row(factor):
    """The row with the highest exact BER: 1 % off is thousands of standard
    errors at 1e9 symbols, and 0 errors is an undercount of about 1e9."""
    worst = max(range(len(BER)), key=lambda i: sorted(BER.items())[i][1]["analytic_avg_ber"])

    def edit(i, row):
        if i == worst:
            row["mc"] *= factor
    result = check_csv("fig4_ber.csv", ber_csv(edit), BER)
    assert result.failed == 1 and "z =" in result.problems[0]


def test_missing_and_unexpected_rows_fail():
    lines = ber_csv().splitlines()
    cells = lines[-1].split(",")
    cells[1] = "xx"
    text = "\n".join(lines[:-1] + [",".join(cells)]) + "\n"
    result = check_csv("fig4_ber.csv", text, BER)
    assert result.failed == 2 and result.attempted == len(BER) + 1


def test_outdated_rows_stay_under_bound_within_unit_interval():
    assert check_csv("m_mobility.csv", mobility_csv(0.2, 0.5), MOBILITY).failed == 0
    above = check_csv("m_mobility.csv", mobility_csv(0.2, 0.19), MOBILITY)
    assert above.failed == len(MOBILITY) and "above bound" in above.problems[0]
    outside = check_csv("m_mobility.csv", mobility_csv(0.2, 1.5), MOBILITY)
    assert outside.failed == len(MOBILITY) and "outside" in outside.problems[0]


def test_changed_body_between_iterations_fails_its_rows(tmp_path):
    phase = run.Phase()
    path = tmp_path / "fig4_ber.csv"
    path.write_text(ber_csv())
    assert run._check_iteration(phase, [path], {"fig4_ber.csv": BER}) > 0

    def edit(i, row):
        if i == 0:
            row["mc"] = row["mc"] * (1 + 1e-12)
    path.write_text(ber_csv(edit))
    assert run._check_iteration(phase, [path], {"fig4_ber.csv": BER}) == 0
    assert (phase.attempted, phase.failed) == (2 * len(BER), len(BER))


def test_run_that_raises_is_counted_and_loop_continues(tmp_path, capsys):
    class Raising:
        def run(self, cfg, out_dir, threads):
            raise RuntimeError("boom")

    between = []
    phase = run.measure(Raising(), None, {"fig4_ber.csv": BER}, 0.05, 1, tmp_path,
                        between=lambda: between.append(1))
    assert len(phase.walls) >= 2 and len(between) == len(phase.walls)
    assert phase.failed == phase.attempted == len(phase.walls) * len(BER)
    assert "boom" in capsys.readouterr().err


def test_self_time_subtracts_union_of_overlapping_children():
    tracer = tracing.Tracer()
    S = tracing.Span
    tracer.spans = [S(1, "sweep", 0.0, 10.0, 0.0, None, 0, 1),
                    S(2, "sim", 1.0, 5.0, 4.0, 1, 0, 2),
                    S(3, "sim", 3.0, 6.0, 3.0, 1, 0, 3),
                    S(4, "sim", 8.0, 12.0, 4.0, 1, 0, 2)]
    assert tracer.self_times() == {1: pytest.approx(3.0), 2: 4.0, 3: 3.0, 4: 4.0}


def test_tracer_wraps_lookup_names_and_restores_them():
    vlcmimo_runner = pytest.importorskip("vlcmimo.runner")
    original = vlcmimo_runner.sweep
    tracer = tracing.Tracer()
    with tracer.installed():
        assert vlcmimo_runner.sweep is not original
    assert vlcmimo_runner.sweep is original
