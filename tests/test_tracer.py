"""The benchmark tracer (``perfbench/tracing.py``) against the program it wraps.

The tracer replaces module attributes with wrappers whose counters read the
call arguments and results, e.g. ``analytic.throughput``'s channel as its
second argument.  Traced tiny recipe runs, and a direct call of each wrapped
function no recipe reaches, fail here when a signature change breaks one.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import tracing  # noqa: E402

from vlcmimo import analytic, montecarlo, runner  # noqa: E402
from vlcmimo.channel import build_channel_matrix  # noqa: E402
from vlcmimo.config import config_from_dict  # noqa: E402
from vlcmimo.montecarlo import SimConfig  # noqa: E402
from vlcmimo.noise import sigma_from_transmit_snr  # noqa: E402

N_LINKS = 3


def tiny(csi_mode: str):
    return config_from_dict({
        "name": f"traced_{csi_mode}", "seed": 1, "map_resolution_m": 0.5,
        "layout": {"n_links": N_LINKS, "spacing_m": 0.5, "detector": {"fov_deg": 60.0}},
        "csi": {"mode": csi_mode},
        "mobility": {"elapsed_times_s": [0.02]},
        "sweep": {"snr_start_db": 80.0, "snr_stop_db": 90.0, "snr_step_db": 10.0},
        "montecarlo": {"n_symbols": 2000}})


def test_every_counter_runs_under_the_tracer(tmp_path):
    perfect, outdated = tiny("perfect"), tiny("outdated")
    h = build_channel_matrix(*perfect.layouts.values())
    sigma = sigma_from_transmit_snr(80.0, h.responsivity, h.power)
    tracer = tracing.Tracer()
    with tracer.installed():
        runner.run_ber_sweep(perfect, tmp_path)
        runner.run_throughput_sweep(perfect, tmp_path)
        runner.run_mobility(outdated, tmp_path)
        runner.run_channel_map(perfect, tmp_path)
        # Wrapped, but no recipe calls them any more.
        montecarlo.simulate(h, SimConfig(n_symbols=500, seed=1, snr_db=80.0))
        for scheme in ("ci", "oap"):
            getattr(analytic, f"ber_{scheme}_perfect")(h, sigma, h.responsivity, h.power)
            getattr(analytic, f"ber_{scheme}_outdated")(h, h.gains, sigma, h.responsivity,
                                                        h.power)
    names = {span.name for span in tracer.spans}
    for _, _, name, counter, _ in tracing.WRAP_POINTS:
        if counter is not None:
            assert name in names, name
    words = 2 ** N_LINKS
    # Two throughput calls, one per scheme, and four ber_* calls.
    assert tracer.counts["analytic.words"] == (2 + 4) * words
    assert tracer.counts["runner.bytes_written"] > 0
    assert tracer.counts["channel.cells"] > 0
    assert tracer.counts["montecarlo.symbols"] == 500

    table_s = tracing.table_seconds(tracer, montecarlo.simulate)
    metrics = tracing.layer_metrics(tracer, [1.0], threads=1, table_s=table_s)
    assert metrics["analytic.throughput.calls"] == 2
    assert metrics["analytic.words"] == pytest.approx((2 + 4) * words)
