"""Spans around vlcmimo's public functions, and the layer reference probes.

The tracer replaces module attributes with timing wrappers at the names the
callers look up (``vlcmimo.runner.sweep``, ``vlcmimo.montecarlo.simulate``,
``vlcmimo.analytic.ber_oap_outdated``, ...), and puts the originals back when
the traced phase ends.  Untraced runs never see a wrapper.  Spans stay in
memory until the run ends: name, start, end, CPU time of the calling thread,
parent span, run id (the workload iteration) and thread.  A span opened on a
sweep worker thread with nothing open on that thread gets the innermost span
open on the thread that installed the tracer (the sweep) as its parent.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

import numpy as np

from checks import MIN_ERRORS


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    cpu: float              # CPU seconds of the calling thread inside the span
    parent: int | None
    run_id: int
    thread: int


def _n_t(h) -> int:
    return np.shape(getattr(h, "gains", h))[1]


def _words(h_pos):
    return lambda args, result: {"analytic.words": 2 ** _n_t(args[h_pos])}


def _mc_counts(args, est):
    errors = int(est.per_pd_errors.sum())
    return {"montecarlo.symbols": est.symbols_run, "montecarlo.errors": errors,
            "montecarlo.zero_error_rows": int(errors == 0),
            "montecarlo.informative_rows": int(errors >= MIN_ERRORS)}


def _bytes_written(args, paths):
    return {"runner.bytes_written": sum(p.stat().st_size for p in paths)}


# (module, attribute the callers look up, span name, counter, keep call args)
WRAP_POINTS = [
    ("vlcmimo.runner", "run_ber_sweep", "runner.run_ber_sweep", _bytes_written, False),
    ("vlcmimo.runner", "run_throughput_sweep", "runner.run_throughput_sweep",
     _bytes_written, False),
    ("vlcmimo.runner", "run_mobility", "runner.run_mobility", _bytes_written, False),
    ("vlcmimo.runner", "run_channel_map", "runner.run_channel_map", _bytes_written, False),
    ("vlcmimo.runner", "gain_map", "channel.gain_map",
     lambda args, field: {"channel.cells": field.values.size}, False),
    ("vlcmimo.runner", "build_channel_matrix", "channel.build_channel_matrix", None, False),
    ("vlcmimo.runner", "ci_precoder", "precoding.ci_precoder", None, False),
    ("vlcmimo.runner", "sweep", "montecarlo.sweep", None, False),
    ("vlcmimo.runner", "analytic_throughput", "analytic.throughput", _words(1), False),
    ("vlcmimo.montecarlo", "simulate", "montecarlo.simulate", _mc_counts, True),
    ("vlcmimo.montecarlo", "perturb_channel", "csi.perturb_channel", None, False),
    ("vlcmimo.montecarlo", "ci_precoder", "precoding.ci_precoder", None, False),
    ("vlcmimo.analytic", "ci_precoder", "precoding.ci_precoder", None, False),
] + [("vlcmimo.analytic", fn, f"analytic.{fn}", _words(0), False)
     for fn in ("ber_ci_perfect", "ber_oap_perfect", "ber_ci_outdated", "ber_oap_outdated")]

ANALYTIC = ("analytic.ber_ci_perfect", "analytic.ber_oap_perfect", "analytic.throughput",
            "analytic.ber_ci_outdated", "analytic.ber_oap_outdated")


# Unit of each per-layer metric, by the last component of its name.
LAYER_UNITS = {
    "calls": "count", "busy_frac": "frac", "wall_s": "s",
    "trace_overhead_frac": "frac", "cells_per_s": "1/s", "words": "count",
    "words_per_s": "1/s", "parallel_efficiency": "frac", "symbols": "count",
    "msym_per_s": "Msym/s", "table_frac": "frac", "table_builds": "count",
    "kernel_msym_per_s": "Msym/s", "rng_floor_msym_per_s": "Msym/s",
    "errors": "count", "zero_error_rows": "count", "informative_ratio": "frac",
    "self_s": "s", "bytes_written": "B", "import_s": "s", "resolve_s": "s",
}


class Tracer:
    """In-memory spans and counts for calls made while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.calls: list[tuple] = []    # (run_id, args, kwargs) of kept calls
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: list[int] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn, name, counter, keep):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            outer = stack or self._root
            parent = outer[-1] if outer else None
            sid = next(self._ids)
            stack.append(sid)
            start, cpu = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = time.thread_time() - cpu
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, cpu, parent, self.run_id,
                                       threading.get_ident()))
            with self._lock:
                if counter is not None:
                    self.counts.update(counter(args, result))
                if keep:
                    self.calls.append((self.run_id, args, kwargs))
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every point in WRAP_POINTS for the duration of the block."""
        self._root = self._stack()
        saved = []
        try:
            for module_name, attr, name, counter, keep in WRAP_POINTS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, counter, keep))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part its children's union covers."""
        children = defaultdict(list)
        for s in self.spans:
            children[s.parent].append(s)
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(children[s.sid], key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.sid] = (s.end - s.start) - covered
        return out

    def write(self, path):
        """Write the spans, with self times, as JSON."""
        selfs = self.self_times()
        rows = [dict(s._asdict(), self_s=selfs[s.sid]) for s in self.spans]
        path.write_text(json.dumps({"spans": rows, "counts": dict(self.counts)}))


def table_seconds(tracer: Tracer, simulate) -> float:
    """Word-table cost of one traced iteration.

    Every simulate call of the first traced iteration is repeated with one
    symbol, once per distinct (channel, scheme, CSI, SNR); the one-symbol run
    is almost all table build.  The probe is timed in CPU seconds of this
    thread, the way simulate's busy time is, and the sum over that
    iteration's calls is returned.
    """
    if not tracer.calls:
        return 0.0
    first = min(run_id for run_id, _, _ in tracer.calls)
    probes = {}
    total = 0.0
    for run_id, args, kwargs in tracer.calls:
        if run_id != first:
            continue
        h, cfg = args[0], args[1]
        h_hat = kwargs.get("h_hat", args[2] if len(args) > 2 else None)
        key = (h.gains.tobytes(), cfg.scheme, cfg.csi_mode, cfg.snr_db,
               None if h_hat is None else np.asarray(h_hat).tobytes())
        if key not in probes:
            start = time.thread_time()
            simulate(h, dataclasses.replace(cfg, n_symbols=1), h_hat=h_hat)
            probes[key] = time.thread_time() - start
        total += probes[key]
    return total


def rng_floor_msym_per_s(n_r: int, block_size: int, symbols: int = 1 << 20,
                         repeats: int = 3) -> float:
    """Bare Philox draws of the Monte Carlo kernel, without the slicer.

    Same per-block generator keying, word-index and noise draws as
    ``montecarlo.simulate`` for ``n_r`` detectors; median of ``repeats``.
    """
    rates = []
    for _ in range(repeats):
        start = time.perf_counter()
        done = block = 0
        while done < symbols:
            nb = min(block_size, symbols - done)
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(entropy=(0, block))))
            rng.integers(0, 2 ** n_r, size=nb)
            rng.standard_normal((nb, n_r))
            done += nb
            block += 1
        rates.append(symbols / (time.perf_counter() - start) / 1e6)
    return statistics.median(rates)


def layer_metrics(tracer: Tracer, walls: list[float], threads: int,
                  table_s: float) -> dict[str, float]:
    """Per-layer numbers of the traced phase, per workload iteration.

    ``*.busy_frac`` is the layer's CPU time (of the threads that called it)
    over the summed iteration wall time; with threads it can pass 1.
    """
    iterations = len(walls)
    wall = sum(walls)
    busy, calls = Counter(), Counter()
    for s in tracer.spans:
        busy[s.name] += s.cpu
        calls[s.name] += 1
    sweeps = [s for s in tracer.spans if s.name == "montecarlo.sweep"]
    sweep_span = sum(s.end - s.start for s in sweeps)
    sweep_ids = {s.sid for s in sweeps}
    pool_busy = sum(s.cpu for s in tracer.spans if s.parent in sweep_ids)
    counts = tracer.counts

    def rate(num, den):
        return num / den if den > 0 else 0.0

    out = {}
    for name in ("channel.gain_map", "channel.build_channel_matrix",
                 "precoding.ci_precoder", "csi.perturb_channel", *ANALYTIC,
                 "montecarlo.sweep", "montecarlo.simulate"):
        out[f"{name}.calls"] = calls[name] / iterations
        out[f"{name}.busy_frac"] = busy[name] / wall
    sim_busy = busy["montecarlo.simulate"]
    symbols = counts["montecarlo.symbols"]
    selfs = tracer.self_times()
    out.update({
        "trace.wall_s": statistics.median(walls),
        "channel.gain_map.cells_per_s": rate(counts["channel.cells"],
                                             busy["channel.gain_map"]),
        "analytic.words": counts["analytic.words"] / iterations,
        "analytic.words_per_s": rate(counts["analytic.words"],
                                     sum(busy[n] for n in ANALYTIC)),
        "montecarlo.sweep.parallel_efficiency":
            rate(pool_busy, sweep_span * threads),
        "montecarlo.symbols": symbols / iterations,
        "montecarlo.msym_per_s": rate(symbols, sim_busy) / 1e6,
        "montecarlo.table_frac": table_s * iterations / wall,
        "montecarlo.table_builds": (calls["montecarlo.simulate"]
                                    + sum(calls[n] for n in ANALYTIC)) / iterations,
        "montecarlo.kernel_msym_per_s":
            rate(symbols, sim_busy - table_s * iterations) / 1e6,
        "montecarlo.errors": counts["montecarlo.errors"] / iterations,
        "montecarlo.zero_error_rows": counts["montecarlo.zero_error_rows"] / iterations,
        "montecarlo.informative_ratio": rate(counts["montecarlo.informative_rows"],
                                             calls["montecarlo.simulate"]),
        "runner.self_s": sum(selfs[s.sid] for s in tracer.spans
                             if s.name.startswith("runner.")) / iterations,
        "runner.bytes_written": counts["runner.bytes_written"] / iterations,
    })
    return out
