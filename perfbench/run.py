"""vlcmimo benchmark: batch sweeps timed end to end, checked row by row.

Usage (from the root of a source checkout; vlcmimo is imported from ./src):

    python3 perfbench/run.py --workload mc_fig4 --seed 1 --seconds 15 --trace 0

Each workload is one closed loop in this process: one client calls the public
``vlcmimo.runner`` recipes, waits for them to finish, checks every CSV row
they wrote, and starts new iterations until ``--seconds`` of iterations have
passed, so the last one ends at most one iteration (about a second) late.
Nine set-up probes (fresh interpreters) run one after each of the first
iterations, so that they sample the host over the whole run rather than over
a few seconds of it; their time is not counted against ``--seconds``.
``threads`` is always passed explicitly, equal to the CPUs this process may
use, capped at 2.  ``--seed`` becomes the config seed.  ``--workload all``
runs every workload in turn, each in its own process.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it print
every metric with its unit, plus provenance.  Full results (samples, CSV
digests, provenance) go to ``perfbench/_work/``.

Workloads (why each was chosen):

  mc_fig4        fig4 preset (4x4, spacings 0.25/0.5/1.0 m, ci and oap,
                 perfect CSI) at every sixth SNR point (70 to 130 dB in 12 dB
                 steps), 150k symbols per point.  Monte Carlo simulate is
                 almost all of the time; the closed forms are a small share
                 and the word tables have 16 words.  Kernel,
                 slicer, threading and importance-sampling changes show here;
                 table and geometry changes should not.
  wide_perfect   ber-sweep at mimo_orders 8 and 9, 0.5 m spacing, SNR 80 and
                 90 dB, 10k symbols, then throughput-sweep on the same arrays.
                 256- and 512-word tables are rebuilt for every point by the
                 closed forms, the simulate table build and the throughput;
                 the Monte Carlo kernel does little.  Mechanism workload for a
                 shared vectorised word table, bypass for kernel changes.
  wide_outdated  mobility (outdated CSI, uniform model) on the 10-link array at
                 0.5 m, one elapsed time of 0.02 s, same SNR points and
                 symbols.  Same layers as wide_perfect through the stale
                 precoder and the outdated bounds, so a perfect-CSI-only
                 speed-up that slows or breaks this path shows.
  gain_raster    channel-map on fig3a and fig3b (80x80 cells each), the two
                 maps side by side on two workers.  The geometry gain raster
                 and the CSV writer are the whole run; the only workload where
                 they are visible.  The raster is pure Python, so the workers
                 share the interpreter lock and the run is spread over both
                 CPUs rather than left on one whose speed, on a shared host,
                 can change twofold for seconds at a time.

End-to-end metrics (--trace 0; the traced run never times these):

  wall_s                s    median wall time of one workload iteration.  The
                             lines before the JSON also give the highest
                             percentile with at least 10 samples beyond it
                             (when there are more than 10) and the count.
  setup_s               s    median over fresh interpreters of start-up,
                             ``import vlcmimo`` and resolving and validating
                             the workload's config.
  peak_rss_mb           MB   peak resident memory of the benchmark process.
  validated_rows_per_s  1/s  rows validated per second of wall time (median
                             over iterations).  A Monte Carlo row is validated
                             when it passes its check and its relative
                             standard error, from mc_avg_ber and
                             mc_halfwidth_95, is at most 10 %; a closed-form
                             row (throughput, raster) when it matches the
                             seed-commit reference.  On mc_fig4 it is the time
                             to a solution of stated accuracy.
  ok_frac               frac 1 - failed_frac: share of expected rows that were
                             written and passed (``failed_frac`` = rows failing
                             the checks in ``checks.py``, or missing because
                             the run raised, over rows attempted).

Per-layer metrics (--trace 1), per workload iteration of the traced phase.
``<layer>.busy_frac`` is the CPU time of the threads inside the layer's
calls over the summed iteration wall time (with two sweep threads it can pass
1); ``<layer>.calls`` counts calls.  Layers: channel.gain_map, channel.build_channel_matrix,
precoding.ci_precoder, csi.perturb_channel, analytic.ber_ci_perfect,
analytic.ber_oap_perfect, analytic.throughput, analytic.ber_ci_outdated,
analytic.ber_oap_outdated, montecarlo.sweep, montecarlo.simulate.  Also:

  trace.wall_s                      s      median traced iteration wall time
  trace_overhead_frac               frac   traced / untraced wall_s - 1
  channel.gain_map.cells_per_s      1/s    raster cells per gain_map second
  analytic.words                    count  sum of 2^n_t over closed-form calls
  analytic.words_per_s              1/s    words per closed-form second
  montecarlo.sweep.parallel_efficiency
                                    frac   simulate busy / (sweep busy x threads)
  montecarlo.symbols                count  symbols simulated
  montecarlo.msym_per_s             Msym/s symbols per simulate second
  montecarlo.table_frac             frac   word-table CPU seconds (one-symbol
                                           simulate probe per distinct channel,
                                           scheme, CSI and SNR, times calls)
                                           over wall time
  montecarlo.table_builds           count  simulate plus closed-form calls
  montecarlo.kernel_msym_per_s      Msym/s symbols per simulate CPU second net
                                           of the table seconds; only meaningful
                                           where table_frac is small (mc_fig4)
  montecarlo.rng_floor_msym_per_s   Msym/s bare Philox word and noise draws at
                                           the kernel's block size and the
                                           workload's largest detector count
  montecarlo.errors                 count  Monte Carlo errors, all detectors
  montecarlo.zero_error_rows        count  simulate calls with no error
  montecarlo.informative_ratio      frac   simulate calls with >= 100 errors
                                           over simulate calls
  runner.self_s                     s      run_* time outside wrapped calls
                                           (formatting and writing); wall
                                           time, so on gain_raster it includes
                                           waits for the other map's worker
  runner.bytes_written              B      bytes of CSV and metadata written
  config.import_s                   s      ``import vlcmimo`` in a fresh
                                           interpreter (median)
  config.resolve_s                  s      resolving and validating the
                                           config there (median)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_csv, seed_free_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
REFERENCE = BENCH / "reference.json"
SETUP_PROBES = 9
MAX_PROBLEMS = 50
WORKLOAD_NAMES = ("mc_fig4", "wide_perfect", "wide_outdated", "gain_raster")


@dataclass
class Phase:
    """Samples and check totals of one closed loop."""

    walls: list[float] = field(default_factory=list)
    validated: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digests: dict[str, list[str]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def note(self, problems):
        self.problems.extend(problems[:MAX_PROBLEMS - len(self.problems)])

    def fail(self, rows: int, why: str):
        self.attempted += rows
        self.failed += rows
        self.note([why])


def _check_iteration(phase: Phase, csvs, expected: dict) -> int:
    """Check one iteration's CSVs against the reference; return validated rows."""
    written = {p.name: p for p in csvs}
    validated = 0
    for name, ref_rows in expected.items():
        if name not in written:
            phase.fail(len(ref_rows), f"{name}: not written")
            continue
        try:
            result = check_csv(name, written[name].read_text(encoding="utf-8"), ref_rows)
        except (OSError, ValueError, IndexError) as exc:
            phase.fail(len(ref_rows), f"{name}: unreadable: {exc!r}")
            continue
        digests = phase.digests.setdefault(name, [])
        if digests and result.digest != digests[0]:
            result.failed = result.attempted
            result.problems.append(f"body {result.digest} differs from the first "
                                   f"iteration's {digests[0]}")
        digests.append(result.digest)
        phase.attempted += result.attempted
        phase.failed += result.failed
        phase.note([f"{name}: {p}" for p in result.problems])
        validated += result.validated if not result.failed else 0
    return validated


def measure(workload, cfgs, expected: dict, seconds: float, threads: int,
            out_dir: Path, tracer=None, between=None) -> Phase:
    """Run ``workload`` in a closed loop, checking every iteration's output,
    and start iterations until ``seconds`` have passed.  ``between()`` runs
    after each iteration; its time is added to the deadline."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.run_id = len(phase.walls)
        start = time.perf_counter()
        try:
            csvs = workload.run(cfgs, out_dir, threads)
        except Exception:  # a failing run is counted, and the loop goes on
            wall = time.perf_counter() - start
            if not phase.problems:
                traceback.print_exc()
            phase.fail(sum(map(len, expected.values())),
                       f"run raised: {traceback.format_exc(limit=1).strip()}")
            phase.validated.append(0)
        else:
            wall = time.perf_counter() - start
            phase.validated.append(_check_iteration(phase, csvs, expected))
        phase.walls.append(wall)
        if between is not None:
            start = time.perf_counter()
            between()
            deadline += time.perf_counter() - start
        if time.perf_counter() >= deadline:
            return phase


def _tail(walls: list[float]) -> dict:
    """Highest percentile with at least 10 samples beyond it, if any."""
    ordered = sorted(walls)
    k = len(ordered) - 10           # 1-based rank with 10 samples above it
    if k < 1:
        return {"percentile": None, "value": None, "samples": len(ordered)}
    return {"percentile": round(100.0 * k / len(ordered), 1),
            "value": ordered[k - 1], "samples": len(ordered)}


def _setup_sample(workload: str, seed: int) -> dict:
    """Time a fresh interpreter that imports vlcmimo and resolves the config."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    sample["setup_s"] = time.perf_counter() - start
    return sample


def _import_program():
    """Import vlcmimo from this checkout's src/, and nowhere else."""
    if not (SRC / "vlcmimo" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no vlcmimo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import vlcmimo
    if Path(vlcmimo.__file__).resolve().parent != (SRC / "vlcmimo").resolve():
        raise SystemExit(f"perfbench: imported vlcmimo from {vlcmimo.__file__}")
    return vlcmimo


def _setup_probe(workload: str, seed: int):
    start = time.perf_counter()
    _import_program()
    import vlcmimo.runner  # noqa: F401  (the recipes the workloads call)
    imported = time.perf_counter()
    from workloads import WORKLOADS
    resolving = time.perf_counter()
    WORKLOADS[workload].configs(seed)
    print(json.dumps({"import_s": imported - start,
                      "resolve_s": time.perf_counter() - resolving}))


def _provenance(seed: int, threads: int, nproc: int) -> dict:
    import numpy
    import scipy
    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "vlcmimo").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": nproc, "threads": threads, "seed": seed,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_rev": rev,
            "src_sha256": src.hexdigest()[:16]}


def _record_reference():
    """Write reference.json from one run of every workload (any seed)."""
    from workloads import WORKLOADS
    ref = {}
    for name, workload in WORKLOADS.items():
        out = WORK / "reference" / name
        out.mkdir(parents=True, exist_ok=True)
        csvs = workload.run(workload.configs(1), out, threads=1)
        ref[name] = {p.name: seed_free_reference(p.name, p.read_text(encoding="utf-8"))
                     for p in csvs}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json (run on a trusted commit)")
    args = parser.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return max(subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=600).returncode for name in WORKLOAD_NAMES)
    _import_program()
    if args.record_reference:
        _record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    import vlcmimo.montecarlo
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    expected = json.loads(REFERENCE.read_text(encoding="utf-8"))[args.workload]
    nproc = len(os.sched_getaffinity(0))
    threads = min(nproc, 2)
    cfgs = workload.configs(args.seed)
    out_dir = WORK / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"

    setup = []

    def probe():
        if len(setup) < SETUP_PROBES:
            setup.append(_setup_sample(args.workload, args.seed))

    # A traced run spends the first half of --seconds untraced, the baseline
    # of trace_overhead_frac, and the second half traced.
    untraced_s = args.seconds / 2 if args.trace else args.seconds
    phase = measure(workload, cfgs, expected, untraced_s, threads, out_dir, between=probe)
    while len(setup) < SETUP_PROBES:
        probe()
    traced = None
    if args.trace:
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = measure(workload, cfgs, expected, args.seconds / 2, threads, out_dir,
                             tracer)
        tracer.write(WORK / f"{tag}_spans.json")
        layers = tracing.layer_metrics(
            tracer, traced.walls, threads,
            tracing.table_seconds(tracer, vlcmimo.montecarlo.simulate))
        layers["montecarlo.rng_floor_msym_per_s"] = tracing.rng_floor_msym_per_s(
            max(n for cfg in cfgs for n, _, _ in cfg.variants()),
            cfgs[0].montecarlo.block_size)
        layers["trace_overhead_frac"] = (layers["trace.wall_s"]
                                         / statistics.median(phase.walls) - 1.0)
        layers["config.import_s"] = statistics.median(s["import_s"] for s in setup)
        layers["config.resolve_s"] = statistics.median(s["resolve_s"] for s in setup)
        metrics = {k: (v, tracing.LAYER_UNITS[k.rsplit(".", 1)[-1]])
                   for k, v in layers.items()}
    else:
        metrics = {
            "wall_s": (statistics.median(phase.walls), "s"),
            "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
            "validated_rows_per_s": (statistics.median(
                v / w for v, w in zip(phase.validated, phase.walls)), "1/s"),
        }
    phases = [phase] + ([traced] if traced else [])
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    if not args.trace:
        metrics["ok_frac"] = (1.0 - failed / attempted, "frac")

    result = {
        "workload": args.workload, "why": workload.why,
        "provenance": _provenance(args.seed, threads, nproc),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failed_frac": failed / attempted, "attempted": attempted, "failed": failed,
        "wall_s": {"samples": phase.walls, "tail": _tail(phase.walls)},
        "traced_wall_s": traced.walls if traced else None,
        "setup_samples": setup,
        "csv_digests": {n: sorted(set(d)) for p in phases for n, d in p.digests.items()},
        "problems": [q for p in phases for q in p.problems],
    }
    (WORK / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"perfbench {args.workload}: {len(phase.walls)} iterations")
    print(f"  provenance {json.dumps(result['provenance'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    tail = result["wall_s"]["tail"]
    if tail["percentile"] is not None:
        print(f"  wall_s p{tail['percentile']}: {tail['value']:.6g} s "
              f"of {tail['samples']} samples")
    else:
        print(f"  wall_s tail: {tail['samples']} samples, none with 10 beyond")
    print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted} rows)")
    for problem in result["problems"][:5]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
