#!/usr/bin/env python3
"""Benchmark of shiftlab's CLI on witness, ambient and spectrum workloads.

    python3 benchmark/run.py --workload witness-full2 --seed 20250809 --seconds 15 --trace 0

One process, one caller, closed loop: each operation calls
`shiftlab.cli.main` in-process and the next starts when it returns.  A run
repeats whole rounds of the workload's operations for --seconds (at least
two rounds; a round starts only if it can end in time), times each
operation by its median over the rounds, scaled to a reference host speed
measured next to it (see hostspeed.py), checks every output against
computations made apart from the program, and prints a table followed by
one JSON result line.  --trace 1 traces every second round (the others run
untraced, giving the tracing overhead) and reports per-layer metrics
instead of the end-to-end ones.  See benchmark/README.md.
"""

import time

T_START = time.perf_counter()

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path

import checks
import workloads
from hostspeed import Timing, timed
from tracing import LAYERS, Tracer
from workloads import BetaEstimate, Count, Spectrum, Witness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
MIN_ROUNDS = 2
SETUP_REPEATS = 15


def import_program():
    """Import shiftlab.cli afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == "shiftlab" or m.startswith("shiftlab.")]:
        del sys.modules[name]
    cli = importlib.import_module("shiftlab.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"shiftlab imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload: str, seed: int, work: Path):
    """Import the program and generate and write the workload's inputs."""
    cli = import_program()
    return cli, workloads.build(workload, seed, work)


def digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs rounds of one workload and keeps per-operation timings."""

    def __init__(self, cli, ops: list):
        self.cli = cli
        self.ops = ops
        self.samples: dict[tuple[str, str], list[Timing]] = defaultdict(list)
        self.units: dict[tuple[str, str], int] = {}   # symbols or points per op phase
        self.round_walls: dict[bool, list[float]] = {False: [], True: []}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.expected_counts: dict[str, int] = {}

    def call(self, argv: list[str]) -> tuple[Timing, bool, str]:
        """One CLI command; returns (timing, succeeded, captured stdout)."""
        out, err = io.StringIO(), io.StringIO()

        def command():
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return self.cli.main(argv)
            except SystemExit as e:   # argparse rejects bad arguments by exiting
                return e.code if isinstance(e.code, int) else 1
            except Exception:
                err.write(traceback.format_exc())
                return None

        timing, rc = timed(command)
        if rc != 0:
            print(f"operation failed ({rc}): shiftlab {' '.join(argv)}\n{err.getvalue()}",
                  file=sys.stderr)
        return timing, rc == 0, out.getvalue()

    def run_round(self, traced: bool) -> None:
        wall = 0.0
        betas: dict[str, list] = defaultdict(list)
        for op in self.ops:
            gc.collect()
            self.attempted += 1
            if isinstance(op, Witness):
                t_syn, ok, _ = self.call(op.synthesize_argv())
                wall += t_syn.ref_s
                if ok:
                    t_ver, ok, _ = self.call(op.verify_argv())
                    wall += t_ver.ref_s
                if not ok:
                    self.failed += 1
                    continue
                self.record(op.label, "synthesize", t_syn, op.horizon)
                self.record(op.label, "verify", t_ver, op.horizon)
                self.problems += checks.check_witness(op.out_dir, op.matrix, op.gap_class,
                                                      op.horizon)
                self.same_as_before(op.label, op.out_dir / "stream.txt",
                                    op.out_dir / "certificate.json")
                continue
            timing, ok, stdout = self.call(op.argv())
            wall += timing.ref_s
            if not ok:
                self.failed += 1
                continue
            if isinstance(op, Spectrum):
                points, problems = checks.check_spectrum(op.csv, op.manifest, op.matrix,
                                                         op.range, op.table, op.points)
                self.problems += problems
                self.record(op.label, "spectrum", timing, points)
                self.same_as_before(op.label, op.csv)
            elif isinstance(op, Count):
                if op.label not in self.expected_counts:
                    self.expected_counts[op.label] = checks.expected_count(op.shift, op.method, op.n)
                self.problems += checks.check_count_output(stdout, op.method, op.n,
                                                           self.expected_counts[op.label])
                self.record(op.label, "entropy", timing, 1)
            elif isinstance(op, BetaEstimate):
                try:
                    est, log_beta = checks.parse_beta_output(stdout)
                except ValueError as e:
                    self.problems.append(f"{op.label}: {e}")
                else:
                    betas[op.beta].append((op.n, est, log_beta))
                self.record(op.label, "entropy", timing, 1)
        for beta, series in betas.items():
            self.problems += checks.check_beta_series(beta, sorted(series))
        self.round_walls[traced].append(wall)

    def record(self, label: str, phase: str, timing: Timing, units: int) -> None:
        self.samples[(label, phase)].append(timing)
        self.units[(label, phase)] = units

    def same_as_before(self, label: str, *paths: Path) -> None:
        """Outputs of one operation are byte-identical in every round."""
        d = digest(*paths)
        if self.digests.setdefault(label, d) != d:
            self.problems.append(f"{label}: output differs from the first round")

    def check_counts_exactly(self) -> None:
        """Big-int counts from the public functions equal the closed forms."""
        shifts = sys.modules["shiftlab.shifts"]
        for op in self.ops:
            if isinstance(op, Count):
                matrix = json.loads(op.shift_doc.read_text())["matrix"]
                s = shifts.sft_from_matrix(len(matrix), matrix)
                fn = shifts.count_words if op.method == "words" else shifts.count_periodic
                if fn(s, op.n) != checks.expected_count(op.shift, op.method, op.n):
                    self.problems.append(f"{op.label}: count at n={op.n} is not the closed form")

    # --- metrics ------------------------------------------------------------

    # An operation's time is its median over the run's rounds, in
    # reference-speed seconds (`raw=False`) or as measured (`raw=True`).

    @staticmethod
    def median(timings: list[Timing], raw: bool) -> float:
        return statistics.median(t.raw_s if raw else t.ref_s for t in timings)

    def median_time(self, phase: str, raw: bool = False) -> tuple[float, int]:
        """(sum over ops of the per-op median seconds, units per round)."""
        seconds = units = 0
        for (label, p), timings in self.samples.items():
            if p == phase:
                seconds += self.median(timings, raw)
                units += self.units[(label, p)]
        return seconds, units

    def wall_s(self, raw: bool = False) -> float:
        return sum(self.median(timings, raw) for timings in self.samples.values())


def end_to_end(runner: Runner, setup_times: list[Timing]) -> tuple[dict, dict]:
    """(declared end-to-end metrics, workload-specific throughputs and the
    times as measured)."""
    metrics = {
        "setup_s": (statistics.median(t.ref_s for t in setup_times), "s"),
        "wall_s": (runner.wall_s(), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "setup_raw_s": (statistics.median(t.raw_s for t in setup_times), "s"),
        "wall_raw_s": (runner.wall_s(raw=True), "s"),
    }
    for phase, name, unit in (("synthesize", "synthesize_symbols_per_s", "symbols/s"),
                              ("verify", "verify_symbols_per_s", "symbols/s"),
                              ("spectrum", "spectrum_points_per_s", "points/s")):
        seconds, units = runner.median_time(phase)
        if seconds > 0:
            extra[name] = (units / seconds, unit)
    return metrics, extra


def per_layer(tracer: Tracer, runner: Runner, rounds: int) -> dict:
    t, c = tracer.total, tracer.counters

    def per(x):
        return x / rounds

    def rate(units, seconds):
        return units / seconds if seconds > 0 else 0.0

    _, points = runner.median_time("spectrum")
    sampler_s = per(t("measures.sample_typical_word"))
    sampled = per(c["measures.sampled_symbols"])
    stream_s = per(t("io.stream_to_text"))
    evals = per(c["spectrum.pressure_evals"])
    walls = runner.round_walls
    m = {
        "measures.sample_typical_word_s": (sampler_s, "s"),
        "measures.sampler_symbols_per_s": (rate(sampled, sampler_s), "symbols/s"),
        "measures.sampled_symbols": (sampled, "count"),
        "measures.facts_s": (per(t("measures.entropy", "measures.integrate", "measures.support",
                                   "measures.has_full_support", "measures.is_ergodic")), "s"),
        "measures.parry_measure_s": (per(t("measures.parry_measure")), "s"),
        "synthesis.synthesize_witness_self_s":
            (per(tracer.self_time("synthesis.synthesize_witness")), "s"),
        "synthesis.segments": (per(c["synthesis.segments"]), "count"),
        "synthesis.certify_self_s": (per(tracer.self_time("synthesis.certify")), "s"),
        "io.stream_to_text_s": (stream_s, "s"),
        "io.stream_text_mb_per_s": (rate(per(c["io.stream_text_bytes"]) / 1e6, stream_s), "MB/s"),
        "io.write_orbit_dir_s": (per(t("io.write_orbit_dir")), "s"),
        "io.read_orbit_dir_s": (per(t("io.read_orbit_dir")), "s"),
        "io.certificate_bytes": (per(c["io.certificate_bytes"]), "bytes"),
        "classify.evaluate_certificate_s": (per(t("classify.evaluate_certificate")), "s"),
        "classify.window_scans": (per(c["classify.window_codes_calls"]), "count"),
        "shifts.largest_proper_scc_subgraph_s": (per(t("shifts.largest_proper_scc_subgraph")), "s"),
        "shifts.primitive_cycles_s": (per(t("shifts.primitive_cycles")), "s"),
        "shifts.sft_from_matrix_s": (per(t("shifts.sft_from_matrix")), "s"),
        "shifts.connecting_word_calls": (per(c["shifts.connecting_word_calls"]), "count"),
        "shifts.count_s": (per(t("shifts.count_words", "shifts.count_periodic")), "s"),
        "beta.normalize_s": (per(t("beta.quasi_greedy_normalize")), "s"),
        "beta.count_words_s": (per(t("beta.beta_count_words")), "s"),
        "spectrum.pressure_evals": (evals, "count"),
        "spectrum.pressure_evals_per_point": (evals / points if points else 0.0, "count"),
        "spectrum.spectrum_curve_self_s": (per(tracer.self_time("spectrum.spectrum_curve")), "s"),
        "spectrum.lphi_interval_s": (per(t("spectrum.lphi_interval")), "s"),
        "spectrum.lphi_interval_calls": (per(c["spectrum.lphi_interval_calls"]), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (per(tracer.layer_self(layer)), "s")
    m["trace.overhead_s"] = (statistics.median(walls[True]) - statistics.median(walls[False]), "s")
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "shiftlab" / "cli.py").is_file():
        print(f"error: no shiftlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        timing, (cli, ops) = timed(lambda: set_up(args.workload, args.seed, work))
        setup_times.append(timing)
    runner = Runner(cli, ops)
    tracer = Tracer() if args.trace else None
    gc.collect()
    gc.freeze()

    t_loop = time.perf_counter()
    setup_cold_s = t_loop - T_START
    rounds = 0
    longest = 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() - t_loop + longest <= args.seconds:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        t_round = time.perf_counter()
        try:
            runner.run_round(traced)
        finally:
            if traced:
                tracer.uninstall()
        longest = max(longest, time.perf_counter() - t_round)
        rounds += 1
    runner.check_counts_exactly()

    if tracer is not None:
        traced_rounds = len(runner.round_walls[True])
        metrics = per_layer(tracer, runner, traced_rounds)
        extra = {}
        tracer.write(str(work / "trace.jsonl"))
    else:
        metrics, extra = end_to_end(runner, setup_times)
        extra["setup_cold_s"] = (setup_cold_s, "s")

    correct = not runner.problems
    for problem in runner.problems[:50]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  trace {args.trace}")
    print(f"attempted {runner.attempted}  failed {runner.failed}  correct {str(correct).lower()}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
