"""The swapengine benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it builds nothing and runs the package
from `src/`.  Each CLI call runs in a fresh interpreter (`child.py`), one at
a time.  A run repeats whole rounds of its workload until `--seconds` have
passed, checks every call's outputs against `reference.py`, and prints one
JSON line: `correct`, `attempted`, `failed` and the metrics, the end-to-end
ones with `--trace 0`, the per-layer ones with `--trace 1`.  An operation is
one CLI call with the checks on its output; it fails when the call exits
non-zero or an output fails a check, and `correct` turns false when a call
that exited 0 wrote a wrong output.

The workloads, the metrics and where each layer metric should move are
described in README.md next to this file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import reference
from reference import WORKING_POINT as WP

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
RUNS = BENCH / "_runs"

# a run must end within 180 s whatever the program does
HARD_LIMIT_S = 165.0
# statistical checks allow this many reported standard errors: over 20
# seeds at 10^5 samples the slope and integral-FT deviations spread by up
# to 1.4 of their reported errors, and 8 SE keeps a correct program's
# chance of failing a check below 1e-7 even then
K_SE = 8.0
TAU2 = 0.65

ENSEMBLE_SAMPLES = 100_000
ENSEMBLE_PULSES = 100
LOG_SAMPLES = 500
LOG_PULSES = 25
MCWF_REPLAYS = 20
GATE_CONFIGS = 2
# a single restart reaches the optimum about 92% of the time, so six miss
# it together with probability ~3e-7
GATE_RESTARTS = 6

# End-to-end times are in reference seconds: a call's measured seconds
# times REFERENCE_CAL_S over the time its own calibration loops took (see
# child.calibrate), i.e. seconds on a machine where those loops take 0.5 s.
# The shared machine's speed drifts by up to 2x within one set of runs;
# this takes the drift out.
REFERENCE_CAL_S = 0.5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "main_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "wall_raw_s": "s",
    "main_raw_s": "s",
    "sim_traj_pulses_per_s": "traj-pulses/s",
    "analyze_logs_per_s": "logs/s",
    "gate_configs_per_s": "configs/s",
    "trajectory.bits.sample_rate": "traj-pulses/s",
    "trajectory.run_ensemble.busy_s": "s",
    "trajectory.run_ensemble.records_per_s": "records/s",
    "trajectory.run_ensemble.records": "count",
    "trajectory.mcwf.traj_per_s": "traj/s",
    "stats.EnsembleStats.add.busy_s": "s",
    "stats.EnsembleStats.add.records_per_s": "records/s",
    "stats.report.busy_s": "s",
    "stats.reconstruct_from_events.busy_s": "s",
    "stats.reconstruct_from_events.logs_per_s": "logs/s",
    "eventlog.write_events.busy_s": "s",
    "eventlog.write_events.logs_per_s": "logs/s",
    "eventlog.bytes_written": "B",
    "eventlog.parse_events.busy_s": "s",
    "eventlog.parse_events.events_per_s": "events/s",
    "eventlog.parse_events.events": "count",
    "gates.optimize_gate.busy_s": "s",
    "gates.optimize_gate.restarts_per_s": "restarts/s",
    "gates.objective_evals": "count",
    "gates.objective_evals_per_s": "evals/s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# traced layers whose calls do not nest inside each other; main() time not
# covered by them is the CLI's own
TOP_LAYERS = (
    "trajectory.run_ensemble", "stats.EnsembleStats.add", "stats.report",
    "stats.reconstruct_from_events", "eventlog.write_events",
    "eventlog.parse_events", "gates.optimize_gate",
)


class CheckFailed(Exception):
    """An output of the program disagrees with the reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def within_se(label: str, pair, reference_value: float) -> None:
    value, std_err = pair
    expect(std_err > 0 and abs(value - reference_value) <= K_SE * std_err,
           f"{label} {value} +- {std_err} is not within {K_SE} SE of {reference_value}")


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def engine_args(eng: reference.Engine) -> list[str]:
    return ["--beta1", repr(eng.beta1), "--beta2", repr(eng.beta2),
            "--omega1", repr(eng.omega1), "--omega2", repr(eng.omega2),
            "--gamma", repr(eng.gamma)]


class Round:
    """One pass over a workload's operations in its own directory."""

    def __init__(self, directory: Path, traced: bool, deadline: float):
        self.dir = directory
        self.traced = traced
        self.deadline = deadline
        self.calls: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        directory.mkdir(parents=True)

    def fail(self, command: str, reason: str) -> None:
        self.failed += 1
        print(f"FAILED {command} in {self.dir.name}: {reason}", file=sys.stderr)

    def skip(self, command: str, reason: str) -> None:
        self.attempted += 1
        self.fail(command, f"not run: {reason}")

    def op(self, command: str, argv: list[str], work: int, check,
           probes: dict | None = None) -> bool:
        """Run one CLI call in a fresh interpreter, then check its outputs.

        work is the call's size in the unit of its command's rate:
        trajectory-pulses for simulate, logs for analyze, configurations
        for opt-gate.
        """
        self.attempted += 1
        result_path = self.dir / f"call{self.attempted}.json"
        cmd = [sys.executable, str(CHILD), str(result_path), "1" if self.traced else "0",
               json.dumps(probes or {}), "--", *argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.dir, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.fail(command, "timed out")
            return False
        wall_s = time.perf_counter() - start
        if proc.returncode != 0:
            tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            self.fail(command, f"exit {proc.returncode}: {' '.join(tail)}")
            return False
        try:
            result = json.loads(result_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            self.fail(command, f"no timing result: {exc}")
            return False
        result.update(command=command, wall_s=wall_s, work=work)
        self.calls.append(result)
        try:
            check()
        except Exception as exc:  # any unreadable or wrong output fails the operation
            self.wrong += 1
            self.fail(command, f"{type(exc).__name__}: {exc}")
            return False
        return True

    @property
    def complete(self) -> bool:
        return self.failed == 0


# ---- workloads: each round draws its inputs from the run's generator ----

def bits_probe_spec(samples: int, pulses: int, seed: int) -> dict:
    return {"engine": list(WP), "pulses": pulses, "tau2": TAU2,
            "samples": samples, "seed": seed}


def check_summary(out: Path, samples: int, pulses: int) -> dict:
    """summary.json: strict JSON, the requested size, no violations, the exact mean work."""
    summary = reference.load_strict_json(out / "summary.json")
    expect(summary["sample_size"] == samples,
           f"sample_size {summary['sample_size']} != {samples}")
    expect(summary["rigidity_violations"] == 0 and summary["quantization_violations"] == 0,
           "violation counters are not 0")
    within_se("mean work", summary["means"]["w"], reference.mean_work(WP, pulses, TAU2))
    return summary


def check_ensemble(out: Path) -> None:
    summary = check_summary(out, ENSEMBLE_SAMPLES, ENSEMBLE_PULSES)
    total = sum(int(row["count"]) for row in read_csv(out / "hist_nw.csv"))
    expect(total == ENSEMBLE_SAMPLES, f"hist_nw.csv counts sum to {total}")
    within_se("log-ratio slope", summary["log_ratio_slope"], reference.log_ratio_slope(WP))
    within_se("integral FT estimate", summary["integral_ft"], 1.0)
    modal = max(read_csv(out / "hist_eta.csv"), key=lambda row: int(row["count"]))
    eta = reference.swap_efficiency(WP)
    expect(float(modal["eta_lo"]) <= eta < float(modal["eta_hi"]),
           f"modal efficiency bin [{modal['eta_lo']}, {modal['eta_hi']}) misses {eta}")


def ensemble_round(rnd: Round, rng: random.Random) -> None:
    """simulate on the bit lane at the paper's working point."""
    seed = rng.randrange(2**31)
    argv = ["simulate", *engine_args(WP), "--pulses", str(ENSEMBLE_PULSES),
            "--tau2", repr(TAU2), "--samples", str(ENSEMBLE_SAMPLES),
            "--seed", str(seed), "--out-dir", "sim"]
    rnd.op("simulate", argv, ENSEMBLE_SAMPLES * ENSEMBLE_PULSES,
           lambda: check_ensemble(rnd.dir / "sim"),
           probes={"bits": bits_probe_spec(ENSEMBLE_SAMPLES, ENSEMBLE_PULSES, seed)})


def check_logs(sim: Path, logs: list) -> None:
    """summary.json of the --emit-logs run, and its logs read without the program."""
    summary = check_summary(sim, LOG_SAMPLES, LOG_PULSES)
    paths = sorted((sim / "events").iterdir())
    expect(len(paths) == LOG_SAMPLES, f"{len(paths)} logs for {LOG_SAMPLES} trajectories")
    net = Counter()
    for path in paths:
        items = reference.read_log(path)
        counts = reference.count_jumps(items)
        candidates = reference.work_quanta_candidates(items)
        expect(bool(candidates), f"{path.name}: no initial state explains the jumps")
        for bath in (1, 2):
            net[bath] += counts[(bath, "E")] - counts[(bath, "A")]
        logs.append((f"sim/events/{path.name}", counts, candidates))
    for bath, omega in ((1, WP.omega1), (2, WP.omega2)):
        mean_q = summary["means"][f"q{bath}"][0]
        expect(math.isclose(mean_q, omega * net[bath] / LOG_SAMPLES,
                            rel_tol=1e-9, abs_tol=1e-12),
               f"mean q{bath} {mean_q} disagrees with the logs")


def check_reconstruction(ana: Path, logs: list) -> None:
    rows = read_csv(ana / "reconstruction.csv")
    expect(len(rows) == len(logs), f"{len(rows)} reconstruction rows for {len(logs)} logs")
    quantum = WP.omega1 - WP.omega2
    for row, (path, counts, candidates) in zip(rows, logs):
        expect(row["file"] == path, f"row for {row['file']} where {path} was expected")
        for bath, omega in ((1, WP.omega1), (2, WP.omega2)):
            q_ref = omega * (counts[(bath, "E")] - counts[(bath, "A")])
            expect(math.isclose(float(row[f"q{bath}"]), q_ref, rel_tol=1e-12, abs_tol=1e-12),
                   f"{path}: q{bath} {row[f'q{bath}']} != {q_ref}")
        expect(int(row["survivors"]) >= 1, f"{path}: no surviving candidate")
        w_refined = float(row["w_refined"])
        # the true work is one of the candidates; within one quantum of all of
        # them is within one quantum of the truth
        for n_w in candidates:
            expect(abs(w_refined - quantum * n_w) <= quantum * (1.0 + 1e-12),
                   f"{path}: w_refined {w_refined} is more than one quantum from "
                   f"the candidate work {quantum * n_w}")


def log_roundtrip_round(rnd: Round, rng: random.Random) -> None:
    """simulate --emit-logs on the events lane, then analyze every log."""
    seed = rng.randrange(2**31)
    schedule = ["--pulses", str(LOG_PULSES), "--tau2", repr(TAU2)]
    logs: list = []
    probes = {"bits": bits_probe_spec(LOG_SAMPLES, LOG_PULSES, seed),
              "mcwf": {"engine": list(WP), "pulses": LOG_PULSES, "tau2": TAU2,
                       "seed": seed, "count": MCWF_REPLAYS, "log_dir": "sim/events"}}
    ok = rnd.op("simulate",
                ["simulate", *engine_args(WP), *schedule, "--samples", str(LOG_SAMPLES),
                 "--seed", str(seed), "--emit-logs", "--out-dir", "sim"],
                LOG_SAMPLES * LOG_PULSES,
                lambda: check_logs(rnd.dir / "sim", logs), probes=probes)
    if not ok:
        rnd.skip("analyze", "simulate failed")
        return
    rnd.op("analyze",
           ["analyze", *(path for path, _, _ in logs), *engine_args(WP), *schedule,
            "--out-dir", "ana"],
           LOG_SAMPLES,
           lambda: check_reconstruction(rnd.dir / "ana", logs))


def draw_engine(rng: random.Random) -> reference.Engine:
    """A heat-engine configuration over the acceptance test's ranges."""
    while True:
        b1 = rng.uniform(0.3, 1.0)
        b2 = b1 * rng.uniform(1.2, 3.0)
        lo = b1 / b2
        eng = reference.Engine(b1, b2, 1.0, lo + rng.uniform(0.05, 0.95) * (1.0 - lo))
        if reference.is_heat_engine(eng):
            return eng


def check_gate(out: Path, eng: reference.Engine) -> None:
    report = reference.load_strict_json(out / "opt_gate.json")
    best = reference.permutation_optimum(eng)
    expect(report["restarts"] == GATE_RESTARTS, f"restarts {report['restarts']}")
    expect(best - 1e-6 <= report["best_w"] <= best + 1e-9,
           f"best_w {report['best_w']} outside [{best} - 1e-6, {best} + 1e-9]")
    expect(math.isclose(report["swap_work_output"], best, rel_tol=1e-12, abs_tol=0.0),
           f"swap_work_output {report['swap_work_output']} != optimum {best}")


def gate_search_round(rnd: Round, rng: random.Random) -> None:
    """opt-gate at the working point and at configurations drawn from the seed."""
    engines = [WP] + [draw_engine(rng) for _ in range(GATE_CONFIGS - 1)]
    for i, eng in enumerate(engines):
        out = f"gate{i}"
        argv = ["opt-gate", *engine_args(eng), "--restarts", str(GATE_RESTARTS),
                "--seed", str(rng.randrange(2**31)), "--out-dir", out]
        rnd.op("opt-gate", argv, 1, lambda out=out, eng=eng: check_gate(rnd.dir / out, eng))


WORKLOADS = {
    "ensemble": ensemble_round,
    "log-roundtrip": log_roundtrip_round,
    "gate-search": gate_search_round,
}


# ---- metrics ----

def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_second(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def main_time(rnd: Round, command: str | None = None) -> float:
    return sum(c["main_s"] for c in rnd.calls if command in (None, c["command"]))


def program_wall(call: dict) -> float:
    """A call from interpreter start to exit, its calibration loops left out."""
    return call["wall_s"] - call["cal_s"]


def reference_s(seconds: float, call: dict) -> float:
    return seconds * REFERENCE_CAL_S / call["cal_s"]


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    """Medians over calls (set-up) and rounds (the rest), in reference seconds."""
    whole = [r for r in rounds if r.complete]
    return {
        "setup_s": median([reference_s(c["import_s"], c) for r in rounds for c in r.calls]),
        "wall_s": median([sum(reference_s(program_wall(c), c) for c in r.calls)
                          for r in whole]),
        "main_s": median([sum(reference_s(c["main_s"], c) for c in r.calls)
                          for r in whole]),
        "peak_rss_mib": median([max(c["maxrss_kib"] for c in r.calls) / 1024.0
                                for r in whole]),
    }


def plain_values(rnd: Round) -> dict[str, float]:
    """A plain round's raw times and the CLI commands' throughput over their main() time."""
    def rate(command: str) -> float:
        return per_second(sum(c["work"] for c in rnd.calls if c["command"] == command),
                          main_time(rnd, command))
    return {
        "wall_raw_s": sum(program_wall(c) for c in rnd.calls),
        "main_raw_s": main_time(rnd),
        "sim_traj_pulses_per_s": rate("simulate"),
        "analyze_logs_per_s": rate("analyze"),
        "gate_configs_per_s": rate("opt-gate"),
    }


def layer_values(rnd: Round) -> dict[str, float]:
    busy, calls, counts = Counter(), Counter(), Counter()
    probes = {}
    for c in rnd.calls:
        trace = c["trace"]
        busy.update(trace["busy"])
        calls.update(trace["calls"])
        counts.update(trace["counts"])
        for key in ("bits_rate", "mcwf_rate"):
            if key in c:
                probes[key] = c[key]
    return {
        "trajectory.bits.sample_rate": probes.get("bits_rate", 0.0),
        "trajectory.run_ensemble.busy_s": busy["trajectory.run_ensemble"],
        "trajectory.run_ensemble.records_per_s": per_second(
            calls["trajectory.run_ensemble"], busy["trajectory.run_ensemble"]),
        "trajectory.run_ensemble.records": calls["trajectory.run_ensemble"],
        "trajectory.mcwf.traj_per_s": probes.get("mcwf_rate", 0.0),
        "stats.EnsembleStats.add.busy_s": busy["stats.EnsembleStats.add"],
        "stats.EnsembleStats.add.records_per_s": per_second(
            calls["stats.EnsembleStats.add"], busy["stats.EnsembleStats.add"]),
        "stats.report.busy_s": busy["stats.report"],
        "stats.reconstruct_from_events.busy_s": busy["stats.reconstruct_from_events"],
        "stats.reconstruct_from_events.logs_per_s": per_second(
            calls["stats.reconstruct_from_events"], busy["stats.reconstruct_from_events"]),
        "eventlog.write_events.busy_s": busy["eventlog.write_events"],
        "eventlog.write_events.logs_per_s": per_second(
            calls["eventlog.write_events"], busy["eventlog.write_events"]),
        "eventlog.bytes_written": counts["eventlog.bytes_written"],
        "eventlog.parse_events.busy_s": busy["eventlog.parse_events"],
        "eventlog.parse_events.events_per_s": per_second(
            counts["eventlog.events"], busy["eventlog.parse_events"]),
        "eventlog.parse_events.events": counts["eventlog.events"],
        "gates.optimize_gate.busy_s": busy["gates.optimize_gate"],
        "gates.optimize_gate.restarts_per_s": per_second(
            counts["gates.restarts"], busy["gates.optimize_gate"]),
        "gates.objective_evals": counts["gates.objective_evals"],
        "gates.objective_evals_per_s": per_second(
            counts["gates.objective_evals"], busy["gates.optimize_gate"]),
        "cli.self_s": main_time(rnd) - sum(busy[name] for name in TOP_LAYERS),
    }


def per_layer(plain: list[Round], traced: list[Round]) -> dict[str, float]:
    plain = [r for r in plain if r.complete]
    traced = [r for r in traced if r.complete]
    rows = [plain_values(r) for r in plain] + [layer_values(r) for r in traced]
    values = {name: median([row[name] for row in rows if name in row])
              for name in PER_LAYER if name != "trace.overhead_s"}
    values["trace.overhead_s"] = (median([main_time(r) for r in traced])
                                  - median([main_time(r) for r in plain]))
    return values


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    round_fn = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    run_dir = RUNS / f"{workload}-{seed}-{os.getpid()}"
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    plain: list[Round] = []
    traced: list[Round] = []
    try:
        while not plain or time.monotonic() - started < seconds:
            inputs = rng.getstate()
            passes = [(plain, False), (traced, True)] if trace else [(plain, False)]
            if len(plain) % 2:
                passes.reverse()  # alternate which round of a pair runs first
            for rounds, is_traced in passes:
                # the traced round replays the inputs of the plain one
                rng.setstate(inputs)
                rnd = Round(run_dir / f"r{len(rounds)}{'t' if is_traced else ''}",
                            is_traced, deadline)
                round_fn(rnd, rng)
                rounds.append(rnd)
                print(f"{rnd.dir.name}: " + " ".join(
                    f"{c['command']} import {c['import_s']:.3f}s main {c['main_s']:.3f}s"
                    f" cal {c['cal_s']:.3f}s"
                    for c in rnd.calls), file=sys.stderr)
                shutil.rmtree(rnd.dir)
            if time.monotonic() > deadline:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may share it
            RUNS.rmdir()
    rounds = plain + traced
    if trace:
        values, units = per_layer(plain, traced), PER_LAYER
    else:
        values, units = end_to_end(plain), END_TO_END
    return {
        "correct": all(r.wrong == 0 for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (0 < args.seconds <= 60):
        parser.error("--seconds must be in (0, 60]")
    if not (ROOT / "src" / "swapengine" / "cli.py").is_file():
        print(f"no swapengine source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
