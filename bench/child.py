"""Run one `swapengine` CLI call in this fresh interpreter and time it.

    python3 bench/child.py RESULT_JSON TRACE PROBES_JSON -- ARGV...

The import of `swapengine.cli` (from the `src/` next to this directory,
never from an installed copy) is timed apart from the call of
`main(ARGV)`, so set-up shows on its own.  Nothing but `sys`, `os` and
`time`, which every interpreter has loaded at start-up, is imported before
that timing, so the import pays for everything the program pulls in.

A fixed calibration loop runs right before and right after `main`; its
time gives the speed of the shared machine while the call ran.

With TRACE 1 the names that `swapengine.cli` and `swapengine.gates` look up
are wrapped before `main` runs, and each layer's busy time, call count and
work counts are kept in memory; after `main` returns, the probes named in
PROBES_JSON run.  The timings, the peak RSS and the trace go to
RESULT_JSON.  The exit code is the one `main` returned; a probe that finds
a mismatch exits 5.
"""

import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")


class Tracer:
    """Per-layer busy seconds, call counts and work counts, kept in memory.

    Spans are folded per layer name as they end: the wrapped calls never
    nest inside each other except `minimize` inside `optimize_gate`, which
    is only counted, so the busy times of different names do not overlap.
    """

    def __init__(self):
        self.busy = {}
        self.calls = {}
        self.counts = {}

    def _span(self, name, seconds):
        self.busy[name] = self.busy.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + 1

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def timed(self, name, fn, after=None):
        """Wrap fn so that each call is one span of `name`; after(args, result) counts work."""
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._span(name, clock() - start)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def timed_iter(self, name, fn):
        """Wrap a generator function so that each next() is one span of `name`."""
        clock = time.perf_counter
        span = self._span

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def stream():
                while True:
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        self.busy[name] = self.busy.get(name, 0.0) + clock() - start
                        return
                    span(name, clock() - start)
                    yield item
            return stream()
        return wrapper

    def install(self, cli, gates, stats):
        """Wrap the layer entry points where the CLI and the gate search look them up."""
        cli.run_ensemble = self.timed_iter("trajectory.run_ensemble", cli.run_ensemble)
        stats.EnsembleStats.add = self.timed("stats.EnsembleStats.add",
                                             stats.EnsembleStats.add)
        cli.ft_log_ratio = self.timed("stats.report", cli.ft_log_ratio)
        cli.efficiency_distribution = self.timed("stats.report",
                                                 cli.efficiency_distribution)
        cli.write_events = self.timed(
            "eventlog.write_events", cli.write_events,
            after=lambda args, _: self.count("eventlog.bytes_written",
                                             os.path.getsize(args[0])))
        cli.parse_events = self.timed(
            "eventlog.parse_events", cli.parse_events,
            after=lambda _, events: self.count("eventlog.events", len(events)))
        cli.reconstruct_from_events = self.timed("stats.reconstruct_from_events",
                                                 cli.reconstruct_from_events)
        cli.optimize_gate = self.timed("gates.optimize_gate", cli.optimize_gate)
        minimize = gates.minimize

        def counted_minimize(*args, **kwargs):
            res = minimize(*args, **kwargs)
            self.count("gates.restarts", 1)
            self.count("gates.objective_evals", int(res.nfev))
            return res
        gates.minimize = counted_minimize

    def as_dict(self):
        return {"busy": self.busy, "calls": self.calls, "counts": self.counts}


def bits_probe(se, spec):
    """Sampling rate of the bit lane alone, in trajectory-pulses per second.

    per_pulse_transfer_moments draws the same chunks as the simulate call
    but folds them as arrays, without building one record per row.
    """
    cfg = se.EngineConfig(*spec["engine"])
    proto = se.Protocol(spec["pulses"], spec["tau2"])
    start = time.perf_counter()
    se.per_pulse_transfer_moments(cfg, proto, spec["samples"], spec["seed"])
    return spec["samples"] * spec["pulses"] / (time.perf_counter() - start)


def mcwf_probe(se, spec):
    """Replay the first trajectories on the wave-function lane against the logs.

    Returns (trajectories per second, mismatch message or None).  The
    events lane and the mcwf lane draw the same uniforms, so every log must
    match the replay jump for jump; times agree to the root-finder
    tolerance.
    """
    sys.path.insert(0, BENCH_DIR)
    from reference import read_log

    cfg = se.EngineConfig(*spec["engine"])
    proto = se.Protocol(spec["pulses"], spec["tau2"])
    start = time.perf_counter()
    records = list(se.run_ensemble(cfg, proto, se.SwapFamily(), spec["count"],
                                   spec["seed"], keep_events=True, engine="mcwf"))
    rate = spec["count"] / (time.perf_counter() - start)
    logs = sorted(os.listdir(spec["log_dir"]))[:spec["count"]]
    for name, record in zip(logs, records):
        path = os.path.join(spec["log_dir"], name)
        logged = read_log(path)
        replay = [("P", ev.index, None) if ev.kind == "P" else (ev.kind, ev.bath, ev.time)
                  for ev in record.events]
        if len(logged) != len(replay):
            return rate, f"{path}: {len(logged)} log lines, mcwf replay has {len(replay)}"
        for line_no, (a, b) in enumerate(zip(logged, replay), start=1):
            if a[:2] != b[:2] or (a[2] is not None and abs(a[2] - b[2]) > 1e-9):
                return rate, f"{path}:{line_no}: log has {a}, mcwf replay has {b}"
    return rate, None


def calibrate(np):
    """Seconds for a fixed mix of interpreter work and small-array numpy calls.

    The machine is shared and its speed drifts by up to 2x within minutes;
    timing this loop right before and right after main() measures the speed
    the call ran at, so its times can be reported at a reference speed.
    """
    start = time.perf_counter()
    table = {}
    for i in range(800_000):
        table[i % 97] = table.get(i % 97, 0) + i * 3 % 11
    vec = np.ones(4, dtype=complex)
    mat = np.eye(4, dtype=complex)
    for _ in range(20_000):
        vec = mat @ vec
        np.linalg.norm(np.abs(vec) ** 2)
    return time.perf_counter() - start


def main():
    result_path, trace, probes_json = sys.argv[1:4]
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py RESULT_JSON TRACE PROBES_JSON -- ARGV...")
    argv = sys.argv[5:]
    if not os.path.isfile(os.path.join(SRC, "swapengine", "cli.py")):
        print(f"no swapengine source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    start = time.perf_counter()
    import swapengine.cli as cli
    import_s = time.perf_counter() - start

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"swapengine.cli came from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import json
    import resource

    import numpy as np

    import swapengine as se
    from swapengine import gates, stats

    tracer = None
    if trace == "1":
        tracer = Tracer()
        tracer.install(cli, gates, stats)
    cal_s = calibrate(np)
    start = time.perf_counter()
    rc = cli.main(argv)
    main_s = time.perf_counter() - start
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "rc": rc,
        "import_s": import_s,
        "main_s": main_s,
        "cal_s": cal_s + calibrate(np),
        "maxrss_kib": maxrss_kib,
    }
    if tracer is not None and rc == 0:
        result["trace"] = tracer.as_dict()
        probes = json.loads(probes_json)
        if "bits" in probes:
            result["bits_rate"] = bits_probe(se, probes["bits"])
        if "mcwf" in probes:
            result["mcwf_rate"], mismatch = mcwf_probe(se, probes["mcwf"])
            if mismatch is not None:
                print(f"mcwf probe: {mismatch}", file=sys.stderr)
                rc = 5
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
