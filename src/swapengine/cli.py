"""Command-line front end: config resolution, subcommands, artifact writers.

Every subcommand is a pure function of (config file + flags + seed) to
output bytes: CSV cells carry 17 significant digits so float64 values
round-trip, JSON is emitted with sorted keys, and ensembles are seeded
per-trajectory, so rerunning an invocation reproduces its artifacts byte for
byte.

Config files are flat `key = value` lines with `#` comments; unknown keys
are rejected.  Flags override file values, which override the built-in
defaults (the defaults reproduce the documented two-bath engine example:
beta1=2/3, beta2=1, omega1=1, omega2=5/6, 100 pulses at tau2=0.65).

Exit codes: 0 success, 2 configuration error, 3 I/O failure, 4 event-log
parse error, 5 broken internal check (such as work-lattice rigidity).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .eventlog import ParseError, parse_events, write_events
from .gates import (Generic, GateSpec, ISwap, SwapFamily, build_gate,
                    mean_energetics_for_gate, optimize_gate)
from .stats import (EnsembleStats, FtLogRatio, efficiency_distribution,
                    fold_ensemble, ft_log_ratio, power_scan,
                    reconstruct_from_events)
from .thermo import (ConfigError, EngineConfig, classify_regime, efficiencies,
                     mean_energetics, omega_star, post_swap_betas, relaxation_time)
from .trajectory import Protocol, pick_lane, run_ensemble

_DEFAULTS = {
    "beta1": 2.0 / 3.0,
    "beta2": 1.0,
    "omega1": 1.0,
    "omega2": 5.0 / 6.0,
    "gamma": 1.0,
    "gate": "swap",
    "pulses": 100,
    "tau2": None,                 # resolved to 0.65 if no relax multiple either
    "tau2_relax_multiple": None,
    "samples": 10000,
    "seed": 1,
    "out_dir": "out",
    "emit_logs": False,
    "json": False,
}

_KEY_TYPES = {
    "beta1": float, "beta2": float, "omega1": float, "omega2": float,
    "gamma": float, "gate": str, "pulses": int, "tau2": float,
    "tau2_relax_multiple": float, "samples": int, "seed": int,
    "out_dir": str, "emit_logs": bool, "json": bool,
}

_FALLBACK_TAU2 = 0.65


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def parse_config_file(path: str | Path) -> dict:
    """Read a flat `key = value` config file, rejecting unknown keys."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _KEY_TYPES:
                raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{line_no}: duplicate config key {key!r}")
            caster = _parse_bool if _KEY_TYPES[key] is bool else _KEY_TYPES[key]
            try:
                values[key] = caster(value)
            except ValueError:
                raise ConfigError(
                    f"{path}:{line_no}: bad value {value!r} for key {key!r}") from None
    return values


def parse_gate_spec(text: str) -> GateSpec:
    """Gate syntax: swap | iswap | swap:p1,p2,p3,p4 | generic:a1,...,a15."""
    name, _, arg = text.partition(":")
    try:
        if name == "swap" and not arg:
            return SwapFamily()
        if name == "iswap" and not arg:
            return ISwap()
        if name == "swap":
            phases = tuple(float(v) for v in arg.split(","))
            if len(phases) != 4:
                raise ConfigError(f"swap gate needs 4 phases, got {len(phases)}")
            return SwapFamily(*phases)
        if name == "generic":
            angles = tuple(float(v) for v in arg.split(","))
            if len(angles) != 15:
                raise ConfigError(f"generic gate needs 15 angles, got {len(angles)}")
            return Generic(angles)
    except ValueError:
        raise ConfigError(f"bad gate angle list in {text!r}") from None
    raise ConfigError(f"unknown gate {text!r} (use swap | iswap | swap:p1,p2,p3,p4"
                      " | generic:a1,...,a15)")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: physics, gate, schedule, and run knobs."""

    engine: EngineConfig
    gate_spec: GateSpec
    gate_text: str
    n_pulses: int
    tau2: float
    samples: int
    seed: int
    out_dir: str
    emit_logs: bool
    json_mode: bool

    @property
    def protocol(self) -> Protocol:
        return Protocol(n_pulses=self.n_pulses, tau2=self.tau2)

    def echo(self) -> dict:
        """Flat config-file form of this run; re-parses to an equivalent RunConfig."""
        return {
            "beta1": self.engine.beta1,
            "beta2": self.engine.beta2,
            "omega1": self.engine.omega1,
            "omega2": self.engine.omega2,
            "gamma": self.engine.gamma,
            "gate": self.gate_text,
            "pulses": self.n_pulses,
            "tau2": self.tau2,
            "samples": self.samples,
            "seed": self.seed,
            "out_dir": self.out_dir,
            "emit_logs": self.emit_logs,
            "json": self.json_mode,
        }


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and flag overrides into a RunConfig."""
    values = dict(_DEFAULTS)
    explicit = set()
    if getattr(args, "config", None):
        file_values = parse_config_file(args.config)
        values.update(file_values)
        explicit |= set(file_values)
    for key in _KEY_TYPES:
        flag = getattr(args, key, None)
        if flag is not None and flag is not False:
            values[key] = flag
            explicit.add(key)
    engine = EngineConfig(beta1=values["beta1"], beta2=values["beta2"],
                          omega1=values["omega1"], omega2=values["omega2"],
                          gamma=values["gamma"])
    if "tau2" in explicit and "tau2_relax_multiple" in explicit:
        raise ConfigError("give either tau2 or tau2_relax_multiple, not both")
    if values["tau2_relax_multiple"] is not None:
        tau2 = values["tau2_relax_multiple"] * relaxation_time(engine)
    elif values["tau2"] is not None:
        tau2 = values["tau2"]
    else:
        tau2 = _FALLBACK_TAU2
    if values["samples"] < 1:
        raise ConfigError(f"samples must be >= 1, got {values['samples']}")
    if values["pulses"] < 0:
        raise ConfigError(f"pulses must be >= 0, got {values['pulses']}")
    if values["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {values['seed']}")
    return RunConfig(
        engine=engine,
        gate_spec=parse_gate_spec(values["gate"]),
        gate_text=values["gate"],
        n_pulses=values["pulses"],
        tau2=tau2,
        samples=values["samples"],
        seed=values["seed"],
        out_dir=values["out_dir"],
        emit_logs=bool(values["emit_logs"]),
        json_mode=bool(values["json"]),
    )


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = ["" if c is None else _fmt(c) if isinstance(c, float) else str(c)
                     for c in row]
            fh.write(",".join(cells) + "\n")


def _json_text(payload) -> str:
    """Every JSON output's text: strict JSON with sorted keys."""
    try:
        return json.dumps(payload, allow_nan=False, sort_keys=True, indent=2)
    except ValueError as exc:   # a NaN or infinity, which strict JSON lacks
        raise ConfigError(f"a result is out of the float range: {exc}") from None


def _print_human(pairs: Sequence[tuple[str, object]]) -> None:
    width = max(len(k) for k, _ in pairs)
    for key, value in pairs:
        print(f"{key.ljust(width)}  {value}")


def cmd_analytic(rc: RunConfig, scan: str | None) -> int:
    cfg = rc.engine
    me = mean_energetics(cfg)
    eff = efficiencies(cfg)
    b1p, b2p = post_swap_betas(cfg)
    report = {
        "config": rc.echo(),
        "regime": classify_regime(cfg).value,
        "per_pulse": {"dE1": me.dE1, "dE2": me.dE2, "w": me.w},
        "efficiencies": {
            "eta": eff.eta, "eta_carnot": eff.eta_carnot, "cop": eff.cop,
            "cop_carnot": eff.cop_carnot, "eta_ca": eff.eta_ca,
        },
        "post_swap_betas": [b1p, b2p],
        "relaxation_time": relaxation_time(cfg),
    }
    if 0.0 < cfg.beta1 < cfg.beta2:
        mp = omega_star(cfg.beta1, cfg.beta2)
        report["max_power"] = {"omega_ratio": mp.omega_ratio,
                               "eta_star": mp.eta_star, "w_max": mp.w_max}
    else:
        report["max_power"] = None
    if scan is not None:
        report["scan"] = _eta_mp_scan(cfg, scan)
    if rc.json_mode:
        print(_json_text(report))
        return 0
    pairs = [
        ("regime", report["regime"]),
        ("per-pulse dE1", _fmt(me.dE1)),
        ("per-pulse dE2", _fmt(me.dE2)),
        ("per-pulse w", _fmt(me.w)),
        ("eta", _fmt(eff.eta)),
        ("eta_carnot", _fmt(eff.eta_carnot)),
        ("cop", "undefined (omega2 >= omega1)" if eff.cop is None else _fmt(eff.cop)),
        ("cop_carnot", "undefined (beta1 = beta2)" if eff.cop_carnot is None
         else _fmt(eff.cop_carnot)),
        ("eta_ca", _fmt(eff.eta_ca)),
        ("post-swap beta1'", _fmt(b1p)),
        ("post-swap beta2'", _fmt(b2p)),
        ("relaxation time", _fmt(relaxation_time(cfg))),
    ]
    if report["max_power"] is None:
        pairs.append(("max power", "skipped (needs 0 < beta1 < beta2)"))
    else:
        pairs.extend([("omega* (max power)", _fmt(report["max_power"]["omega_ratio"])),
                      ("eta*  (max power)", _fmt(report["max_power"]["eta_star"])),
                      ("w_max per pulse", _fmt(report["max_power"]["w_max"]))])
    _print_human(pairs)
    if scan is not None:
        print("beta2,eta_carnot,omega_star,eta_star,eta_ca,w_max")
        for row in report["scan"]:
            print(",".join(_fmt(row[k]) for k in
                           ("beta2", "eta_carnot", "omega_star", "eta_star",
                            "eta_ca", "w_max")))
    return 0


def _eta_mp_scan(cfg: EngineConfig, scan: str) -> list[dict]:
    """Efficiency-at-max-power table over a cold-bath beta2 grid.

    Grid syntax lo:hi:count for beta2 values; "auto" sweeps Carnot
    efficiencies 0.05..0.95 at fixed beta1.
    """
    if scan == "auto":
        etas = np.linspace(0.05, 0.95, 19)
        beta2_grid = [cfg.beta1 / (1.0 - e) for e in etas]
    else:
        try:
            lo_s, hi_s, n_s = scan.split(":")
            lo, hi, count = float(lo_s), float(hi_s), int(n_s)
        except ValueError:
            raise ConfigError(f"bad scan grid {scan!r}, expected lo:hi:count") from None
        if not (cfg.beta1 < lo < hi and count >= 2):
            raise ConfigError("scan grid must satisfy beta1 < lo < hi with count >= 2")
        beta2_grid = list(np.linspace(lo, hi, count))
    rows = []
    for beta2 in beta2_grid:
        mp = omega_star(cfg.beta1, beta2)
        rows.append({
            "beta2": beta2,
            "eta_carnot": 1.0 - cfg.beta1 / beta2,
            "omega_star": mp.omega_ratio,
            "eta_star": mp.eta_star,
            "eta_ca": 1.0 - math.sqrt(cfg.beta1 / beta2),
            "w_max": mp.w_max,
        })
    return rows


def _stats_summary(rc: RunConfig, stats: EnsembleStats,
                   ratio: FtLogRatio | None, lane: str) -> dict:
    mean_dE1, se_dE1 = stats.mean_dE1
    mean_dE2, se_dE2 = stats.mean_dE2
    mean_w, se_w = stats.mean_w
    mean_q1, se_q1 = stats.mean_q1
    mean_q2, se_q2 = stats.mean_q2
    ift, ift_se = stats.integral_ft_estimate
    return {
        "config": rc.echo(),
        "engine_lane": lane,
        "sample_size": stats.sample_size,
        "means": {
            "dE1": [mean_dE1, se_dE1], "dE2": [mean_dE2, se_dE2],
            "w": [mean_w, se_w], "q1": [mean_q1, se_q1], "q2": [mean_q2, se_q2],
        },
        "integral_ft": [ift, ift_se],
        "log_ratio_slope": None if ratio is None else [ratio.slope, ratio.slope_se],
        "eta_infinite": stats.eta_infinite,
        "eta_undefined": stats.eta_undefined,
        "rigidity_violations": stats.rigidity_violations,
        "quantization_violations": stats.quantization_violations,
    }


def cmd_simulate(rc: RunConfig) -> int:
    out = Path(rc.out_dir)
    lane = pick_lane(rc.gate_spec, keep_events=rc.emit_logs)
    if rc.emit_logs:
        # run_ensemble checks its arguments here, before any folder is made
        records = run_ensemble(rc.engine, rc.protocol, rc.gate_spec, rc.samples,
                               rc.seed, keep_events=True, engine=lane)
        stats = EnsembleStats()
        log_dir = out / "events"
        log_dir.mkdir(parents=True, exist_ok=True)
        width = max(5, len(str(rc.samples - 1)))
        for k, record in enumerate(records):
            write_events(log_dir / f"trajectory_{k:0{width}d}.log", record.events)
            stats.add(record)
    else:
        stats = fold_ensemble(rc.engine, rc.protocol, rc.gate_spec, rc.samples,
                              rc.seed)
    # every read-off is taken before the first artifact is written, so a
    # refused result leaves no partial output
    ratio: FtLogRatio | None
    try:
        ratio = ft_log_ratio(stats)
    except ConfigError:
        ratio = None
    tables = []
    if stats.quantized:
        dist = efficiency_distribution(stats)
        tables += [
            ("hist_nw.csv", ("n_w", "count"), sorted(stats.hist_nw.items())),
            ("hist_joint.csv", ("q1_quanta", "w_quanta", "count"),
             [(h, m, c) for (h, m), c in sorted(stats.hist_joint.items())]),
            ("hist_eta.csv", ("eta_lo", "eta_hi", "count"),
             [(i * dist.bin_width, (i + 1) * dist.bin_width, c) for i, c in dist.bins]),
        ]
    if ratio is not None:
        tables.append(("log_ratio.csv", ("n_w", "log_ratio", "std_error"),
                       list(ratio.points)))
    summary_text = _json_text(_stats_summary(rc, stats, ratio, lane))
    out.mkdir(parents=True, exist_ok=True)
    for name, header, rows in tables:
        _write_csv(out / name, header, rows)
    summary_path = out / "summary.json"
    summary_path.write_text(summary_text + "\n", encoding="utf-8", newline="\n")
    print(summary_text if rc.json_mode else str(summary_path))
    return 0


def cmd_power_scan(rc: RunConfig, t_op_multiple: float, n_list: str) -> int:
    try:
        n_values = [int(v) for v in n_list.split(",")]
    except ValueError:
        raise ConfigError(f"bad pulse-count list {n_list!r}") from None
    rows = power_scan(rc.engine, t_op_multiple, n_values, rc.samples, rc.seed)
    out = Path(rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "power_scan.csv"
    _write_csv(csv_path,
               ("n_pulses", "tau2", "work_output", "work_se", "power", "eta"),
               [(r.n_pulses, r.tau2, r.work_output, r.work_se, r.power, r.eta)
                for r in rows])
    if rc.json_mode:
        print(_json_text({
            "config": rc.echo(),
            "t_op_multiple": t_op_multiple,
            "rows": [{"n_pulses": r.n_pulses, "tau2": r.tau2,
                      "work_output": r.work_output, "work_se": r.work_se,
                      "power": r.power, "eta": r.eta} for r in rows],
        }))
    else:
        print(str(csv_path))
    return 0


def cmd_opt_gate(rc: RunConfig, restarts: int) -> int:
    result = optimize_gate(rc.engine)
    me_swap = mean_energetics(rc.engine)
    best = mean_energetics_for_gate(build_gate(Generic(result.best_angles)), rc.engine)
    report = {
        "config": rc.echo(),
        "restarts": restarts,
        "best_w": result.best_w,
        "best_angles": list(result.best_angles),
        "gap_to_swap": result.gap_to_swap,
        "swap_work_output": -me_swap.w,
        "optimum": {
            "dE1": best.dE1, "dE2": best.dE2, "w": best.w,
            # work extracted over heat drawn from the hot side: both are
            # negative in the engine regime, so the ratio is taken directly
            "eta": None if best.dE1 == 0 else best.w / best.dE1,
        },
    }
    out = Path(rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "opt_gate.json").write_text(_json_text(report) + "\n",
                                       encoding="utf-8", newline="\n")
    print(_json_text(report))
    return 0


def cmd_analyze(rc: RunConfig, paths: list[str], naive: bool) -> int:
    protocol = None if naive else rc.protocol
    omegas = rc.engine.omega1, rc.engine.omega2
    rows = []
    for path in paths:
        events = parse_events(path)
        jumps = [ev for ev in events if ev.kind != "P"]
        rec = reconstruct_from_events(jumps, rc.engine, protocol)
        e = rec.naive.energetics(*omegas)
        rows.append({
            "file": path,
            "q1": e.q1, "q2": e.q2, "dE1": e.dE1, "dE2": e.dE2, "w": e.w,
            "n_w": None if rec.refined is None else rec.refined.n_w,
            "w_refined": None if rec.refined is None else rec.refined.energetics(*omegas).w,
            "survivors": rec.survivors,
        })
    out = Path(rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "reconstruction.csv",
               ("file", "q1", "q2", "dE1", "dE2", "w", "n_w", "w_refined",
                "survivors"),
               [(r["file"], r["q1"], r["q2"], r["dE1"], r["dE2"], r["w"],
                 r["n_w"], r["w_refined"], r["survivors"]) for r in rows])
    if rc.json_mode:
        print(_json_text({"config": rc.echo(), "trajectories": rows}))
    else:
        for r in rows:
            w_ref = "n/a" if r["w_refined"] is None else _fmt(r["w_refined"])
            print(f"{r['file']}: q1={_fmt(r['q1'])} q2={_fmt(r['q2'])} "
                  f"w={_fmt(r['w'])} w_refined={w_ref} survivors={r['survivors']}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--seed", type=int, help="master seed for per-trajectory streams")
    common.add_argument("--samples", type=int, help="ensemble size M")
    common.add_argument("--pulses", type=int, help="number of gate pulses N")
    common.add_argument("--tau2", type=float, help="time between pulses")
    common.add_argument("--tau2-relax-multiple", dest="tau2_relax_multiple",
                        type=float, help="tau2 as a multiple of the relaxation time")
    common.add_argument("--out-dir", dest="out_dir", help="artifact directory")
    common.add_argument("--emit-logs", dest="emit_logs", action="store_true",
                        default=None, help="write one event log per trajectory")
    common.add_argument("--json", dest="json", action="store_true", default=None,
                        help="print the JSON report instead of the human one")
    common.add_argument("--beta1", type=float, help="hot-bath inverse temperature")
    common.add_argument("--beta2", type=float, help="cold-bath inverse temperature")
    common.add_argument("--omega1", type=float, help="qubit-1 level spacing")
    common.add_argument("--omega2", type=float, help="qubit-2 level spacing")
    common.add_argument("--gamma", type=float, help="bare relaxation rate")
    common.add_argument("--gate", help="swap | iswap | swap:p1,p2,p3,p4 | generic:a1,...,a15")

    parser = argparse.ArgumentParser(
        prog="swapengine",
        description="Two-qubit swap heat engine: closed forms, quantum-jump "
                    "ensembles, fluctuation statistics.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_analytic = sub.add_parser("analytic", parents=[common],
                                help="closed-form report for one configuration")
    p_analytic.add_argument("--scan-eta-mp", nargs="?", const="auto", default=None,
                            metavar="LO:HI:COUNT",
                            help="also sweep beta2 and tabulate eta* vs eta_C")
    sub.add_parser("simulate", parents=[common],
                   help="run a trajectory ensemble and write its statistics")
    p_scan = sub.add_parser("power-scan", parents=[common],
                            help="work output vs pulse count at fixed operation time")
    p_scan.add_argument("--t-op-multiple", dest="t_op_multiple", type=float,
                        default=30.0, help="operation time in relaxation times")
    p_scan.add_argument("--n-list", dest="n_list",
                        default="1,2,5,10,20,50,100,200",
                        help="comma-separated pulse counts, ascending")
    p_opt = sub.add_parser("opt-gate", parents=[common],
                           help="exact best work output over the full gate space")
    p_opt.add_argument("--restarts", type=int, default=50,
                       help="ignored, since the optimum is exact; echoed in opt_gate.json")
    p_analyze = sub.add_parser("analyze", parents=[common],
                               help="reconstruct energetics from event logs")
    p_analyze.add_argument("logs", nargs="+", help="event-log files")
    p_analyze.add_argument("--naive", action="store_true",
                           help="skip the schedule-aware refinement")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        rc = resolve_config(args)
        if args.command == "analytic":
            return cmd_analytic(rc, args.scan_eta_mp)
        if args.command == "simulate":
            return cmd_simulate(rc)
        if args.command == "power-scan":
            return cmd_power_scan(rc, args.t_op_multiple, args.n_list)
        if args.command == "opt-gate":
            return cmd_opt_gate(rc, args.restarts)
        if args.command == "analyze":
            return cmd_analyze(rc, args.logs, args.naive)
        raise AssertionError(f"unhandled command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
