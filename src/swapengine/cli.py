"""Command-line front end: config resolution, subcommands, artifact writers.

Every subcommand is a pure function of (config file + flags + seed) to
output bytes: CSV cells carry 17 significant digits so float64 values
round-trip, JSON is emitted with sorted keys, and ensembles are seeded
per-trajectory, so rerunning an invocation reproduces its artifacts byte for
byte.

Config files are flat `key = value` lines with `#` comments; unknown keys
are rejected.  Flags override file values, which override the built-in
defaults.  The table KEYS is the home of every key: its type, its default
(the documented two-bath engine example: beta1=2/3, beta2=1, omega1=1,
omega2=5/6, 100 pulses at tau2=0.65) and its flag's help; CONFIG_FLAG and
COMMANDS hold the other arguments.  Plain command lines are read off these
tables directly; argparse, imported for the rest alone, builds its parsers
from the same tables and serves help, errors and abbreviations.

Only the commands that sample (simulate, power-scan and analyze) load the
stats and trajectory modules, and numpy with them, when they start
(_load_samplers), so analytic and opt-gate run without numpy.

Exit codes: 0 success, 2 configuration error, 3 I/O failure or exhausted
memory, 4 event-log parse error, 5 broken internal check (such as
work-lattice rigidity).
"""

from __future__ import annotations

import importlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from .eventlog import ParseError, parse_events, write_events
from .gates import ISWAP, Generic, GateSpec, SwapFamily, optimize_gate
from .thermo import (ConfigError, EngineConfig, MaxPowerPoint, Protocol, classify_regime,
                     efficiencies, low_etaC_expansion, mean_energetics, omega_star,
                     post_swap_betas, relaxation_time)

if TYPE_CHECKING:
    import argparse

    from .stats import (ETA_BIN_WIDTH, EfficiencyDistribution, EnsembleStats, FtLogRatio,
                        PowerScanRow, ReadOff, check_eta_bins, check_swap_family,
                        efficiency_distribution, fold_ensemble, ft_log_ratio, power_scan,
                        reconstruct_from_events)
    from .trajectory import _tilted_moment, pick_lane, run_ensemble

# the names that the commands which sample call, by the module that defines
# them, which loads numpy: _load_samplers binds them here
_SAMPLERS = {
    "stats": ("ETA_BIN_WIDTH", "EnsembleStats", "PowerScanRow", "check_eta_bins",
              "check_swap_family", "efficiency_distribution", "fold_ensemble",
              "ft_log_ratio", "power_scan", "reconstruct_from_events"),
    "trajectory": ("_tilted_moment", "pick_lane", "run_ensemble"),
}


def _load_samplers() -> None:
    """Bind the names of _SAMPLERS in this module, keeping any already bound,
    such as a wrapper put in a name's place before the command ran."""
    for home, names in _SAMPLERS.items():
        module = importlib.import_module(f".{home}", __package__)
        for name in names:
            globals().setdefault(name, getattr(module, name))


def __getattr__(name: str):
    if any(name in names for names in _SAMPLERS.values()):
        _load_samplers()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

# key -> (type, default, flag help), in the README's flag order: the one home
# of every config key, which gives the defaults, the config-file typing, the
# --key-name flags and the echo
KEYS: dict[str, tuple[type, object, str]] = {
    "beta1": (float, 2.0 / 3.0, "hot-bath inverse temperature"),
    "beta2": (float, 1.0, "cold-bath inverse temperature"),
    "omega1": (float, 1.0, "qubit-1 level spacing"),
    "omega2": (float, 5.0 / 6.0, "qubit-2 level spacing"),
    "gamma": (float, 1.0, "bare relaxation rate"),
    "gate": (str, "swap", "swap | iswap | swap:p1,p2,p3,p4 | generic:a1,...,a15"),
    "pulses": (int, 100, "number of gate pulses N"),
    "tau2": (float, 0.65, "time between pulses"),
    "tau2_relax_multiple": (float, None, "tau2 as a multiple of the relaxation time"),
    "samples": (int, 10000, "ensemble size M"),
    "seed": (int, 1, "master seed for per-trajectory streams"),
    "out_dir": (str, "out", "artifact directory"),
    "emit_logs": (bool, False, "write one event log per trajectory"),
    "json": (bool, False, "print the JSON report instead of the human one"),
}

# --config, which every command takes, as add_argument keywords:
# _build_parser declares it and _read_plain reads it from here, as they
# read COMMANDS
CONFIG_FLAG = {"--config": {"help": "flat key = value config file"}}


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
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # count lines as the loop below splits them, by universal newlines
        head = io.StringIO(data[:exc.start].decode("utf-8"), newline=None).getvalue()
        line_no = head.count("\n") + 1
        raise ConfigError(f"{path}:{line_no}: invalid UTF-8 byte "
                          f"{data[exc.start]:#04x}") from None
    with io.StringIO(text, newline=None) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in KEYS:
                raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{line_no}: duplicate config key {key!r}")
            kind = KEYS[key][0]
            caster = _parse_bool if kind is bool else kind
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
            return ISWAP
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
    except ValueError as exc:   # a wrong count is named, a bad value shows in the text
        detail = f": {exc}" if isinstance(exc, ConfigError) else ""
        raise ConfigError(f"bad gate angle list in {text!r}{detail}") from None
    raise ConfigError(f"unknown gate {text!r} (use swap | iswap | swap:p1,p2,p3,p4"
                      " | generic:a1,...,a15)")


class RunConfig(NamedTuple):
    """Fully resolved invocation: the value of every key of KEYS but
    tau2_relax_multiple (tau2 holds the resolved interval), and the engine,
    gate and pulse schedule built from them."""

    values: dict
    engine: EngineConfig
    gate: GateSpec
    protocol: Protocol

    def echo(self) -> dict:
        """Flat config-file form of this run; re-parses to an equivalent RunConfig."""
        return dict(self.values)


def resolve_config(args: argparse.Namespace | SimpleNamespace) -> RunConfig:
    """Merge defaults, config file, and flag overrides into a RunConfig."""
    explicit = parse_config_file(args.config) if args.config else {}
    explicit.update((key, flag) for key, flag in vars(args).items()
                    if key in KEYS and flag is not None)
    values = {key: default for key, (_, default, _) in KEYS.items()} | explicit
    engine = EngineConfig(**{name: values[name] for name in EngineConfig._fields})
    if "tau2" in explicit and "tau2_relax_multiple" in explicit:
        raise ConfigError("give either tau2 or tau2_relax_multiple, not both")
    multiple = values.pop("tau2_relax_multiple")
    if multiple is not None:
        values["tau2"] = multiple * relaxation_time(engine)
    for key, low in (("samples", 1), ("pulses", 0), ("seed", 0)):
        if values[key] < low:
            raise ConfigError(f"{key} must be >= {low}, got {values[key]}")
    gate = parse_gate_spec(values["gate"])
    # every command echoes tau2, so every command builds the schedule that checks it
    return RunConfig(values, engine, gate, Protocol(values["pulses"], values["tau2"]))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv_cell(cell) -> str:
    """A cell's CSV text: a float to 17 digits, None empty, and text quoted as
    RFC 4180 asks where it holds a comma, a double quote or a line break."""
    if cell is None:
        return ""
    if isinstance(cell, float):
        return _fmt(cell)
    if isinstance(cell, str) and ("," in cell or '"' in cell or "\r" in cell or "\n" in cell):
        return '"' + cell.replace('"', '""') + '"'
    return str(cell)


def _write_csv(path: Path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_csv_cell, row)) + "\n")


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


def cmd_analytic(rc: RunConfig, args: argparse.Namespace | SimpleNamespace) -> int:
    cfg, scan = rc.engine, args.scan_eta_mp
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
    # the engine window in omega_star's units, which holds at beta1 < beta2
    # unless a product leaves the float range or rounds onto the other
    if cfg.beta1 * cfg.omega1 < cfg.beta2 * cfg.omega1 < math.inf:
        mp = _max_power(cfg, cfg.beta2)
        report["max_power"] = {"omega_ratio": mp.omega_ratio,
                               "eta_star": mp.eta_star, "w_max": mp.w_max,
                               "low_etaC_expansion":
                                   low_etaC_expansion(cfg.beta2 * cfg.omega1)._asdict()}
    else:
        report["max_power"] = None
    if scan is not None:
        report["scan"] = _eta_mp_scan(cfg, scan)
    if rc.values["json"]:
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
        window = "0 < beta1 < beta2" if cfg.beta1 >= cfg.beta2 else \
            "beta1*omega1 < beta2*omega1 < inf in floats"
        pairs.append(("max power", f"skipped (needs {window})"))
    else:
        pairs.extend([("omega* (max power)", _fmt(report["max_power"]["omega_ratio"])),
                      ("eta*  (max power)", _fmt(report["max_power"]["eta_star"])),
                      ("w_max per pulse", _fmt(report["max_power"]["w_max"]))])
    _print_human(pairs)
    if scan is not None:
        print(",".join(report["scan"][0]))   # the columns, in the rows' order
        for row in report["scan"]:
            print(",".join(_fmt(v) for v in row.values()))
    return 0


def _max_power(cfg: EngineConfig, beta2: float) -> MaxPowerPoint:
    """The maximum-power point of cfg's engine at cold-bath beta2: omega_star
    takes omega1 as the energy unit, so it gets the products beta*omega1,
    and w_max returns to the engine's energy units."""
    mp = omega_star(cfg.beta1 * cfg.omega1, beta2 * cfg.omega1)
    return mp._replace(w_max=mp.w_max * cfg.omega1)


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    """numpy.linspace(lo, hi, count) for count >= 2, bit for bit: i*step + lo,
    or i/(count - 1)*(hi - lo) + lo where the step underflows to 0, then hi."""
    div = count - 1
    delta = hi - lo
    step = delta / div
    return [(i * step if step else i / div * delta) + lo for i in range(div)] + [hi]


def _eta_mp_scan(cfg: EngineConfig, scan: str) -> list[dict]:
    """Efficiency-at-max-power table over a cold-bath beta2 grid.

    Grid syntax lo:hi:count for beta2 values; "auto" sweeps Carnot
    efficiencies 0.05..0.95 at fixed beta1.
    """
    if scan == "auto":
        beta2_grid = [cfg.beta1 / (1.0 - e) for e in _linspace(0.05, 0.95, 19)]
    else:
        try:
            lo_s, hi_s, n_s = scan.split(":")
            lo, hi, count = float(lo_s), float(hi_s), int(n_s)
        except ValueError:
            raise ConfigError(f"bad scan grid {scan!r}, expected lo:hi:count") from None
        # the same window as the report's, at the grid's ends
        if not (cfg.beta1 * cfg.omega1 < lo * cfg.omega1 < hi * cfg.omega1 < math.inf
                and count >= 2):
            raise ConfigError("scan grid must satisfy beta1 < lo < hi < inf with count >= 2")
        beta2_grid = _linspace(lo, hi, count)
    rows = []
    for beta2 in beta2_grid:
        mp = _max_power(cfg, beta2)
        rows.append({
            "beta2": beta2,
            "eta_carnot": 1.0 - cfg.beta1 / beta2,
            "omega_star": mp.omega_ratio,
            "eta_star": mp.eta_star,
            "eta_ca": 1.0 - math.sqrt(cfg.beta1 / beta2),
            "w_max": mp.w_max,
        })
    return rows


def _stats_summary(rc: RunConfig, read: ReadOff, ratio: FtLogRatio | None,
                   dist: EfficiencyDistribution | None, lane: str) -> dict:
    return {
        "config": rc.echo(),
        "engine_lane": lane,
        "sample_size": read.sample_size,
        "means": {"dE1": list(read.dE1), "dE2": list(read.dE2), "w": list(read.w),
                  "q1": list(read.q1), "q2": list(read.q2)},
        "integral_ft": [read.integral_ft.mean, read.integral_ft.std_err],
        "log_ratio_slope": None if ratio is None else [ratio.slope, ratio.slope_se],
        "eta_infinite": None if dist is None else dist.infinite,
        "eta_undefined": None if dist is None else dist.undefined,
        "rigidity_violations": read.rigidity_violations,
        "quantization_violations": read.quantization_violations,
    }


def _ift_warning(rc: RunConfig, read: ReadOff) -> str | None:
    """Why the integral-FT estimate of a run cannot be trusted, or None.

    On swap-family runs the weight is W = exp(-a*n_w), a = beta1*omega1 -
    beta2*omega2, and its exact E[W^2] = E[exp(-2a*n_w)] is known before
    sampling: the estimate's expected relative standard error is
    sqrt((E[W^2] - 1)/n), so n < E[W^2] - 1 trajectories (or an E[W^2]
    beyond the float range) cannot resolve it, whatever the seed.  On
    generic gates, where no exact moment is at hand, the estimate is
    flagged when one ledger carries over half of its weight sum."""
    if not isinstance(rc.gate, SwapFamily):
        ift = read.integral_ft
        return (f"the integral-FT estimate rests on one ledger, {ift.top}, which carries "
                f"{ift.share:.0%} of its weight sum") if ift.share > 0.5 else None
    cfg = rc.engine
    second = _tilted_moment(cfg, rc.protocol,
                            -2.0 * (cfg.beta1 * cfg.omega1 - cfg.beta2 * cfg.omega2))
    if read.sample_size >= second - 1.0:
        return None
    shown = f"= {second:.3g}" if math.isfinite(second) else "beyond the float range"
    return (f"the integral-FT weight has E[W^2] {shown} on this run, so its estimate "
            f"needs more than E[W^2] - 1 trajectories, and the run drew {read.sample_size}")


def cmd_simulate(rc: RunConfig, args: argparse.Namespace | SimpleNamespace) -> int:
    _load_samplers()
    check_eta_bins(rc.engine, rc.protocol, rc.gate)
    # staged on the output folder's file system, so a refusal changes nothing there
    out = Path(rc.values["out_dir"])
    home = next(p for p in (out, *out.absolute().parents) if p.is_dir())
    with tempfile.TemporaryDirectory(prefix=".swapengine-run-", dir=home) as staging:
        return _simulate(rc, out, Path(staging))


def _simulate(rc: RunConfig, out: Path, staged: Path) -> int:
    """simulate: every output goes to the empty folder staged, then into out."""
    v, cfg = rc.values, rc.engine
    lane = pick_lane(rc.gate, keep_events=v["emit_logs"])
    logs = staged / "events"
    if v["emit_logs"]:
        records = run_ensemble(cfg, rc.protocol, rc.gate, v["samples"], v["seed"],
                               keep_events=True, engine=lane)
        stats = EnsembleStats()
        logs.mkdir()
        width = max(5, len(str(v["samples"] - 1)))
        for k, record in enumerate(records):
            write_events(logs / f"trajectory_{k:0{width}d}.log", record.events)
            stats.add(record)
    else:
        stats = fold_ensemble(cfg, rc.protocol, rc.gate, v["samples"], v["seed"])
    read = stats.read_off()
    ratio: FtLogRatio | None
    try:
        ratio = ft_log_ratio(read)
    except ConfigError:
        ratio = None
    dist = efficiency_distribution(read, cfg) if stats.quantized else None
    # (name, header, rows), with rows None where the run cannot read the table off
    tables = [
        ("hist_nw.csv", ("n_w", "count"), dist and sorted(read.hist_nw.items())),
        ("hist_joint.csv", ("q1_quanta", "w_quanta", "count"),
         dist and [(h, m, c) for (h, m), c in sorted(read.hist_joint.items())]),
        ("hist_eta.csv", ("eta_lo", "eta_hi", "count"),
         dist and [(i * ETA_BIN_WIDTH, (i + 1) * ETA_BIN_WIDTH, c) for i, c in dist.bins]),
        ("log_ratio.csv", ("n_w", "log_ratio", "std_error"), ratio and list(ratio.points)),
    ]
    summary_text = _json_text(_stats_summary(rc, read, ratio, dist, lane))
    for name, header, rows in tables:
        if rows is not None:
            _write_csv(staged / name, header, rows)
    (staged / "summary.json").write_text(summary_text + "\n", encoding="utf-8", newline="\n")
    # each file written replaces its namesake; a table without rows removes an
    # earlier run's, and new logs remove old ones but leave other files in events/
    out.mkdir(parents=True, exist_ok=True)
    if v["emit_logs"] and (out / "events").exists():
        for log in (out / "events").glob("trajectory_*.log"):
            log.unlink()
        for log in logs.iterdir():
            log.replace(out / "events" / log.name)
    elif v["emit_logs"]:
        logs.rename(out / "events")
    for name in [*(name for name, _, _ in tables), "summary.json"]:
        if (staged / name).exists():
            (staged / name).replace(out / name)
        else:
            (out / name).unlink(missing_ok=True)
    warning = _ift_warning(rc, read)
    if warning:
        print(f"warning: {warning}; its standard error does not bound how far the "
              "estimate is from 1", file=sys.stderr)
    print(summary_text if v["json"] else str(out / "summary.json"))
    return 0


def cmd_power_scan(rc: RunConfig, args: argparse.Namespace | SimpleNamespace) -> int:
    _load_samplers()
    check_swap_family(rc.gate, "the power scan")
    try:
        n_values = [int(n) for n in args.n_list.split(",")]
    except ValueError:
        raise ConfigError(f"bad pulse-count list {args.n_list!r}") from None
    v = rc.values
    rows = power_scan(rc.engine, args.t_op_multiple, n_values, v["samples"], v["seed"])
    out = Path(v["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "power_scan.csv"
    # PowerScanRow's fields, in order, are the columns
    _write_csv(csv_path, PowerScanRow._fields, rows)
    if v["json"]:
        print(_json_text({"config": rc.echo(), "t_op_multiple": args.t_op_multiple,
                          "rows": [row._asdict() for row in rows]}))
    else:
        print(str(csv_path))
    return 0


def cmd_opt_gate(rc: RunConfig, args: argparse.Namespace | SimpleNamespace) -> int:
    result = optimize_gate(rc.engine)
    me_swap = mean_energetics(rc.engine)
    best = result.optimum
    report = {
        "config": rc.echo(),
        "restarts": args.restarts,
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
    text = _json_text(report)
    out = Path(rc.values["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "opt_gate.json").write_text(text + "\n", encoding="utf-8", newline="\n")
    print(text)
    return 0


def cmd_analyze(rc: RunConfig, args: argparse.Namespace | SimpleNamespace) -> int:
    _load_samplers()
    if not args.naive:
        check_swap_family(rc.gate, "the schedule-aware refinement", "; use --naive")
    protocol = None if args.naive else rc.protocol
    omegas = rc.engine.omega1, rc.engine.omega2
    rows = []
    for path in args.logs:
        events = parse_events(path)
        jumps = [ev for ev in events if ev.kind != "P"]
        rec = reconstruct_from_events(jumps, rc.engine, protocol)
        e = rec.naive.energetics(*omegas)
        refined = rec.refined
        rows.append({
            "file": path, "q1": e.q1, "q2": e.q2, "dE1": e.dE1, "dE2": e.dE2,
            "w": e.w,
            "n_w": None if refined is None else refined.n_w,
            "w_refined": None if refined is None else refined.energetics(*omegas).w,
            "survivors": rec.survivors,
        })
    out = Path(rc.values["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "reconstruction.csv", rows[0], [r.values() for r in rows])
    if rc.values["json"]:
        print(_json_text({"config": rc.echo(), "trajectories": rows}))
    else:
        for r in rows:
            w_ref = "n/a" if r["w_refined"] is None else _fmt(r["w_refined"])
            print(f"{r['file']}: q1={_fmt(r['q1'])} q2={_fmt(r['q2'])} "
                  f"w={_fmt(r['w'])} w_refined={w_ref} survivors={r['survivors']}")
    return 0


# command -> (help, own arguments as add_argument keywords by flag or
# positional name, handler): _build_parser declares the arguments,
# _read_plain reads them from here, and main calls the handler with the
# resolved config and the parsed arguments
COMMANDS: dict[str, tuple[str, dict[str, dict], Callable[..., int]]] = {
    "analytic": ("closed-form report for one configuration", {
        "--scan-eta-mp": {"nargs": "?", "const": "auto", "default": None,
                          "metavar": "LO:HI:COUNT",
                          "help": "also sweep beta2 and tabulate eta* vs eta_C"},
    }, cmd_analytic),
    "simulate": ("run a trajectory ensemble and write its statistics", {}, cmd_simulate),
    "power-scan": ("work output vs pulse count at fixed operation time", {
        "--t-op-multiple": {"type": float, "default": 30.0,
                            "help": "operation time in relaxation times"},
        "--n-list": {"default": "1,2,5,10,20,50,100,200",
                     "help": "comma-separated pulse counts, ascending"},
    }, cmd_power_scan),
    "opt-gate": ("exact best work output over the full gate space", {
        "--restarts": {"type": int, "default": 50,
                       "help": "ignored, since the optimum is exact; echoed in opt_gate.json"},
    }, cmd_opt_gate),
    "analyze": ("reconstruct energetics from event logs", {
        "logs": {"nargs": "+", "help": "event-log files"},
        "--naive": {"action": "store_true", "help": "skip the schedule-aware refinement"},
    }, cmd_analyze),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """What _build_parser().parse_args(argv) returns, attribute for attribute,
    for a plain command line: a command, then exact flags of KEYS, --config
    and the command's own arguments, each flag with one value that does not
    start with "-" (store-true flags with none), and for analyze one unbroken
    run of logs.  Anything else gives None and is left to argparse: help,
    "--", --flag=value, abbreviations, a value that starts with "-" or fails
    its conversion, --scan-eta-mp, an unknown flag or command, split logs."""
    if not argv or argv[0] not in COMMANDS:
        return None
    own = COMMANDS[argv[0]][1]
    values = dict.fromkeys(KEYS) | {"command": argv[0]}
    # flag -> (dest, type), bool for store-true; flags with nargs are argparse's
    kinds = {_flag(key): (key, kind) for key, (kind, _, _) in KEYS.items()}
    for name, spec in (CONFIG_FLAG | own).items():
        dest = name.lstrip("-").replace("-", "_")
        store_true = spec.get("action") == "store_true"
        values[dest] = spec.get("default", False if store_true else None)
        if "nargs" not in spec:
            kinds[name] = (dest, bool if store_true else spec.get("type", str))
    run = next((name for name in own if not name.startswith("-")), None)
    i = 1
    while i < len(argv):
        if argv[i] not in kinds:   # the run of logs, where the command takes one
            end = i
            while end < len(argv) and not argv[end].startswith("-"):
                end += 1
            if end == i or run is None or values[run] is not None:
                return None
            values[run], i = argv[i:end], end
            continue
        dest, kind = kinds[argv[i]]
        if kind is bool:
            values[dest], i = True, i + 1
            continue
        if i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        try:
            values[dest] = kind(argv[i + 1])
        except ValueError:
            return None
        i += 2
    if run is not None and values[run] is None:
        return None
    return SimpleNamespace(**values)


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command line, or of the given command's own."""
    import argparse   # plain command lines never get here (_read_plain)

    common = argparse.ArgumentParser(add_help=False)
    for key, (kind, _, help_text) in KEYS.items():
        if kind is bool:
            common.add_argument(_flag(key), dest=key, action="store_true", default=None,
                                help=help_text)
        else:
            common.add_argument(_flag(key), dest=key, type=kind, help=help_text)
    for name, spec in CONFIG_FLAG.items():
        common.add_argument(name, **spec)

    parser = argparse.ArgumentParser(
        prog="swapengine",
        description="Two-qubit swap heat engine: closed forms, quantum-jump "
                    "ensembles, fluctuation statistics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, own, _) in COMMANDS.items():
        command_parser = sub.add_parser(name, parents=[common], help=help_text)
        for flag, spec in own.items():
            command_parser.add_argument(flag, **spec)
        if name == command:
            return command_parser
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv)
    if args is None:
        args, extra = _build_parser().parse_known_args(argv)
        if extra:   # with the chosen command's usage, which lists the flags it takes
            _build_parser(args.command).error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        _, _, handler = COMMANDS[args.command]
        return handler(resolve_config(args), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:   # a float ** or math.exp past the float range
        print(f"config error: a result is out of the float range: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
