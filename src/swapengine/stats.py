"""Ensemble statistics, fluctuation-relation estimators, and event-log analysis.

The accumulator is a mergeable exact histogram over each record's integer
ledger key, so shard order can never change a count, and every statistic is
read off the counts: means and errors from exact integer moments (the level
spacings multiply in only then), the integral-FT sum over the sorted keys.
Swap-family runs additionally carry rigidity checks, deterministic in the
key and counted per record: the energy-proportionality identity
dE2 = -(omega2/omega1)*dE1 is tested on the integer ledger, as y = -x, so
no rounding can break it, the work value is tested for exact membership of
the (omega1-omega2) lattice, and violations are counted rather than
silently rebinned.

Work-quanta sign convention: n_w = w/(omega1 - omega2) counts quanta
injected by the work source, so engine operation has negative mean n_w and
the log-ratio slope (beta1*omega1 - beta2*omega2) is negative there.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .gates import GateSpec, SwapFamily
from .thermo import ConfigError, EngineConfig, excited_population, relaxation_time
from .trajectory import (Protocol, RunParams, TrajectoryEvent, TrajectoryRecord,
                         _bit_lane_chunks, pick_lane, run_ensemble, run_params)

ETA_BIN_WIDTH = 0.01


class LedgerKey(NamedTuple):
    """Integer ledger of one record (n_w is None on generic-gate records);
    x and y are the quanta entering subsystems 1 and 2."""

    h1: int
    h2: int
    db1: int
    db2: int
    n_w: int | None

    @property
    def x(self) -> int:
        return self.h1 + self.db1

    @property
    def y(self) -> int:
        return self.h2 + self.db2


@dataclass
class EnsembleStats:
    """Exact, mergeable histogram of one homogeneous ensemble over LedgerKey.

    hist_joint is keyed by exact quantum counts (q1/omega1, w/(omega1-omega2))
    = (h1, n_w); hist_eta bins eta = w/q1 (work output over heat drawn from
    the hot bath) with width 0.01, infinity (q1 = 0, w != 0) and undefined
    (q1 = w = 0) tallied separately so all counts still sum to sample_size;
    eta_exact tallies the reduced rational n_w/h1 so the discrete peaks are
    located without binning error.  Below two records an error is None.
    """

    params: RunParams | None = None
    quantized: bool = True
    counts: Counter = field(default_factory=Counter)

    def add(self, record: TrajectoryRecord) -> None:
        if self.params is None:
            self.params = record.params
            self.quantized = record.n_w is not None
        elif record.params != self.params:
            raise ConfigError("cannot accumulate records from different runs: "
                              f"{record.params} vs {self.params}")
        if (record.n_w is not None) != self.quantized:
            raise ConfigError("cannot mix swap-family and generic-gate records")
        self._insert(LedgerKey(record.h1, record.h2, record.db1, record.db2,
                               record.n_w), 1)

    def _insert(self, key: LedgerKey, count: int) -> None:
        if self.quantized and key not in self.counts:
            m = key.n_w
            if m != key.x or m != -key.y:
                raise AssertionError(f"ledger broken: n_w={m}, x={key.x}, y={key.y}")
            if abs(m - key.h1) > 1:
                raise AssertionError(
                    f"work and bath-1 heat quanta differ by {m - key.h1}")
        self.counts[key] += count

    def merge(self, other: EnsembleStats) -> EnsembleStats:
        """Associative combination of two shards of the same ensemble."""
        if self.params is None:
            self.params = other.params
            self.quantized = other.quantized
        elif other.params not in (None, self.params):
            raise ConfigError("cannot merge stats from different runs")
        self.counts.update(other.counts)
        return self

    @property
    def sample_size(self) -> int:
        return sum(self.counts.values())

    def _moments(self, f: Callable[[LedgerKey], float]) -> tuple[float, float]:
        """Sums of f and f^2 over the records, taken over the sorted keys."""
        s = ss = 0
        for k, c in sorted(self.counts.items()):
            v = f(k)
            s += c * v
            ss += c * v * v
        return s, ss

    def _mean_se(self, s: float, ss: float, scale: float) -> tuple[float, float | None]:
        n = self.sample_size
        mean = scale * (s / n)
        if n < 2:
            return mean, None
        var = (ss - s * s / n) / (n - 1)
        return mean, abs(scale) * math.sqrt(max(var, 0.0) / n)

    def _swap_tally(self, f: Callable[[LedgerKey], object]) -> Counter:
        """Counts of f(key) over swap-family records (None values left out);
        for a predicate f, tally[True] is the number of records it holds on."""
        tally: Counter = Counter()
        for k, c in self.counts.items() if self.quantized else ():
            v = f(k)
            if v is not None:
                tally[v] += c
        return tally

    @property
    def mean_dE1(self) -> tuple[float, float | None]:
        return self._mean_se(*self._moments(lambda k: k.x), self.params.omega1)

    @property
    def mean_dE2(self) -> tuple[float, float | None]:
        return self._mean_se(*self._moments(lambda k: k.y), self.params.omega2)

    @property
    def mean_q1(self) -> tuple[float, float | None]:
        return self._mean_se(*self._moments(lambda k: k.h1), self.params.omega1)

    @property
    def mean_q2(self) -> tuple[float, float | None]:
        return self._mean_se(*self._moments(lambda k: k.h2), self.params.omega2)

    @property
    def mean_w(self) -> tuple[float, float | None]:
        p = self.params
        s_x, ss_x = self._moments(lambda k: k.x)
        if self.quantized:
            return self._mean_se(s_x, ss_x, p.omega1 - p.omega2)
        s_y, ss_y = self._moments(lambda k: k.y)
        s_xy = self._moments(lambda k: k.x * k.y)[0]
        n = self.sample_size
        mean = (p.omega1 * s_x + p.omega2 * s_y) / n
        if n < 2:
            return mean, None
        var_x = (ss_x - s_x ** 2 / n) / (n - 1)
        var_y = (ss_y - s_y ** 2 / n) / (n - 1)
        cov = (s_xy - s_x * s_y / n) / (n - 1)
        var = p.omega1 ** 2 * var_x + p.omega2 ** 2 * var_y \
            + 2.0 * p.omega1 * p.omega2 * cov
        return mean, math.sqrt(max(var, 0.0) / n)

    @property
    def integral_ft_estimate(self) -> tuple[float, float | None]:
        """Mean of exp((beta2-beta1)*dE1 - beta2*w) with its standard error."""
        p = self.params

        def weight(k: LedgerKey) -> float:
            # dE1 and w rounded as TrajectoryRecord rounds them
            dE1 = p.omega1 * k.x
            w = (p.omega1 - p.omega2) * k.n_w if self.quantized else dE1 + p.omega2 * k.y
            return math.exp((p.beta2 - p.beta1) * dE1 - p.beta2 * w)
        return self._mean_se(*self._moments(weight), 1.0)

    @property
    def hist_nw(self) -> Counter:
        return self._swap_tally(lambda k: k.n_w)

    @property
    def hist_joint(self) -> Counter:
        return self._swap_tally(lambda k: (k.h1, k.n_w))

    @property
    def hist_eta(self) -> Counter:
        p = self.params
        return self._swap_tally(lambda k: None if k.h1 == 0 else math.floor(
            (p.omega1 - p.omega2) * k.n_w / (p.omega1 * k.h1) / ETA_BIN_WIDTH))

    @property
    def eta_exact(self) -> Counter:
        return self._swap_tally(lambda k: Fraction(k.n_w, k.h1) if k.h1 else None)

    @property
    def eta_infinite(self) -> int:
        return self._swap_tally(lambda k: k.h1 == 0 and k.n_w != 0)[True]

    @property
    def eta_undefined(self) -> int:
        return self._swap_tally(lambda k: k.h1 == 0 and k.n_w == 0)[True]

    @property
    def rigidity_violations(self) -> int:
        return self._swap_tally(lambda k: k.y != -k.x)[True]

    @property
    def quantization_violations(self) -> int:
        # w = d*n_w is on the lattice when round(w/d) recovers n_w (bare w/d
        # can round off-integer); d*round(w/d) then reproduces w bit for bit
        p = self.params
        return self._swap_tally(lambda k: p.omega1 != p.omega2 and round(
            (p.omega1 - p.omega2) * k.n_w / (p.omega1 - p.omega2)) != k.n_w)[True]


def accumulate(records: Iterable[TrajectoryRecord]) -> EnsembleStats:
    """Fold a homogeneous record stream into EnsembleStats (error when empty)."""
    stats = EnsembleStats()
    for record in records:
        stats.add(record)
    if stats.sample_size == 0:
        raise ConfigError("cannot accumulate an empty record stream")
    return stats


def fold_ensemble(cfg: EngineConfig, protocol: Protocol, gate_spec: GateSpec,
                  sample_size: int, seed: int) -> EnsembleStats:
    """Fold an ensemble run without event logs on the lane pick_lane picks.

    Equal to accumulate(run_ensemble(...)) on the same arguments, but the bit
    lane is folded by columns: each chunk's rows collapse to distinct ledger
    keys with counts, and no per-trajectory record is built."""
    if pick_lane(gate_spec, keep_events=False) != "bits":
        return accumulate(run_ensemble(cfg, protocol, gate_spec, sample_size, seed))
    if sample_size < 1:
        raise ConfigError(f"sample_size must be at least 1, got {sample_size}")
    stats = EnsembleStats(params=run_params(cfg, protocol, gate_spec))
    for ch in _bit_lane_chunks(cfg, protocol, sample_size, seed):
        rows = np.stack([ch["h1"], ch["h2"], ch["b1f"] - ch["b1i"],
                         ch["b2f"] - ch["b2i"], ch["n_w"]], axis=1)
        keys, counts = np.unique(rows, axis=0, return_counts=True)
        for key, count in zip(keys.tolist(), counts.tolist()):
            stats._insert(LedgerKey(*key), count)
    return stats


@dataclass(frozen=True)
class FtLogRatio:
    """Empirical log-ratio points and their weighted through-origin fit.

    points holds (n_w, ln P(n_w)/P(-n_w), standard error) for every signed
    n_w with counted opposite; the fit uses only the positive-n half (the
    negative half is its exact mirror) with inverse-variance weights from
    the counts.
    """

    points: tuple[tuple[int, float, float], ...]
    slope: float
    slope_se: float


def ft_log_ratio(stats: EnsembleStats) -> FtLogRatio:
    """Work-quanta fluctuation ratio ln P(n)/P(-n) and its fitted slope.

    The variance of each log-ratio is 1/count(n) + 1/count(-n) (delta method
    on independent Poisson counts); the through-origin weighted
    least-squares slope is sum(w n y)/sum(w n^2) with variance
    1/sum(w n^2).  Needs paired +-n support for at least 3 positive n.
    """
    if not stats.quantized:
        raise ConfigError("the work-quanta ratio is defined for swap-family runs only")
    hist = stats.hist_nw
    positive = [n for n in sorted(hist) if n > 0 and -n in hist]
    if len(positive) < 3:
        raise ConfigError(
            f"need paired +-n_w support for at least 3 values, have {len(positive)}")
    points = []
    for n in sorted(k for k in hist if k != 0 and -k in hist):
        c_here, c_mirror = hist[n], hist[-n]
        points.append((n, math.log(c_here / c_mirror),
                       math.sqrt(1.0 / c_here + 1.0 / c_mirror)))
    swxx = 0.0
    swxy = 0.0
    for n, y, se in points:
        if n <= 0:
            continue
        wgt = 1.0 / (se * se)
        swxx += wgt * n * n
        swxy += wgt * n * y
    return FtLogRatio(points=tuple(points), slope=swxy / swxx,
                      slope_se=1.0 / math.sqrt(swxx))


@dataclass(frozen=True)
class EfficiencyDistribution:
    """P(eta) histogram: 0.01-wide bins keyed by floor(eta/0.01), plus the
    infinity bin (finite work at zero hot-bath heat) and the undefined count
    (zero work at zero heat), plus the exact rational tally of n_w/h1 whose
    value times (omega1-omega2)/omega1 is the record's eta."""

    bins: tuple[tuple[int, int], ...]
    bin_width: float
    infinite: int
    undefined: int
    exact: tuple[tuple[Fraction, int], ...]
    sample_size: int

    def modal_bin(self) -> tuple[float, float]:
        """(lo, hi) edges of the most populated finite bin."""
        idx = max(self.bins, key=lambda kv: kv[1])[0]
        return idx * self.bin_width, (idx + 1) * self.bin_width


def efficiency_distribution(stats: EnsembleStats) -> EfficiencyDistribution:
    """Stochastic-efficiency histogram of a swap-family ensemble.

    eta is the per-record work output over the heat drawn from the hot
    bath; no scalar mean is exposed because the infinity bin carries finite
    probability, making the ensemble average ill-defined.
    """
    if not stats.quantized:
        raise ConfigError("the efficiency distribution is defined for swap-family runs only")
    if stats.sample_size == 0:
        raise ConfigError("empty ensemble")
    return EfficiencyDistribution(
        bins=tuple(sorted(stats.hist_eta.items())),
        bin_width=ETA_BIN_WIDTH,
        infinite=stats.eta_infinite,
        undefined=stats.eta_undefined,
        exact=tuple(sorted(stats.eta_exact.items())),
        sample_size=stats.sample_size,
    )


@dataclass(frozen=True)
class PowerScanRow:
    n_pulses: int
    tau2: float
    work_output: float   # -<w> per run of n_pulses pulses
    work_se: float
    power: float         # work_output / operation time
    eta: float           # exact swap-run efficiency, constant across rows


def power_scan(
    cfg: EngineConfig,
    t_op_multiple: float,
    n_values: Sequence[int],
    sample_size: int,
    seed: int,
) -> list[PowerScanRow]:
    """Work output and efficiency at fixed operation time, varying pulse count.

    The operation time is t_op_multiple relaxation times; each row runs a
    fresh swap ensemble with tau2 = t_op/N (row i consumes seed + i).  After
    asserting that every record passed the rigidity checks, eta is emitted
    as the one closed-form expression (omega1-omega2)/omega1, hence exactly
    identical across rows.
    """
    if list(n_values) != sorted(n_values) or not n_values:
        raise ConfigError("n_values must be a nonempty ascending list")
    if any(n < 1 for n in n_values):
        raise ConfigError("pulse counts must be >= 1")
    if not (t_op_multiple > 0 and math.isfinite(t_op_multiple)):
        raise ConfigError(f"t_op_multiple must be positive, got {t_op_multiple}")
    t_op = t_op_multiple * relaxation_time(cfg)
    rows = []
    for i, n_pulses in enumerate(n_values):
        protocol = Protocol(n_pulses=n_pulses, tau2=t_op / n_pulses)
        stats = fold_ensemble(cfg, protocol, SwapFamily(), sample_size, seed + i)
        if stats.rigidity_violations or stats.quantization_violations:
            raise AssertionError(
                f"rigidity broken at N={n_pulses}: "
                f"{stats.rigidity_violations} proportionality, "
                f"{stats.quantization_violations} quantization failures")
        w_mean, w_se = stats.mean_w
        rows.append(PowerScanRow(
            n_pulses=n_pulses,
            tau2=protocol.tau2,
            work_output=-w_mean,
            work_se=w_se,
            power=-w_mean / t_op,
            eta=(cfg.omega1 - cfg.omega2) / cfg.omega1,
        ))
    return rows


@dataclass(frozen=True)
class InferredInjection:
    """One work-source injection deduced from the jump record of a bath.

    quanta is +1 when two consecutive emissions in the same bath imply an
    intervening re-excitation, -1 for two consecutive absorptions; boundary
    segments use the ground-state convention (t_lo = 0 for the leading one,
    t_hi = inf marking the open trailing one)."""

    t_lo: float
    t_hi: float
    bath: int
    quanta: int


@dataclass(frozen=True)
class Reconstruction:
    """Energetics recovered from a pulse-marker-free jump log.

    q1/q2 are direct jump sums (exact).  The consecutive-pair rule with
    ground boundaries infers the injections; their net count per bath is the
    net emission count, so dE_i = q_i, each off from the truth by exactly
    the unobservable -dU_i, bounded by one quantum per qubit.  When the pulse schedule is known, n_w refines this by exact
    candidate propagation: all four initial bit pairs are evolved through
    the known swap times, candidates inconsistent with any observed jump are
    pruned, and the largest-Gibbs-weight survivor is read off; survivors
    counts those left alive (0 means the log cannot come from the assumed
    schedule, and the refined fields stay None)."""

    q1: float
    q2: float
    injections: tuple[InferredInjection, ...]
    dE1: float
    dE2: float
    w: float
    n_w: int | None
    w_refined: float | None
    dE1_refined: float | None
    dE2_refined: float | None
    survivors: int


def _pair_rule(times: list[float], kinds: list[str], bath: int,
               ) -> list[InferredInjection]:
    """Injections into the qubit implied by its bath's jump record alone;
    their quanta sum to the net emission count #E - #A."""
    injections: list[InferredInjection] = []
    if not kinds:
        return injections
    # leading boundary, ground start: an opening emission needs a prior quantum
    if kinds[0] == "E":
        injections.append(InferredInjection(0.0, times[0], bath, +1))
    for j in range(len(kinds) - 1):
        if kinds[j] == kinds[j + 1]:
            q = 1 if kinds[j] == "E" else -1
            injections.append(InferredInjection(times[j], times[j + 1], bath, q))
    # trailing boundary, ground end: a closing absorption must be undone
    if kinds[-1] == "A":
        injections.append(InferredInjection(times[-1], math.inf, bath, -1))
    return injections


def reconstruct_from_events(
    events: Sequence[TrajectoryEvent],
    cfg: EngineConfig,
    protocol: Protocol | None = None,
) -> Reconstruction:
    """Recover the trajectory energetics from bare jump observations.

    events must contain jumps only (the calorimetric scenario observes no
    pulse markers); passing a known pulse schedule enables the exact
    candidate refinement of n_w described on Reconstruction.
    """
    per_bath: dict[int, tuple[list[float], list[str]]] = {1: ([], []), 2: ([], [])}
    last = -math.inf
    for ev in events:
        if ev.kind == "P":
            raise ConfigError("pulse markers must be stripped before reconstruction")
        if ev.kind not in ("E", "A"):
            raise ConfigError(f"unknown jump kind {ev.kind!r}")
        if ev.bath not in (1, 2):
            raise ConfigError(f"unknown bath label {ev.bath!r}")
        if ev.time <= last:
            raise ConfigError("jump times must be strictly increasing")
        last = ev.time
        per_bath[ev.bath][0].append(ev.time)
        per_bath[ev.bath][1].append(ev.kind)
    t1, k1 = per_bath[1]
    t2, k2 = per_bath[2]
    h1 = k1.count("E") - k1.count("A")
    h2 = k2.count("E") - k2.count("A")
    dE1 = q1 = cfg.omega1 * h1
    dE2 = q2 = cfg.omega2 * h2
    injections = _pair_rule(t1, k1, 1) + _pair_rule(t2, k2, 2)
    n_w_hat: int | None = None
    w_refined = dE1_refined = dE2_refined = None
    survivors = 0
    if protocol is not None and protocol.n_pulses > 0:
        n_w_hat, db1, db2, survivors = _refine_candidates(events, cfg, protocol)
        if n_w_hat is not None:
            w_refined = (cfg.omega1 - cfg.omega2) * n_w_hat
            dE1_refined = cfg.omega1 * (h1 + db1)
            dE2_refined = cfg.omega2 * (h2 + db2)
    return Reconstruction(
        q1=q1, q2=q2,
        injections=tuple(sorted(injections, key=lambda i: (i.t_lo, i.t_hi, i.bath))),
        dE1=dE1, dE2=dE2, w=dE1 + dE2,
        n_w=n_w_hat, w_refined=w_refined,
        dE1_refined=dE1_refined, dE2_refined=dE2_refined,
        survivors=survivors,
    )


def _refine_candidates(
    events: Sequence[TrajectoryEvent],
    cfg: EngineConfig,
    protocol: Protocol,
) -> tuple[int | None, int, int, int]:
    """Propagate all four initial bit pairs through the known swap schedule.

    A swap-family pulse exchanges the bits; an observed emission requires
    the jumping qubit excited (and grounds it), an absorption the reverse.
    Candidates violating any jump die.  The survivor set is never empty for
    a log actually generated by this schedule, and all survivors agree on
    the pulse-transfer sum to within one quantum; the survivor with the
    largest initial Gibbs weight is returned.
    """
    pulse_times = [k * protocol.tau2 for k in range(protocol.n_pulses)]
    f1 = excited_population(cfg.beta1, cfg.omega1)
    f2 = excited_population(cfg.beta2, cfg.omega2)
    starts = sorted(
        ((b1, b2) for b1 in (0, 1) for b2 in (0, 1)),
        key=lambda b: (f1 if b[0] else 1.0 - f1) * (f2 if b[1] else 1.0 - f2),
        reverse=True)
    candidates = [
        {"b1": b1, "b2": b2, "b1_0": b1, "b2_0": b2, "m": 0, "alive": True}
        for b1, b2 in starts
    ]
    next_pulse = 0
    for ev in list(events) + [None]:
        t = math.inf if ev is None else ev.time
        while next_pulse < len(pulse_times) and pulse_times[next_pulse] <= t:
            for c in candidates:
                if c["alive"]:
                    c["m"] += c["b2"] - c["b1"]
                    c["b1"], c["b2"] = c["b2"], c["b1"]
            next_pulse += 1
        if ev is None:
            break
        key = "b1" if ev.bath == 1 else "b2"
        needed = 1 if ev.kind == "E" else 0
        for c in candidates:
            if c["alive"]:
                if c[key] != needed:
                    c["alive"] = False
                else:
                    c[key] = 1 - needed
    alive = [c for c in candidates if c["alive"]]
    if not alive:
        return None, 0, 0, 0
    best = alive[0]
    return (best["m"], best["b1"] - best["b1_0"], best["b2"] - best["b2_0"],
            len(alive))
