"""Ensemble statistics, fluctuation-relation estimators, and event-log analysis.

The accumulator is an exact histogram over each record's integer ledger
key, so the order in which records are folded can never change a count, and
EnsembleStats.read_off reads every statistic off the counts in one walk over
the sorted keys, reading each ledger's energetics once: means and errors
from exact integer moments (the level spacings multiply in only then), the
integral-FT sum and its largest term, the n_w and (h1, n_w) histograms that
ft_log_ratio and efficiency_distribution read, and the rigidity counts.
Swap-family runs additionally carry rigidity checks, deterministic in the
key and counted per record: the energy-proportionality identity
dE2 = -(omega2/omega1)*dE1 is tested on the integer ledger, as y = -x, so
no rounding can break it, the work value is tested for exact membership of
the (omega1-omega2) lattice, and violations are counted rather than
silently rebinned.

path_log_ratio scores the path-level relation on one run's own pulsed
events, with the integer walker the refinement uses and the lanes' rates.

Work-quanta sign convention: n_w = w/(omega1 - omega2) counts quanta
injected by the work source, so engine operation has negative mean n_w and
the log-ratio slope (beta1*omega1 - beta2*omega2) is negative there.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .gates import (BASIS_BITS, SWAP_PERMUTATION, SWAP_TRANSFER, GateSpec, SwapFamily,
                    gibbs_populations)
from .thermo import ConfigError, EngineConfig, efficiencies, relaxation_time
from .trajectory import (CHANNELS, LedgerKey, Protocol, RunParams, TrajectoryEvent,
                         TrajectoryRecord, _JUMP_MAPS, _bit_lane_ledgers, _index_key,
                         _relaxation, pick_lane, run_ensemble)

ETA_BIN_WIDTH = 0.01


def _eta_bin(w: float, q1: float) -> int:
    index = w / q1 / ETA_BIN_WIDTH
    if not math.isfinite(index):
        raise ConfigError(f"the efficiency w/q1 = {w!r}/{q1!r} has no "
                          f"finite {ETA_BIN_WIDTH}-wide bin")
    return math.floor(index)


def check_eta_bins(cfg: EngineConfig, protocol: Protocol, gate_spec: GateSpec) -> None:
    """Refuse, before it runs, a swap-family run with a work or an
    efficiency bin that is not finite.

    No record has |n_w| > n_pulses, so w = (omega1-omega2)*n_w is finite for
    quantization_violations' round(w/d) if it is at n_w = n_pulses.  A
    finite eta has |h1| >= 1, and n_w = h1 + db1 with |db1| <= 1, so
    |n_w/h1| reaches 2 at (n_w, h1) = +-(2, 1) alone and is at most 3/2 on
    every other ledger.  So the bin of efficiency_distribution's float steps
    at n_w = min(n_pulses, 2) and h1 = 1 bounds every bin, whatever the lane
    and the seed: no rounding closes the gap to the other ratios.
    """
    if isinstance(gate_spec, SwapFamily):
        w = (cfg.omega1 - cfg.omega2) * protocol.n_pulses
        if not math.isfinite(w):
            raise ConfigError(f"the work (omega1-omega2)*n_pulses = {w!r} is not finite")
        _eta_bin((cfg.omega1 - cfg.omega2) * min(protocol.n_pulses, 2), cfg.omega1)


def check_swap_family(gate_spec: GateSpec, task: str, hint: str = "") -> None:
    """Refuse, before it runs, a task that needs a swap-family gate: the
    schedule-aware refinement of reconstruct_from_events and path_log_ratio
    walk SWAP_PERMUTATION, and power_scan folds the swap on the bit lane."""
    if not isinstance(gate_spec, SwapFamily):
        raise ConfigError(f"{task} needs a swap-family gate, since a generic gate "
                          f"has no work lattice{hint}")


class IntegralFt(NamedTuple):
    """The integral-FT estimate: the mean of the weight
    exp((beta2-beta1)*dE1 - beta2*w) with its standard error, and the ledger
    that carries the largest share of the weight sum, with that share (0
    when every weight underflows).  Where one ledger carries most of the
    sum, the estimate rests on how often that one ledger was drawn, which
    its standard error cannot see."""

    mean: float
    std_err: float | None
    top: LedgerKey
    share: float


class ReadOff(NamedTuple):
    """Every statistic of an ensemble that simulate and power_scan write,
    from EnsembleStats.read_off: the sample size, each energy's (mean,
    standard error), the IntegralFt, the histograms of n_w and of (h1, n_w)
    (None on generic-gate runs, which have no work lattice) and the records
    that fail the rigidity and the lattice checks (0 on generic-gate runs)."""

    sample_size: int
    dE1: tuple[float, float | None]
    dE2: tuple[float, float | None]
    w: tuple[float, float | None]
    q1: tuple[float, float | None]
    q2: tuple[float, float | None]
    integral_ft: IntegralFt
    hist_nw: dict[int, int] | None
    hist_joint: dict[tuple[int, int], int] | None
    rigidity_violations: int
    quantization_violations: int


def _mean_se(n: float, s: float, ss: float, scale: float) -> tuple[float, float | None]:
    """scale times the mean of n values with sum s and sum of squares ss,
    and its standard error (None below two values)."""
    mean = scale * (s / n)
    if n < 2:
        return mean, None
    var = (ss - s * s / n) / (n - 1)
    return mean, abs(scale) * math.sqrt(max(var, 0.0) / n)


class EnsembleStats:
    """Exact histogram of one homogeneous ensemble over LedgerKey.

    params is the run's, None until the first record is added, and counts
    holds the records per ledger; two stats are equal when both are.
    read_off reads every statistic off the counts in one walk.  hist_joint
    is keyed by exact quantum counts (q1/omega1, w/(omega1-omega2))
    = (h1, n_w), and efficiency_distribution reads the statistics of
    eta = w/q1 off it.  Below two records an error is None.
    """

    __slots__ = ("params", "counts")

    def __init__(self, params: RunParams | None = None) -> None:
        self.params = params
        self.counts: Counter = Counter()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EnsembleStats):
            return NotImplemented
        return (self.params, self.counts) == (other.params, other.counts)

    @property
    def quantized(self) -> bool:
        """Whether the run's gate is of the swap family, whose ledgers carry
        n_w (an empty histogram, with no run yet, counts as quantized)."""
        return self.params is None or isinstance(self.params.gate, SwapFamily)

    def add(self, record: TrajectoryRecord) -> None:
        if self.params is None:
            self.params = record.params
        elif record.params != self.params:
            raise ConfigError("cannot accumulate records from different runs: "
                              f"{record.params} vs {self.params}")
        self._insert(record.ledger, 1)

    def _insert(self, key: LedgerKey, count: int) -> None:
        if key not in self.counts:
            key.check()
            if (key.n_w is not None) != self.quantized:
                raise ConfigError("a swap-family ledger needs n_w and a generic-gate one "
                                  f"none, got n_w={key.n_w} for gate {self.params.gate}")
        self.counts[key] += count

    @property
    def sample_size(self) -> int:
        return sum(self.counts.values())

    def read_off(self) -> ReadOff:
        """The ReadOff of the records, from one walk over the sorted keys
        that reads each ledger's energetics once.

        Each sum adds count*value, and each sum of squares count*value*value,
        key by key in sorted order: exact on integer counts, whatever the
        order, and one fixed order on float weights.  The energies' moments
        are integer moments of the ledger, scaled by the level spacings only
        in the mean and the error.
        """
        if not self.counts:
            raise ConfigError("empty ensemble")
        beta1, beta2, omega1, omega2, _ = self.params.cfg
        quantized = self.quantized
        n = s_x = ss_x = s_y = ss_y = s_xy = s_h1 = ss_h1 = s_h2 = ss_h2 = 0
        s = ss = top_term = 0   # the integral-FT weights
        top = None
        hist_nw, hist_joint = ({}, {}) if quantized else (None, None)
        rigidity = quantization = 0
        counts = self.counts
        for k in sorted(counts):
            c = counts[k]
            h1, h2, db1, db2, n_w = k
            x, y = h1 + db1, h2 + db2
            n += c
            s_x += c * x
            ss_x += c * x * x
            s_y += c * y
            ss_y += c * y * y
            s_xy += c * (x * y)
            s_h1 += c * h1
            ss_h1 += c * h1 * h1
            s_h2 += c * h2
            ss_h2 += c * h2 * h2
            e = k.energetics(omega1, omega2)
            v = math.exp((beta2 - beta1) * e.dE1 - beta2 * e.w)
            s += c * v
            ss += c * v * v
            if top is None or c * v > top_term:
                top, top_term = k, c * v
            if quantized:
                hist_nw[n_w] = hist_nw.get(n_w, 0) + c
                hist_joint[h1, n_w] = hist_joint.get((h1, n_w), 0) + c
                if y != -x:
                    rigidity += c
                # w = d*n_w is on the lattice when round(w/d) recovers n_w
                # (bare w/d can round off-integer); d*round(w/d) then
                # reproduces w bit for bit
                if omega1 != omega2 and round(e.w / (omega1 - omega2)) != n_w:
                    quantization += c
        if quantized:
            w = _mean_se(n, s_x, ss_x, omega1 - omega2)
        else:
            mean = (omega1 * s_x + omega2 * s_y) / n
            if n < 2:
                w = mean, None
            else:
                var_x = (ss_x - s_x ** 2 / n) / (n - 1)
                var_y = (ss_y - s_y ** 2 / n) / (n - 1)
                cov = (s_xy - s_x * s_y / n) / (n - 1)
                var = omega1 ** 2 * var_x + omega2 ** 2 * var_y \
                    + 2.0 * omega1 * omega2 * cov
                w = mean, math.sqrt(max(var, 0.0) / n)
        return ReadOff(
            n, _mean_se(n, s_x, ss_x, omega1), _mean_se(n, s_y, ss_y, omega2), w,
            _mean_se(n, s_h1, ss_h1, omega1), _mean_se(n, s_h2, ss_h2, omega2),
            IntegralFt(*_mean_se(n, s, ss, 1.0), top, top_term / s if s else 0.0),
            hist_nw, hist_joint, rigidity, quantization)

    # views of read_off, one walk each
    @property
    def mean_dE1(self) -> tuple[float, float | None]:
        return self.read_off().dE1

    @property
    def mean_q1(self) -> tuple[float, float | None]:
        return self.read_off().q1

    @property
    def mean_w(self) -> tuple[float, float | None]:
        return self.read_off().w

    @property
    def integral_ft(self) -> IntegralFt:
        return self.read_off().integral_ft

    @property
    def hist_nw(self) -> dict[int, int] | None:
        return self.read_off().hist_nw

    @property
    def hist_joint(self) -> dict[tuple[int, int], int] | None:
        return self.read_off().hist_joint

    @property
    def rigidity_violations(self) -> int:
        return self.read_off().rigidity_violations

    @property
    def quantization_violations(self) -> int:
        return self.read_off().quantization_violations


def accumulate(records: Iterable[TrajectoryRecord]) -> EnsembleStats:
    """Fold a homogeneous record stream into EnsembleStats (error when empty)."""
    stats = EnsembleStats()
    for record in records:
        stats.add(record)
    if not stats.counts:
        raise ConfigError("cannot accumulate an empty record stream")
    return stats


def fold_ensemble(cfg: EngineConfig, protocol: Protocol, gate_spec: GateSpec,
                  sample_size: int, seed: int) -> EnsembleStats:
    """Fold an ensemble run without event logs on the lane pick_lane picks.

    This is the only way into the bit lane, which names each row by its
    ledger's integer index and yields one index array per chunk, drawn and
    indexed in blocks of _LAW_BLOCK_ROWS rows, so the lane's working set
    stays near one chunk's indices.  np.unique counts each chunk's distinct
    indices, the chunks' counts are summed by index, each distinct index is
    decoded to its LedgerKey once per run, and no per-trajectory record is
    built, so the counts are the Counter of the rows' LedgerKeys.  The
    events lane is accumulate(run_ensemble(...))."""
    if pick_lane(gate_spec, keep_events=False) != "bits":
        return accumulate(run_ensemble(cfg, protocol, gate_spec, sample_size, seed))
    if sample_size < 1:
        raise ConfigError(f"sample_size must be at least 1, got {sample_size}")
    stats = EnsembleStats(params=RunParams(cfg, protocol, gate_spec))
    tally: Counter = Counter()
    for index in _bit_lane_ledgers(cfg, protocol, sample_size, seed):
        keys, counts = np.unique(index, return_counts=True)
        tally.update(dict(zip(keys.tolist(), counts.tolist())))
    for index, count in tally.items():
        stats._insert(_index_key(index, protocol.n_pulses), count)
    return stats


class FtLogRatio(NamedTuple):
    """Empirical log-ratio points and their weighted through-origin fit.

    points holds (n_w, ln P(n_w)/P(-n_w), standard error) for every signed
    n_w with counted opposite; the fit uses only the positive-n half (the
    negative half is its exact mirror) with inverse-variance weights from
    the counts.
    """

    points: tuple[tuple[int, float, float], ...]
    slope: float
    slope_se: float


def ft_log_ratio(read: ReadOff) -> FtLogRatio:
    """Work-quanta fluctuation ratio ln P(n)/P(-n) and its fitted slope,
    from a read-off's hist_nw.

    The variance of each log-ratio is 1/count(n) + 1/count(-n) (delta method
    on independent Poisson counts); the through-origin weighted
    least-squares slope is sum(w n y)/sum(w n^2) with variance
    1/sum(w n^2).  Needs paired +-n support for at least 3 positive n.
    """
    hist = read.hist_nw
    if hist is None:
        raise ConfigError("the work-quanta ratio is defined for swap-family runs only")
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


class EfficiencyDistribution(NamedTuple):
    """P(eta) histogram: ETA_BIN_WIDTH-wide bins keyed by
    floor(eta/ETA_BIN_WIDTH), plus the infinity bin (finite work at zero
    hot-bath heat) and the undefined count (zero work at zero heat)."""

    bins: tuple[tuple[int, int], ...]
    infinite: int
    undefined: int

    def modal_bin(self) -> tuple[float, float]:
        """(lo, hi) edges of the most populated finite bin."""
        idx = max(self.bins, key=lambda kv: kv[1])[0]
        return idx * ETA_BIN_WIDTH, (idx + 1) * ETA_BIN_WIDTH


def efficiency_distribution(read: ReadOff, cfg: EngineConfig) -> EfficiencyDistribution:
    """Stochastic-efficiency histogram of a swap-family ensemble of engine
    cfg, from its read-off's hist_joint.

    eta = w/q1 is the per-record work output over the heat drawn from the
    hot bath, (omega1-omega2)*n_w over omega1*h1: the same two products
    LedgerKey.energetics forms, so each cell's bin is the record's.  A cell
    with h1 = 0 is infinite where its w is not 0, and undefined where it is,
    as on every such cell at omega1 = omega2.  No scalar mean is exposed
    because the infinity bin carries finite probability, making the
    ensemble average ill-defined.
    """
    if read.hist_joint is None:
        raise ConfigError("the efficiency distribution is defined for swap-family runs only")
    bins: Counter = Counter()
    infinite = undefined = 0
    for (h1, n_w), c in read.hist_joint.items():
        if h1:
            bins[_eta_bin((cfg.omega1 - cfg.omega2) * n_w, cfg.omega1 * h1)] += c
        elif (cfg.omega1 - cfg.omega2) * n_w:
            infinite += c
        else:
            undefined += c
    return EfficiencyDistribution(tuple(sorted(bins.items())), infinite, undefined)


class PowerScanRow(NamedTuple):
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
    as thermo.efficiencies' closed form, hence exactly identical across
    rows.
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
        read = fold_ensemble(cfg, protocol, SwapFamily(), sample_size, seed + i).read_off()
        if read.rigidity_violations or read.quantization_violations:
            raise AssertionError(
                f"rigidity broken at N={n_pulses}: "
                f"{read.rigidity_violations} proportionality, "
                f"{read.quantization_violations} quantization failures")
        w_mean, w_se = read.w
        rows.append(PowerScanRow(
            n_pulses=n_pulses,
            tau2=protocol.tau2,
            work_output=-w_mean,
            work_se=w_se,
            power=-w_mean / t_op,
            eta=efficiencies(cfg).eta,
        ))
    return rows


class Reconstruction(NamedTuple):
    """Integer ledgers recovered from a pulse-marker-free jump log.

    The jump sums give the net emission counts h1, h2 exactly, so the naive
    ledger is (h1, h2, 0, 0, None), the ground-boundary convention: its
    dE_i = q_i is off from the truth by exactly the unobservable -dU_i,
    bounded by one quantum per qubit.  When the pulse schedule is known
    (a pulse-free one too), the refined ledger comes from exact candidate
    propagation: all four initial basis states are walked through the
    log's jumps and the known swap times, candidates a jump annihilates are
    pruned, and the largest-Gibbs-weight survivor's ledger is kept;
    survivors counts those left alive (0 means the log cannot come from the
    assumed schedule, and refined stays None)."""

    naive: LedgerKey
    refined: LedgerKey | None
    survivors: int


def reconstruct_from_events(
    events: Sequence[TrajectoryEvent],
    cfg: EngineConfig,
    protocol: Protocol | None = None,
) -> Reconstruction:
    """Recover the trajectory's integer ledger from bare jump observations.

    events must contain jumps only (the calorimetric scenario observes no
    pulse markers); passing a known pulse schedule enables the exact
    candidate refinement of n_w described on Reconstruction.
    """
    h = {1: 0, 2: 0}   # net emission count per bath
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
        h[ev.bath] += 1 if ev.kind == "E" else -1
    naive = LedgerKey(h[1], h[2], 0, 0, None)
    refined, survivors = None, 0
    if protocol is not None:
        refined, survivors = _refine_candidates(events, cfg, protocol, naive)
    return Reconstruction(naive, refined, survivors)


# walker steps, each (basis map, quanta moved into qubit 1 from each basis
# state, jump channel or None): SWAP_PERMUTATION at a pulse, the channel's
# jump map at a jump.  CHANNELS runs (1 E, 1 A, 2 E, 2 A), so channel ch ^ 1
# is channel ch with E and A swapped.
_PULSE_STEP = (SWAP_PERMUTATION, SWAP_TRANSFER, None)
_JUMP_STEPS = {channel: (basis_map, (0, 0, 0, 0), ch)
               for ch, (channel, basis_map) in enumerate(zip(CHANNELS, _JUMP_MAPS))}


def _steps(events: Sequence[TrajectoryEvent], protocol: Protocol | None = None) -> list:
    """The walker's steps for a record's own events, pulse markers included,
    or for a marker-free log merged with protocol's schedule: pulse k at
    k*tau2, placed before any jump at or after that time."""
    if protocol is None:
        return [_PULSE_STEP if ev.kind == "P" else _JUMP_STEPS[ev.bath, ev.kind]
                for ev in events]
    steps, next_pulse = [], 0
    for ev in events:
        while next_pulse < protocol.n_pulses and next_pulse * protocol.tau2 <= ev.time:
            steps.append(_PULSE_STEP)
            next_pulse += 1
        steps.append(_JUMP_STEPS[ev.bath, ev.kind])
    steps += [_PULSE_STEP] * (protocol.n_pulses - next_pulse)
    return steps


def _walk(i: int, steps: Sequence[tuple]) -> tuple[int, int] | None:
    """(end state, pulse-transfer sum) of basis state i walked through steps,
    or None when a jump annihilates it."""
    m = 0
    for basis_map, transfer, _ in steps:
        m += transfer[i]
        i = basis_map[i]
        if i < 0:
            return None
    return i, m


def _refine_candidates(
    events: Sequence[TrajectoryEvent],
    cfg: EngineConfig,
    protocol: Protocol,
    naive: LedgerKey,
) -> tuple[LedgerKey | None, int]:
    """Walk all four initial basis states through the log and the known swap
    schedule.

    A swap-family pulse is SWAP_PERMUTATION, and an observed jump is the
    events lane's basis map of its channel, which kills a candidate it
    annihilates.  The survivor set is never empty for a log actually
    generated by this schedule, and all survivors agree on the
    pulse-transfer sum to within one quantum.  Returns the checked ledger of
    the survivor with the largest initial Gibbs weight (ties keep the start
    order --, -+, +-, ++; None when none survives) and the number of
    survivors.
    """
    steps = _steps(events, protocol)
    p = gibbs_populations(cfg)
    alive = []   # (start, end, transfer) of each survivor, by falling Gibbs weight
    for i0 in sorted((3, 2, 1, 0), key=lambda i: p[i], reverse=True):
        if (walked := _walk(i0, steps)) is not None:
            alive.append((i0, *walked))
    if not alive:
        return None, 0
    i0, i, m = alive[0]
    ledger = naive._replace(db1=BASIS_BITS[i][0] - BASIS_BITS[i0][0],
                            db2=BASIS_BITS[i][1] - BASIS_BITS[i0][1], n_w=m)
    ledger.check()
    return ledger, len(alive)


def path_log_ratio(
    params: RunParams,
    start: int,
    events: Sequence[TrajectoryEvent],
) -> tuple[float, LedgerKey] | None:
    """Log ratio of a path's density from basis state start to its time
    reverse's, on a swap-family record's own events, pulse markers included.

    The reverse walks the events backwards from the end state, E and A
    swapped, and stays in each basis state as long as the path does, so the
    survival factors exp(-outflow*dt) cancel and the jump times drop out:
    the ratio is ln p(start)/p(end) plus ln(rate/reverse rate) of each jump,
    p the product Gibbs weights and the rates those of _relaxation (Seifert,
    PRL 95, 040602 (2005)).  Returns (that ratio, the walked ledger); the
    ratio is +inf when only the reverse has density 0.  Returns None when
    the path itself has density 0: p(start) is 0, or a jump annihilates the
    state or takes a channel of rate 0.  Microreversibility makes the ratio
    beta1*dE1 + beta2*dE2 of that ledger (Campisi, Pekola & Fazio,
    NJP 17, 035012 (2015)).
    """
    cfg, _, gate = params
    check_swap_family(gate, "the path log ratio")
    steps = _steps(events)
    walked = _walk(start, steps)
    jumps = Counter(ch for _, _, ch in steps if ch is not None)   # by channel
    ln_rates = [_ln(rate) for rate in _relaxation(cfg).rates.tolist()]
    p = gibbs_populations(cfg)
    if walked is None or p[start] == 0 or any(ln_rates[ch] == -math.inf for ch in jumps):
        return None
    end, n_w = walked
    reverse = [_PULSE_STEP if ch is None else _JUMP_STEPS[CHANNELS[ch ^ 1]]
               for _, _, ch in reversed(steps)]
    if _walk(end, reverse) != (start, -n_w):
        raise AssertionError("the reversed events do not retrace the path: "
                             "jump maps broken")
    (s1, s2), (e1, e2) = BASIS_BITS[start], BASIS_BITS[end]
    return (math.log(p[start]) - _ln(p[end])
            + sum(n * (ln_rates[ch] - ln_rates[ch ^ 1]) for ch, n in jumps.items()),
            LedgerKey(jumps[0] - jumps[1], jumps[2] - jumps[3], e1 - s1, e2 - s2, n_w))


def _ln(x: float) -> float:
    """ln x of a rate or a weight, -inf where it underflowed to 0."""
    return math.log(x) if x > 0 else -math.inf
