"""Ensemble accumulation, fluctuation-relation estimators, reconstruction.

Hand-built records with known integer ledgers pin the bookkeeping exactly;
simulated ensembles then check the statistical estimators against their
defining formulas (weighted least squares, jackknife) recomputed inline,
the columnar fold of the bit lane against the Counter of its ledger rows
and against folding those rows record by record, and the path-level
fluctuation relation on the events lane's own records.
"""

from __future__ import annotations

import contextlib
import io
import math
import tracemalloc
import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import swapengine as se
from swapengine import cli
from swapengine import stats as stats_module
from swapengine import trajectory

from lane_rows import folded_rows

CFG = se.EngineConfig(beta1=2.0 / 3.0, beta2=1.0, omega1=1.0, omega2=5.0 / 6.0)
PARAMS = se.RunParams(CFG, se.Protocol(10, 0.65), se.SwapFamily())


def _rec(h1: int, h2: int, db1: int = 0, db2: int = 0,
         params: se.RunParams = PARAMS) -> se.TrajectoryRecord:
    return se.TrajectoryRecord(params, se.LedgerKey(h1, h2, db1, db2, h1 + db1))


HAND_RECORDS = [
    _rec(-1, 1),            # one quantum moved, eta bin 16
    _rec(0, 0),             # idle cycle, efficiency undefined
    _rec(-2, 2, db1=1, db2=-1),  # eta = 1/12, bin 8
    _rec(1, -1),            # backward quantum, eta bin 16 again
]


def test_hand_records_accumulate_to_exact_counts_and_means():
    st = se.accumulate(HAND_RECORDS)
    assert st.sample_size == 4
    assert st.quantized
    # x = h1 + db1 over the four records is (-1, 0, -1, 1)
    mean, std_err = st.mean_dE1
    assert mean == -0.25
    assert std_err == pytest.approx(math.sqrt(2.75 / 3.0) / 2.0, rel=1e-15)
    mean_w, _ = st.mean_w
    assert mean_w == pytest.approx(-0.25 * (CFG.omega1 - CFG.omega2),
                                   rel=1e-15)
    mean_q1, _ = st.mean_q1
    assert mean_q1 == -0.5
    assert dict(st.hist_nw) == {-1: 2, 0: 1, 1: 1}
    assert dict(st.hist_joint) == {(-1, -1): 1, (0, 0): 1, (-2, -1): 1,
                                   (1, 1): 1}
    assert se.efficiency_distribution(st.read_off(), CFG) == se.EfficiencyDistribution(
        bins=((8, 1), (16, 2)), infinite=0, undefined=1)
    assert st.rigidity_violations == 0
    assert st.quantization_violations == 0


def test_work_without_hot_heat_counts_as_infinite_efficiency():
    st = se.accumulate([_rec(0, 0, db1=-1, db2=1), _rec(0, 0)])
    dist = se.efficiency_distribution(st.read_off(), CFG)
    assert dist.infinite == 1
    assert dist.undefined == 1
    assert not dist.bins


def test_ft_weight_sum_follows_the_definition():
    st = se.accumulate(HAND_RECORDS)
    weights = [math.exp((CFG.beta2 - CFG.beta1) * r.energetics.dE1
                        - CFG.beta2 * r.energetics.w) for r in HAND_RECORDS]
    value, std_err = st.integral_ft[:2]
    assert value == pytest.approx(np.mean(weights), rel=1e-15)
    assert std_err == pytest.approx(np.std(weights, ddof=1) / 2.0, rel=1e-14)


def test_accumulate_rejects_empty_and_inhomogeneous_streams():
    with pytest.raises(se.ConfigError, match="empty record stream"):
        se.accumulate([])
    other = PARAMS._replace(cfg=CFG._replace(beta1=0.5))
    with pytest.raises(se.ConfigError, match="different runs"):
        se.accumulate([_rec(0, 0), _rec(0, 0, params=other)])


def test_add_asserts_the_integer_ledger():
    for ledger in (se.LedgerKey(h1=1, h2=0, db1=0, db2=0, n_w=0),       # n_w != x
                   se.LedgerKey(h1=0, h2=0, db1=0, db2=1, n_w=0),       # n_w != -y
                   se.LedgerKey(h1=0, h2=-2, db1=0, db2=2, n_w=0),      # |db2| = 2
                   se.LedgerKey(h1=-2, h2=0, db1=2, db2=0, n_w=None)):  # |db1| = 2
        st = se.EnsembleStats()
        with pytest.raises(AssertionError, match="ledger broken"):
            st.add(se.TrajectoryRecord(PARAMS, ledger))
        assert st.sample_size == 0


def test_rigidity_counter_ignores_last_bit_float_rounding():
    # at these frequencies the ratio route -(omega2/omega1)*dE1 double
    # rounds away from omega2*(h2+db2), but the ledger has y = -x exactly,
    # and that integer identity is what the counter checks
    o1, o2, n = 2.8510833966980074, 1.0043112108304078, -36
    params = PARAMS._replace(cfg=se.EngineConfig(0.2, 0.3, o1, o2, 1.0))
    st = se.accumulate([_rec(n, -n, params=params)])
    assert o2 * -n != -(o2 / o1) * (o1 * n)
    assert st.rigidity_violations == 0
    assert st.quantization_violations == 0


@pytest.mark.parametrize("cfg,pulses,samples", [
    (CFG, 10, 3000),
    # frequencies at which the float ratio route rounds apart on many records
    (se.EngineConfig(0.2, 0.3, 2.8510833966980074, 1.0043112108304078), 20, 3000),
    # 4000 pulses are above the threshold, where the track law is built on
    # a Fourier window
    (CFG, 4000, 1500),
    # omega2 > omega1 makes every nonzero efficiency negative
    (se.EngineConfig(2.0 / 3.0, 1.0, 5.0 / 6.0, 1.0), 10, 3000),
    # omega1 = omega2 makes every work 0, so h1 = 0 is undefined, never infinite
    (se.EngineConfig(2.0 / 3.0, 1.0, 1.0, 1.0), 10, 3000),
])
def test_columnar_fold_equals_the_record_fold(cfg, pulses, samples):
    proto = se.Protocol(pulses, 0.65)
    folded = se.fold_ensemble(cfg, proto, se.SwapFamily(), samples, seed=21)
    rows = folded_rows(cfg, proto, samples, seed=21)
    assert folded.counts == Counter(rows)
    # the rows folded one record at a time, last row first: the order in
    # which records are folded changes no statistic
    params = se.RunParams(cfg, proto, se.SwapFamily())
    by_record = se.accumulate(se.TrajectoryRecord(params, key) for key in reversed(rows))
    assert folded == by_record
    assert folded.integral_ft == by_record.integral_ft
    assert folded.sample_size == samples
    assert folded.rigidity_violations == 0
    # P(eta) read off hist_joint is the per-record tally of w/q1
    bins, infinite, undefined = Counter(), 0, 0
    for key in rows:
        e = key.energetics(cfg.omega1, cfg.omega2)
        if e.q1 != 0:
            bins[stats_module._eta_bin(e.w, e.q1)] += 1
        elif e.w != 0:
            infinite += 1
        else:
            undefined += 1
    assert se.efficiency_distribution(folded.read_off(), cfg) == se.EfficiencyDistribution(
        tuple(sorted(bins.items())), infinite, undefined)


def test_columnar_fold_asserts_the_integer_ledger(monkeypatch):
    # at 3 pulses the 9*(2*3 + 1) = 63 keys have indices 0..62; one just
    # outside decodes to |db1| = 2, a ledger no run has
    for index in (-1, 63):
        def broken_chunks(cfg, protocol, sample_size, seed):
            yield np.full(sample_size, index, dtype=np.int64)
        monkeypatch.setattr(stats_module, "_bit_lane_ledgers", broken_chunks)
        with pytest.raises(AssertionError, match="ledger broken"):
            se.fold_ensemble(CFG, se.Protocol(3, 0.5), se.SwapFamily(), 4, seed=0)


def test_columnar_fold_counts_every_row_of_adversarial_chunks(monkeypatch):
    # index chunks at 3 pulses, whose keys have indices 0..62
    chunks = [
        [40],                 # one row
        [17] * 4,             # all rows equal
        [0, 62, 31, 62, 0],   # the first and the last key, repeated
        [7, 6, 8, 13, 14],    # neighbours across a change of db2
        [40, 17, 0, 3],       # keys of earlier chunks
    ]

    def adversarial_chunks(cfg, protocol, sample_size, seed):
        for index in chunks:
            yield np.array(index, dtype=np.int64)

    monkeypatch.setattr(stats_module, "_bit_lane_ledgers", adversarial_chunks)
    index = [i for chunk in chunks for i in chunk]
    folded = se.fold_ensemble(CFG, se.Protocol(3, 0.5), se.SwapFamily(), len(index), seed=0)
    assert folded.counts == Counter(trajectory._index_key(i, 3) for i in index)


def test_columnar_fold_memory_at_a_large_pulse_count():
    # a row takes two uniforms at any pulse count, and at 20000 pulses and
    # tau2 = 0.01 the track law's Fourier window holds 2**10 cells, so this
    # fold peaks near 1.2 MiB; a walk of 2 + 2N uniforms a row, drawn 256
    # rows at once, would take 78 MiB (tracemalloc sees numpy's buffers)
    tracemalloc.start()
    try:
        folded = se.fold_ensemble(CFG, se.Protocol(20000, 0.01), se.SwapFamily(), 300, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert folded.sample_size == 300
    assert peak < 80 * 2 ** 20


def test_columnar_fold_memory_at_the_working_point():
    # the bit lane draws, inverts and indexes each 2**15-row chunk in blocks
    # of trajectory._LAW_BLOCK_ROWS rows, so a 10^5 x 100 fold peaks near
    # 0.88 MiB of numpy buffers; whole-chunk arrays peaked near 2.13 MiB
    # (tracemalloc sees numpy's buffers).  A fold of one row runs first, so
    # that nothing a first call sets up counts in the fold's working set.
    proto = se.Protocol(100, 0.65)
    se.fold_ensemble(CFG, proto, se.SwapFamily(), 1, seed=0)
    tracemalloc.start()
    try:
        folded = se.fold_ensemble(CFG, proto, se.SwapFamily(), 100_000, seed=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert folded.sample_size == 100_000
    assert peak < 1.4 * 2 ** 20


def test_one_sample_fold_draws_one_row():
    # at 20000 pulses and tau2 = 0.65 each track's sd is about 56, so the
    # law's Fourier window holds 2**13 cells; the law's build dominates this
    # fold, which peaks near 3.3 MiB, and the run draws one row
    # (tracemalloc sees numpy's buffers)
    tracemalloc.start()
    try:
        folded = se.fold_ensemble(CFG, se.Protocol(20000, 0.65), se.SwapFamily(), 1, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert folded.sample_size == 1
    assert peak < 5 * 2 ** 20


def test_ft_log_ratio_on_exact_geometric_counts():
    # counts chosen so log[P(n)/P(-n)] = n log 2 exactly: the weighted
    # through-origin fit must return log 2 and the textbook error bar
    counts = {1: 100, -1: 50, 2: 40, -2: 10, 3: 16, -3: 2, 0: 7}
    records = [_rec(n, -n) for n, c in counts.items() for _ in range(c)]
    fr = se.ft_log_ratio(se.accumulate(records).read_off())
    assert [p[0] for p in fr.points] == [-3, -2, -1, 1, 2, 3]
    for n, log_ratio, point_se in fr.points:
        assert log_ratio == pytest.approx(
            math.log(counts[n] / counts[-n]), rel=1e-14)
        assert point_se == pytest.approx(
            math.sqrt(1.0 / counts[n] + 1.0 / counts[-n]), rel=1e-14)
    assert fr.slope == pytest.approx(math.log(2.0), rel=1e-14)
    weights = [1.0 / (1.0 / counts[n] + 1.0 / counts[-n]) for n in (1, 2, 3)]
    hand_se = 1.0 / math.sqrt(sum(w * n * n
                                  for w, n in zip(weights, (1, 2, 3))))
    assert fr.slope_se == pytest.approx(hand_se, rel=1e-14)


def test_ft_log_ratio_needs_three_paired_counts():
    records = [_rec(n, -n) for n in (1, -1, 2, -2, 0)]
    with pytest.raises(se.ConfigError, match="at least 3"):
        se.ft_log_ratio(se.accumulate(records).read_off())


def test_ft_log_ratio_slope_matches_the_thermal_affinity():
    # slope of ln[P(n)/P(-n)] against n estimates beta1*omega1 - beta2*omega2
    proto = se.Protocol(n_pulses=10, tau2=0.65)
    st = se.fold_ensemble(CFG, proto, se.SwapFamily(), 30000, seed=71)
    fr = se.ft_log_ratio(st.read_off())
    affinity = CFG.beta1 * CFG.omega1 - CFG.beta2 * CFG.omega2
    assert abs(fr.slope - affinity) < 4.0 * fr.slope_se
    assert fr.slope_se < 0.05


def test_ft_log_ratio_slope_vanishes_at_zero_affinity():
    cfg = se.EngineConfig(0.8, 1.0, 1.0, 0.8)  # beta1*omega1 == beta2*omega2
    proto = se.Protocol(n_pulses=20, tau2=0.5)
    st = se.fold_ensemble(cfg, proto, se.SwapFamily(), 20000, seed=72)
    fr = se.ft_log_ratio(st.read_off())
    assert abs(fr.slope) < 4.0 * fr.slope_se


def test_integral_ft_is_exactly_one_for_reversible_null_protocols():
    # no pulses and equal temperatures: every trajectory weight is e^0
    cfg = se.EngineConfig(1.0, 1.0, 1.0, 5.0 / 6.0)
    records = se.run_ensemble(cfg, se.Protocol(0, 0.5), se.SwapFamily(),
                              1000, seed=15, engine="events")
    assert se.accumulate(records).integral_ft[:2] == (1.0, 0.0)


def test_integral_ft_matches_explicit_leave_one_out_jackknife():
    proto = se.Protocol(n_pulses=10, tau2=0.65)
    energies = [key.energetics(CFG.omega1, CFG.omega2)
                for key in folded_rows(CFG, proto, 1500, seed=16)]
    vals = np.array([math.exp((CFG.beta2 - CFG.beta1) * e.dE1 - CFG.beta2 * e.w)
                     for e in energies])
    n = len(vals)
    mean = vals.mean()
    loo = (vals.sum() - vals) / (n - 1)
    jk_se = math.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2))
    value, std_err = se.fold_ensemble(CFG, proto, se.SwapFamily(), 1500,
                                      seed=16).integral_ft[:2]
    assert value == pytest.approx(mean, rel=1e-12)
    assert std_err == pytest.approx(jk_se, rel=1e-10)


def test_integral_ft_top_share_is_the_largest_weight_over_the_weight_sum():
    proto = se.Protocol(n_pulses=10, tau2=0.65)
    st = se.fold_ensemble(CFG, proto, se.SwapFamily(), 1500, seed=16)
    terms = {}
    for key, count in st.counts.items():
        e = key.energetics(CFG.omega1, CFG.omega2)
        terms[key] = count * math.exp((CFG.beta2 - CFG.beta1) * e.dE1 - CFG.beta2 * e.w)
    _, _, top, share = st.integral_ft
    assert terms[top] == max(terms.values())
    assert share == pytest.approx(terms[top] / sum(terms.values()), rel=1e-12)
    # a weight sum that underflows to 0 gives a share of 0, not a division by 0:
    # the weight is exp(-(beta1*omega1 - beta2*omega2)*n_w) = exp(-1398)
    cold = se.EngineConfig(1.0, 700.0, 1.0, 1.0)
    st = se.EnsembleStats(params=se.RunParams(cold, proto, se.SwapFamily()))
    st.counts[se.LedgerKey(-2, 2, 0, 0, -2)] = 3
    assert st.integral_ft[2:] == (se.LedgerKey(-2, 2, 0, 0, -2), 0.0)


def test_integral_ft_reads_each_ledger_once(monkeypatch, tmp_path):
    # the estimate, its error and the top share come from one walk over the
    # keys: one energetics read-off per distinct ledger
    st = se.fold_ensemble(CFG, se.Protocol(n_pulses=10, tau2=0.65), se.SwapFamily(), 1500,
                          seed=16)
    reads = Counter()
    energetics = se.LedgerKey.energetics

    def counted(key, omega1, omega2):
        reads[key] += 1
        return energetics(key, omega1, omega2)

    monkeypatch.setattr(se.LedgerKey, "energetics", counted)
    st.integral_ft
    assert reads == Counter(dict.fromkeys(st.counts, 1))
    # so does everything one simulate call writes: at the benchmark's
    # ensemble command line, seed 2, one pass over the counts and one read
    # of each of the 370 distinct ledgers
    walks, folds = [], []

    class Walked(Counter):
        def __iter__(self):
            walks.append("__iter__")
            return super().__iter__()

        def items(self):
            walks.append("items")
            return super().items()

        def values(self):
            walks.append("values")
            return super().values()

    def walked_fold(*args):
        folded = se.fold_ensemble(*args)
        folded.counts = Walked(folded.counts)
        folds.append(folded)
        return folded

    monkeypatch.setattr(cli, "fold_ensemble", walked_fold)
    monkeypatch.chdir(tmp_path)
    reads.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--beta1", repr(2.0 / 3.0), "--beta2", "1.0",
                         "--omega1", "1.0", "--omega2", repr(5.0 / 6.0), "--pulses", "100",
                         "--tau2", "0.65", "--samples", "100000", "--seed", "2",
                         "--out-dir", "sim"]) == 0
    [folded] = folds
    assert walks == ["__iter__"]
    assert reads == Counter(dict.fromkeys(folded.counts, 1))
    assert len(reads) == 370


def _sorted_sums(counts: Counter, f) -> tuple:
    """Sums of count*f(key) and count*f(key)*f(key), key by key in sorted order."""
    s = ss = 0
    for key in sorted(counts):
        c, v = counts[key], f(key)
        s += c * v
        ss += c * v * v
    return s, ss


def _definition_read_off(stats: se.EnsembleStats) -> se.ReadOff:
    """ReadOff with each statistic taken from its definition by a walk of
    its own over the sorted keys."""
    cfg, counts = stats.params.cfg, stats.counts
    n = 0
    for key in sorted(counts):
        n += counts[key]

    def mean_se(s, ss, scale):
        if n < 2:
            return scale * (s / n), None
        return scale * (s / n), abs(scale) * math.sqrt(max((ss - s * s / n) / (n - 1), 0.0) / n)

    s_x, ss_x = _sorted_sums(counts, lambda k: k.x)
    s_y, ss_y = _sorted_sums(counts, lambda k: k.y)
    if stats.quantized:
        w = mean_se(s_x, ss_x, cfg.omega1 - cfg.omega2)
    elif n < 2:
        w = (cfg.omega1 * s_x + cfg.omega2 * s_y) / n, None
    else:
        s_xy = _sorted_sums(counts, lambda k: k.x * k.y)[0]
        var = (cfg.omega1 ** 2 * ((ss_x - s_x ** 2 / n) / (n - 1))
               + cfg.omega2 ** 2 * ((ss_y - s_y ** 2 / n) / (n - 1))
               + 2.0 * cfg.omega1 * cfg.omega2 * ((s_xy - s_x * s_y / n) / (n - 1)))
        w = (cfg.omega1 * s_x + cfg.omega2 * s_y) / n, math.sqrt(max(var, 0.0) / n)

    def weight(k):
        e = k.energetics(cfg.omega1, cfg.omega2)
        return math.exp((cfg.beta2 - cfg.beta1) * e.dE1 - cfg.beta2 * e.w)

    s, ss = _sorted_sums(counts, weight)
    terms = [(counts[k] * weight(k), k) for k in sorted(counts)]
    top_term = max(term for term, _ in terms)
    top = next(k for term, k in terms if term == top_term)   # the first largest
    hist_nw = hist_joint = None
    rigidity = quantization = 0
    if stats.quantized:
        hist_nw, hist_joint = Counter(), Counter()
        for k in sorted(counts):
            hist_nw[k.n_w] += counts[k]
        for k in sorted(counts):
            hist_joint[k.h1, k.n_w] += counts[k]
        for k in sorted(counts):
            rigidity += counts[k] if k.y != -k.x else 0
        d = cfg.omega1 - cfg.omega2
        for k in sorted(counts):
            off = d != 0 and round(k.energetics(cfg.omega1, cfg.omega2).w / d) != k.n_w
            quantization += counts[k] if off else 0
        hist_nw, hist_joint = dict(hist_nw), dict(hist_joint)
    return se.ReadOff(
        n, mean_se(s_x, ss_x, cfg.omega1), mean_se(s_y, ss_y, cfg.omega2), w,
        mean_se(*_sorted_sums(counts, lambda k: k.h1), cfg.omega1),
        mean_se(*_sorted_sums(counts, lambda k: k.h2), cfg.omega2),
        se.IntegralFt(*mean_se(s, ss, 1.0), top, top_term / s if s else 0.0),
        hist_nw, hist_joint, rigidity, quantization)


def _bits(value):
    """value with each float spelled by repr, so that == compares floats bit
    for bit (-0.0 and 0.0 apart)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


READ_OFF_CONFIGS = [
    CFG,
    # frequencies at which the float ratio route rounds apart
    se.EngineConfig(0.2, 0.3, 2.8510833966980074, 1.0043112108304078),
    se.EngineConfig(2.0 / 3.0, 1.0, 5.0 / 6.0, 1.0),   # omega2 > omega1
    se.EngineConfig(2.0 / 3.0, 1.0, 1.0, 1.0),         # no work lattice spacing
]
GENERIC_GATE = se.Generic(tuple(np.linspace(0.2, 2.0, 15)))


@st.composite
def histograms(draw) -> se.EnsembleStats:
    """An EnsembleStats of drawn swap-family or generic-gate ledgers with
    int counts or float weights; a swap-family ledger may break y = -x."""
    swap = draw(st.booleans())
    quanta, bit = st.integers(-12, 12), st.integers(-1, 1)
    if swap:
        ledger = st.builds(lambda n_w, db1, db2, shift: se.LedgerKey(
            n_w - db1, -n_w - db2 + shift, db1, db2, n_w),
            quanta, bit, bit, st.sampled_from((0, 0, 0, 1, -1)))
    else:
        ledger = st.builds(lambda h1, h2, db1, db2: se.LedgerKey(h1, h2, db1, db2, None),
                           quanta, quanta, bit, bit)
    weight = draw(st.sampled_from((st.integers(1, 10 ** 6),
                                   st.floats(1e-12, 1.0, allow_subnormal=False))))
    stats = se.EnsembleStats(se.RunParams(draw(st.sampled_from(READ_OFF_CONFIGS)),
                                          se.Protocol(12, 0.65),
                                          se.SwapFamily() if swap else GENERIC_GATE))
    stats.counts.update(draw(st.dictionaries(ledger, weight, min_size=1, max_size=30)))
    return stats


def _cold_stats(count) -> se.EnsembleStats:
    # every weight exp(-(beta1*omega1 - beta2*omega2)*n_w) = exp(-1398)
    # underflows, so the weight sum is 0
    cold = se.EngineConfig(1.0, 700.0, 1.0, 1.0)
    stats = se.EnsembleStats(se.RunParams(cold, se.Protocol(10, 0.65), se.SwapFamily()))
    stats.counts[se.LedgerKey(-2, 2, 0, 0, -2)] = count
    stats.counts[se.LedgerKey(-3, 2, 1, 0, -2)] = count
    return stats


@settings(derandomize=True, database=None, deadline=None)
@given(histograms())
@example(_cold_stats(3))
@example(_cold_stats(0.25))
def test_read_off_is_each_statistic_by_its_definition(stats):
    read = stats.read_off()
    assert _bits(read) == _bits(_definition_read_off(stats))
    if stats.params.cfg.beta2 == 700.0:
        assert read.integral_ft[2:] == (se.LedgerKey(-3, 2, 1, 0, -2), 0.0)


def test_efficiency_distribution_structure_and_modal_bin():
    records = HAND_RECORDS + [_rec(0, 0, db1=-1, db2=1)]
    dist = se.efficiency_distribution(se.accumulate(records).read_off(), CFG)
    assert list(dist._fields) == ["bins", "infinite", "undefined"]
    assert dist.bins == ((8, 1), (16, 2))
    assert dist.infinite == 1
    assert dist.undefined == 1
    assert sum(c for _, c in dist.bins) + dist.infinite + dist.undefined == 5
    assert dist.modal_bin() == (0.16, 0.17)


def test_efficiency_distribution_rejects_generic_runs():
    gen = se.Generic(tuple(np.linspace(0.2, 2.0, 15)))
    st = se.accumulate(se.run_ensemble(CFG, se.Protocol(3, 0.5), gen, 30,
                                       seed=1))
    assert not st.quantized
    with pytest.raises(se.ConfigError, match="swap-family runs only"):
        se.efficiency_distribution(st.read_off(), CFG)
    with pytest.raises(se.ConfigError, match="swap-family runs only"):
        se.ft_log_ratio(st.read_off())


def test_mixing_generic_and_swap_records_is_rejected():
    gen = se.Generic(tuple(np.linspace(0.2, 2.0, 15)))
    proto = se.Protocol(3, 0.5)
    generic_recs = list(se.run_ensemble(CFG, proto, gen, 5, seed=1))
    swap_recs = list(se.run_ensemble(CFG, proto, se.SwapFamily(), 5, seed=1,
                                     engine="events"))
    st = se.EnsembleStats()
    st.add(generic_recs[0])
    with pytest.raises(se.ConfigError):
        st.add(swap_recs[0])


def test_power_scan_divides_a_fixed_operation_time():
    rows = se.power_scan(CFG, 10.0, (1, 2, 5), sample_size=400, seed=3)
    t_op = 10.0 * se.relaxation_time(CFG)
    assert [r.n_pulses for r in rows] == [1, 2, 5]
    etas = {r.eta for r in rows}
    assert etas == {0.16666666666666663}  # identical bit for bit
    for row in rows:
        assert row.tau2 * row.n_pulses == pytest.approx(t_op, rel=1e-12)
        assert row.power == pytest.approx(
            row.work_output / (row.n_pulses * row.tau2), rel=1e-15)
        assert row.work_se > 0.0


def test_power_scan_is_deterministic_per_seed():
    a = se.power_scan(CFG, 10.0, (1, 5), sample_size=300, seed=5)
    b = se.power_scan(CFG, 10.0, (1, 5), sample_size=300, seed=5)
    assert a == b


def test_power_scan_input_validation():
    with pytest.raises(se.ConfigError, match="nonempty ascending"):
        se.power_scan(CFG, 10.0, (), 100, 0)
    with pytest.raises(se.ConfigError, match="nonempty ascending"):
        se.power_scan(CFG, 10.0, (5, 1), 100, 0)
    with pytest.raises(se.ConfigError, match="must be positive"):
        se.power_scan(CFG, -1.0, (1,), 100, 0)
    with pytest.raises(se.ConfigError, match=">= 1"):
        se.power_scan(CFG, 10.0, (0,), 100, 0)


def _jump(t: float, kind: str, bath: int) -> se.TrajectoryEvent:
    return se.TrajectoryEvent(t, kind, bath)


def _naive(out: se.Reconstruction) -> se.Energetics:
    return out.naive.energetics(CFG.omega1, CFG.omega2)


def test_reconstruction_naive_ledger_on_textbook_sequences():
    # two emissions in a row: two quanta released into bath 1
    out = se.reconstruct_from_events([_jump(0.2, "E", 1), _jump(0.7, "E", 1)],
                                     CFG)
    assert out.naive == se.LedgerKey(2, 0, 0, 0, None)
    e = _naive(out)
    assert e.q1 == 2.0 * CFG.omega1
    assert e.dE1 == e.q1  # ground-boundary convention
    assert e.w == e.q1 + e.q2
    assert out.survivors == 0 and out.refined is None

    # emission then absorption is self-contained inside the window
    out = se.reconstruct_from_events([_jump(0.2, "E", 1), _jump(0.7, "A", 1)],
                                     CFG)
    assert out.naive == se.LedgerKey(0, 0, 0, 0, None)
    e = _naive(out)
    assert e.q1 == 0.0 and e.dE1 == 0.0 and e.w == 0.0

    # a bare absorption parks a quantum until some later pulse removes it
    out = se.reconstruct_from_events([_jump(0.3, "A", 2)], CFG)
    assert out.naive == se.LedgerKey(0, -1, 0, 0, None)
    e = _naive(out)
    assert e.q2 == -CFG.omega2
    assert e.dE2 == e.q2
    assert e.w == pytest.approx(e.q1 + e.q2)


def test_reconstruction_rejects_malformed_streams():
    with pytest.raises(se.ConfigError, match="pulse markers must be stripped"):
        se.reconstruct_from_events([se.TrajectoryEvent(0.0, "P", 0, 0)], CFG)
    with pytest.raises(se.ConfigError, match="unknown bath label 3"):
        se.reconstruct_from_events([_jump(0.2, "E", 3)], CFG)
    with pytest.raises(se.ConfigError, match="strictly increasing"):
        se.reconstruct_from_events([_jump(0.5, "E", 1), _jump(0.4, "E", 1)],
                                   CFG)
    with pytest.raises(se.ConfigError, match="unknown jump kind 'X'"):
        se.reconstruct_from_events([se.TrajectoryEvent(0.2, "X", 1)], CFG)


def test_refined_reconstruction_recovers_simulated_work():
    proto = se.Protocol(n_pulses=25, tau2=0.65)
    quantum = CFG.omega1 - CFG.omega2
    recs = se.run_ensemble(CFG, proto, se.SwapFamily(), 30, seed=77,
                           keep_events=True, engine="events")
    single = 0
    for rec in recs:
        stripped = [ev for ev in rec.events if ev.kind != "P"]
        out = se.reconstruct_from_events(stripped, CFG, proto)
        if out.survivors == 1:   # the log pins the path: the whole ledger is exact
            assert out.refined == rec.ledger
            single += 1
        true = rec.energetics
        assert _naive(out).q1 == true.q1
        assert _naive(out).q2 == true.q2
        assert out.survivors >= 1
        assert isinstance(out.refined.n_w, int)
        assert (out.refined.h1, out.refined.h2) == (rec.ledger.h1, rec.ledger.h2)
        out.refined.check()
        assert abs(out.refined.n_w - rec.ledger.n_w) <= 1
        refined = out.refined.energetics(CFG.omega1, CFG.omega2)
        assert abs(refined.w - true.w) <= quantum
        assert abs(refined.dE1 - true.dE1) <= CFG.omega1
        assert abs(refined.dE2 - true.dE2) <= CFG.omega2
    assert single > 0


def test_reconstructed_energy_changes_are_the_jump_sums():
    proto = se.Protocol(n_pulses=25, tau2=0.65)
    recs = se.run_ensemble(CFG, proto, se.SwapFamily(), 30, seed=78,
                           keep_events=True, engine="events")
    for rec in recs:
        stripped = [ev for ev in rec.events if ev.kind != "P"]
        out = se.reconstruct_from_events(stripped, CFG)
        e = _naive(out)
        assert e.dE1 == e.q1 == rec.energetics.q1
        assert e.dE2 == e.q2 == rec.energetics.q2


def _bit_pair_refinement(events, cfg, protocol):
    """Reference refinement: each start bit pair (b1, b2), by falling Gibbs
    weight, walked through the swaps and jumps; (db1, db2, n_w) per survivor."""
    f1 = se.excited_population(cfg.beta1, cfg.omega1)
    f2 = se.excited_population(cfg.beta2, cfg.omega2)
    starts = sorted(((b1, b2) for b1 in (0, 1) for b2 in (0, 1)), reverse=True,
                    key=lambda b: (f1 if b[0] else 1 - f1) * (f2 if b[1] else 1 - f2))
    survivors = []
    for start in starts:
        bits, n_w, pulses = list(start), 0, 0
        for ev in [*events, None]:
            t = math.inf if ev is None else ev.time
            while pulses < protocol.n_pulses and pulses * protocol.tau2 <= t:
                n_w += bits[1] - bits[0]
                bits.reverse()
                pulses += 1
            if ev is None:
                survivors.append((bits[0] - start[0], bits[1] - start[1], n_w))
            elif bits[ev.bath - 1] != (ev.kind == "E"):
                break
            else:
                bits[ev.bath - 1] = int(ev.kind == "A")
    return survivors


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.sampled_from([CFG, se.EngineConfig(0.5, 1.0, 1.0, 0.5),   # tied weights
                        se.EngineConfig(1.0, 1.0, 0.7, 0.7)]),
       st.integers(0, 6),
       st.lists(st.tuples(st.floats(0.0, 4.0), st.sampled_from("EA"),
                          st.sampled_from((1, 2))),
                max_size=10, unique_by=lambda j: j[0]))
def test_refinement_matches_the_bit_pair_walk(cfg, n_pulses, jumps):
    # drawn logs, most of them impossible: the same survivors, and the
    # first of them by Gibbs weight gives the refined ledger
    protocol = se.Protocol(n_pulses, 0.65)
    events = [_jump(t, kind, bath) for t, kind, bath in sorted(jumps)]
    out = se.reconstruct_from_events(events, cfg, protocol)
    ref = _bit_pair_refinement(events, cfg, protocol)
    assert out.survivors == len(ref)
    if ref:
        assert (out.refined.db1, out.refined.db2, out.refined.n_w) == ref[0]
    else:
        assert out.refined is None


def test_refined_reconstruction_flags_impossible_logs():
    # two bath-1 emissions with no pulse between them cannot happen: the
    # qubit has no way to re-excite silently, so no candidate survives
    proto = se.Protocol(n_pulses=1, tau2=5.0)
    out = se.reconstruct_from_events([_jump(1.0, "E", 1), _jump(2.0, "E", 1)],
                                     CFG, proto)
    assert out.survivors == 0
    assert out.refined is None
    assert _naive(out).q1 == 2.0 * CFG.omega1  # naive bookkeeping still reported


@pytest.mark.parametrize("gamma", [0.25, 1.0, 3.5])
def test_path_log_ratio_of_a_hand_path(gamma):
    # |+-> swaps to |-+> at t = 0, and bath 2 takes the quantum at 0.3; the
    # survival factors cancel and the rate ratios carry no gamma
    cfg = CFG._replace(gamma=gamma)
    params = se.RunParams(cfg, se.Protocol(1, 1.0), se.SwapFamily())
    ratio, ledger = se.path_log_ratio(params, 1, [
        se.TrajectoryEvent(0.0, "P", 0, 0), _jump(0.3, "E", 2)])
    assert ratio == pytest.approx(CFG.beta2 * CFG.omega2 - CFG.beta1 * CFG.omega1,
                                  rel=0, abs=1e-14)
    assert ledger == se.LedgerKey(0, 1, -1, 0, -1)


def test_path_log_ratio_is_none_where_a_jump_annihilates():
    # after the swap |++> stays |++>, which bath 2 cannot excite further
    params = se.RunParams(CFG, se.Protocol(1, 1.0), se.SwapFamily())
    assert se.path_log_ratio(params, 0, [
        se.TrajectoryEvent(0.0, "P", 0, 0), _jump(0.3, "A", 2)]) is None


@pytest.mark.parametrize("start", [0, 1])
def test_path_log_ratio_is_infinite_where_only_the_reverse_needs_a_zero_rate(start):
    # at beta2 = 700 and gamma = 1e-20 bath 2's absorption rate underflows to
    # 0.0: its emission after the swap has a density, its reversal none
    cfg = se.EngineConfig(0.5, 700, 1, 1, gamma=1e-20)
    params = se.RunParams(cfg, se.Protocol(1, 1.0), se.SwapFamily())
    ratio, ledger = se.path_log_ratio(params, start, [
        se.TrajectoryEvent(0.0, "P", 0, 0), _jump(0.3, "E", 2)])
    assert ratio == math.inf
    assert ledger.h2 == 1
    # the absorption itself has density 0 forwards
    assert se.path_log_ratio(params, 3, [
        se.TrajectoryEvent(0.0, "P", 0, 0), _jump(0.3, "A", 2)]) is None


def test_path_log_ratio_where_a_gibbs_weight_underflows():
    # at beta1 = beta2 = 700 the weight of |++> is 0.0 though no rate is 0
    cfg = se.EngineConfig(700, 700, 1, 1)
    params = se.RunParams(cfg, se.Protocol(1, 1.0), se.SwapFamily())
    pulse = se.TrajectoryEvent(0.0, "P", 0, 0)
    assert se.path_log_ratio(params, 0, [pulse]) is None
    ratio, ledger = se.path_log_ratio(params, 1, [pulse, _jump(0.3, "A", 1)])
    assert ratio == math.inf
    assert ledger == se.LedgerKey(-1, 0, 0, 1, -1)


def test_path_log_ratio_does_not_depend_on_jump_times():
    # the survival factors cancel against the reverse's, so moving every
    # jump, in the same order, moves no result by a single bit
    protocol = se.Protocol(25, 0.65)
    params = se.RunParams(CFG, protocol, se.SwapFamily())
    for record in se.run_ensemble(CFG, protocol, params.gate, 200, seed=6,
                                  keep_events=True, engine="events"):
        moved = [ev if ev.kind == "P" else ev._replace(time=0.999 * ev.time)
                 for ev in record.events]
        for start in range(4):
            walk = se.path_log_ratio(params, start, record.events)
            assert se.path_log_ratio(params, start, moved) == walk


def test_path_log_ratio_checks_that_the_reverse_retraces_the_path(monkeypatch):
    # a bath-1 absorption map that is not the inverse of the emission's
    # sends the reversed walk from |-+> to |+-> instead of back to |++>
    monkeypatch.setitem(stats_module._JUMP_STEPS, (1, "A"),
                        ((-1, -1, 1, 0), (0, 0, 0, 0), 1))
    params = se.RunParams(CFG, se.Protocol(0, 1.0), se.SwapFamily())
    with pytest.raises(AssertionError, match="retrace"):
        se.path_log_ratio(params, 0, [_jump(0.3, "E", 1)])


def test_path_log_ratio_refuses_a_generic_gate():
    params = se.RunParams(CFG, se.Protocol(1, 1.0),
                          se.Generic(tuple(np.linspace(0.2, 2.0, 15))))
    with pytest.raises(se.ConfigError, match="swap-family"):
        se.path_log_ratio(params, 0, [se.TrajectoryEvent(0.0, "P", 0, 0)])


def test_path_log_ratio_breaks_without_detailed_balance(monkeypatch):
    # bath 1 absorbs 10% too fast, so the reversal of a bath-1 emission is
    # 10% too likely and the relation misses by ln 1.1
    honest = trajectory._dichotomic_rates

    def unbalanced(cfg):
        em1, ab1, em2, ab2 = honest(cfg)
        return em1, 1.1 * ab1, em2, ab2
    monkeypatch.setattr(trajectory, "_dichotomic_rates", unbalanced)
    params = se.RunParams(CFG, se.Protocol(1, 1.0), se.SwapFamily())
    ratio, ledger = se.path_log_ratio(params, 2, [
        se.TrajectoryEvent(0.0, "P", 0, 0), _jump(0.3, "E", 1)])
    e = ledger.energetics(CFG.omega1, CFG.omega2)
    gap = ratio - (CFG.beta1 * e.dE1 + CFG.beta2 * e.dE2)
    assert gap == pytest.approx(-math.log(1.1), rel=0, abs=1e-12)
    assert abs(gap) > 1e-3


def _worst_path_ratio_gap(params: se.RunParams, records) -> float:
    """Largest |path log ratio - (beta1*dE1 + beta2*dE2)| over every start
    consistent with each record; asserts that one of them walks to the
    record's own ledger."""
    cfg = params.cfg
    worst = 0.0
    for record in records:
        walks = [se.path_log_ratio(params, start, record.events) for start in range(4)]
        walks = [walk for walk in walks if walk is not None]
        assert record.ledger in [ledger for _, ledger in walks]
        for ratio, ledger in walks:
            e = ledger.energetics(cfg.omega1, cfg.omega2)
            worst = max(worst, abs(ratio - (cfg.beta1 * e.dE1 + cfg.beta2 * e.dE2)))
    return worst


@pytest.mark.parametrize("gate", [se.SwapFamily(), se.ISWAP,
                                  se.SwapFamily(0.3, -1.2, 2.0, 0.7)],
                         ids=["swap", "iswap", "phased-swap"])
@pytest.mark.parametrize("n_pulses,tau2", [(5, 0.5), (25, 0.65), (0, 0.7)])
def test_events_lane_records_obey_the_path_fluctuation_relation(gate, n_pulses, tau2):
    protocol = se.Protocol(n_pulses, tau2)
    records = se.run_ensemble(CFG, protocol, gate, 60, seed=4, keep_events=True,
                              engine="events")
    assert _worst_path_ratio_gap(se.RunParams(CFG, protocol, gate), records) < 1e-10


def test_the_package_exports_names_not_modules():
    for name in se.__all__:
        assert not isinstance(getattr(se, name), types.ModuleType), name
