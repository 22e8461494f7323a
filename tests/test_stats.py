"""Ensemble accumulation, fluctuation-relation estimators, reconstruction.

Hand-built records with known integer ledgers pin the bookkeeping exactly;
simulated ensembles then check the statistical estimators against their
defining formulas (weighted least squares, jackknife) recomputed inline,
and the columnar fold of the bit lane against the record-by-record one.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

import swapengine as se
from swapengine import stats as stats_module

CFG = se.EngineConfig(beta1=2.0 / 3.0, beta2=1.0, omega1=1.0, omega2=5.0 / 6.0)
PARAMS = se.RunParams(CFG.beta1, CFG.beta2, CFG.omega1, CFG.omega2, CFG.gamma,
                      10, 0.65, "swap")


def _rec(h1: int, h2: int, db1: int = 0, db2: int = 0,
         params: se.RunParams = PARAMS) -> se.TrajectoryRecord:
    return se.TrajectoryRecord(params=params, initial_state="+-",
                               final_state="-+", p_initial=0.25, p_final=0.25,
                               h1=h1, h2=h2, db1=db1, db2=db2, n_w=h1 + db1)


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
    assert dict(st.hist_eta) == {16: 2, 8: 1}
    assert dict(st.eta_exact) == {Fraction(1, 1): 2, Fraction(1, 2): 1}
    assert st.eta_undefined == 1
    assert st.eta_infinite == 0
    assert st.rigidity_violations == 0
    assert st.quantization_violations == 0


def test_work_without_hot_heat_counts_as_infinite_efficiency():
    st = se.accumulate([_rec(0, 0, db1=-1, db2=1), _rec(0, 0)])
    assert st.eta_infinite == 1
    assert st.eta_undefined == 1
    assert not st.hist_eta


def test_ft_weight_sum_follows_the_definition():
    st = se.accumulate(HAND_RECORDS)
    weights = [math.exp((PARAMS.beta2 - PARAMS.beta1) * r.dE1
                        - PARAMS.beta2 * r.w) for r in HAND_RECORDS]
    value, std_err = st.integral_ft_estimate
    assert value == pytest.approx(np.mean(weights), rel=1e-15)
    assert std_err == pytest.approx(np.std(weights, ddof=1) / 2.0, rel=1e-14)


def test_accumulate_rejects_empty_and_inhomogeneous_streams():
    with pytest.raises(se.ConfigError, match="empty record stream"):
        se.accumulate([])
    other = PARAMS._replace(beta1=0.5)
    with pytest.raises(se.ConfigError, match="different runs"):
        se.accumulate([_rec(0, 0), _rec(0, 0, params=other)])


def test_add_asserts_the_integer_ledger():
    st = se.EnsembleStats()
    broken = se.TrajectoryRecord(params=PARAMS, initial_state="+-",
                                 final_state="-+", p_initial=0.25,
                                 p_final=0.25, h1=1, h2=0, db1=0, db2=0,
                                 n_w=0)
    with pytest.raises(AssertionError, match="ledger broken"):
        st.add(broken)


def test_rigidity_counter_ignores_last_bit_float_rounding():
    # at these frequencies the ratio route -(omega2/omega1)*dE1 double
    # rounds away from omega2*(h2+db2), but the ledger has y = -x exactly,
    # and that integer identity is what the counter checks
    o1, o2, n = 2.8510833966980074, 1.0043112108304078, -36
    params = se.RunParams(0.2, 0.3, o1, o2, 1.0, 10, 0.65, "swap")
    st = se.accumulate([_rec(n, -n, params=params)])
    assert o2 * -n != -(o2 / o1) * (o1 * n)
    assert st.rigidity_violations == 0
    assert st.quantization_violations == 0


def test_merge_combines_shards_in_any_order():
    proto = se.Protocol(n_pulses=5, tau2=0.65)
    records = list(se.run_ensemble(CFG, proto, se.SwapFamily(), 120, seed=14,
                                   engine="bits"))
    whole = se.accumulate(records)
    chunks = (records[:40], records[40:80], records[80:])
    for order in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
        merged = se.EnsembleStats()
        for i in order:
            out = merged.merge(se.accumulate(chunks[i]))
            assert out is merged  # in-place accumulation, returns self
        assert merged == whole
        assert merged.integral_ft_estimate == whole.integral_ft_estimate


@pytest.mark.parametrize("cfg,pulses,samples", [
    (CFG, 10, 3000),
    # frequencies at which the float ratio route rounds apart on many records
    (se.EngineConfig(0.2, 0.3, 2.8510833966980074, 1.0043112108304078), 20, 3000),
    # 4000 pulses make the bit lane's chunks 1048 rows long, so this crosses one
    (CFG, 4000, 1500),
])
def test_columnar_fold_equals_the_record_fold(cfg, pulses, samples):
    proto = se.Protocol(pulses, 0.65)
    folded = se.fold_ensemble(cfg, proto, se.SwapFamily(), samples, seed=21)
    by_record = se.accumulate(se.run_ensemble(cfg, proto, se.SwapFamily(),
                                              samples, seed=21, engine="bits"))
    assert folded == by_record
    assert folded.sample_size == samples
    assert folded.rigidity_violations == 0


def test_columnar_fold_asserts_the_integer_ledger(monkeypatch):
    def broken_chunks(cfg, protocol, sample_size, seed):
        one = np.ones(sample_size, dtype=np.int64)
        yield {"h1": one, "h2": -one, "b1i": 0 * one, "b1f": 0 * one,
               "b2i": 0 * one, "b2f": 0 * one, "n_w": 0 * one}
    monkeypatch.setattr(stats_module, "_bit_lane_chunks", broken_chunks)
    with pytest.raises(AssertionError, match="ledger broken"):
        se.fold_ensemble(CFG, se.Protocol(3, 0.5), se.SwapFamily(), 4, seed=0)


def test_merge_with_a_fresh_accumulator_is_the_identity():
    st = se.accumulate(HAND_RECORDS)
    assert se.EnsembleStats().merge(st) == st
    assert st.merge(se.EnsembleStats()) == st


def test_merge_rejects_mismatched_runs():
    other = PARAMS._replace(tau2=0.5)
    with pytest.raises(se.ConfigError, match="cannot merge"):
        se.accumulate(HAND_RECORDS).merge(se.accumulate([_rec(0, 0,
                                                              params=other)]))


def test_ft_log_ratio_on_exact_geometric_counts():
    # counts chosen so log[P(n)/P(-n)] = n log 2 exactly: the weighted
    # through-origin fit must return log 2 and the textbook error bar
    counts = {1: 100, -1: 50, 2: 40, -2: 10, 3: 16, -3: 2, 0: 7}
    records = [_rec(n, -n) for n, c in counts.items() for _ in range(c)]
    fr = se.ft_log_ratio(se.accumulate(records))
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
        se.ft_log_ratio(se.accumulate(records))


def test_ft_log_ratio_slope_matches_the_thermal_affinity():
    # slope of ln[P(n)/P(-n)] against n estimates beta1*omega1 - beta2*omega2
    proto = se.Protocol(n_pulses=10, tau2=0.65)
    st = se.accumulate(se.run_ensemble(CFG, proto, se.SwapFamily(), 30000,
                                       seed=71, engine="bits"))
    fr = se.ft_log_ratio(st)
    affinity = CFG.beta1 * CFG.omega1 - CFG.beta2 * CFG.omega2
    assert abs(fr.slope - affinity) < 4.0 * fr.slope_se
    assert fr.slope_se < 0.05


def test_ft_log_ratio_slope_vanishes_at_zero_affinity():
    cfg = se.EngineConfig(0.8, 1.0, 1.0, 0.8)  # beta1*omega1 == beta2*omega2
    proto = se.Protocol(n_pulses=20, tau2=0.5)
    st = se.accumulate(se.run_ensemble(cfg, proto, se.SwapFamily(), 20000,
                                       seed=72, engine="bits"))
    fr = se.ft_log_ratio(st)
    assert abs(fr.slope) < 4.0 * fr.slope_se


def test_integral_ft_is_exactly_one_for_reversible_null_protocols():
    # no pulses and equal temperatures: every trajectory weight is e^0
    cfg = se.EngineConfig(1.0, 1.0, 1.0, 5.0 / 6.0)
    records = se.run_ensemble(cfg, se.Protocol(0, 0.5), se.SwapFamily(),
                              1000, seed=15, engine="events")
    assert se.accumulate(records).integral_ft_estimate == (1.0, 0.0)


def test_integral_ft_matches_explicit_leave_one_out_jackknife():
    proto = se.Protocol(n_pulses=10, tau2=0.65)
    records = list(se.run_ensemble(CFG, proto, se.SwapFamily(), 1500, seed=16,
                                   engine="bits"))
    vals = np.array([math.exp((r.params.beta2 - r.params.beta1) * r.dE1
                              - r.params.beta2 * r.w) for r in records])
    n = len(vals)
    mean = vals.mean()
    loo = (vals.sum() - vals) / (n - 1)
    jk_se = math.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2))
    value, std_err = se.accumulate(records).integral_ft_estimate
    assert value == pytest.approx(mean, rel=1e-12)
    assert std_err == pytest.approx(jk_se, rel=1e-10)


def test_efficiency_distribution_structure_and_modal_bin():
    records = HAND_RECORDS + [_rec(0, 0, db1=-1, db2=1)]
    dist = se.efficiency_distribution(se.accumulate(records))
    assert dist.bins == ((8, 1), (16, 2))
    assert dist.bin_width == 0.01
    assert dist.infinite == 1
    assert dist.undefined == 1
    assert dist.exact == ((Fraction(1, 2), 1), (Fraction(1, 1), 2))
    assert dist.sample_size == 5
    assert sum(c for _, c in dist.bins) + dist.infinite + dist.undefined == 5
    assert dist.modal_bin() == (0.16, 0.17)


def test_efficiency_distribution_rejects_generic_runs():
    gen = se.Generic(tuple(np.linspace(0.2, 2.0, 15)))
    st = se.accumulate(se.run_ensemble(CFG, se.Protocol(3, 0.5), gen, 30,
                                       seed=1))
    assert not st.quantized
    with pytest.raises(se.ConfigError, match="swap-family runs only"):
        se.efficiency_distribution(st)
    with pytest.raises(se.ConfigError, match="swap-family runs only"):
        se.ft_log_ratio(st)


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


def test_reconstruction_pair_rule_on_textbook_sequences():
    # two emissions in a row need a hidden injection between them
    out = se.reconstruct_from_events([_jump(0.2, "E", 1), _jump(0.7, "E", 1)],
                                     CFG)
    assert out.injections == (se.InferredInjection(0.0, 0.2, 1, 1),
                              se.InferredInjection(0.2, 0.7, 1, 1))
    assert out.q1 == 2.0 * CFG.omega1
    assert out.dE1 == out.q1  # ground-boundary convention
    assert out.w == out.q1 + out.q2
    assert out.survivors == 0 and out.w_refined is None

    # emission then absorption is self-contained inside the window
    out = se.reconstruct_from_events([_jump(0.2, "E", 1), _jump(0.7, "A", 1)],
                                     CFG)
    assert out.injections == (se.InferredInjection(0.0, 0.2, 1, 1),
                              se.InferredInjection(0.7, math.inf, 1, -1))
    assert out.q1 == 0.0 and out.dE1 == 0.0 and out.w == 0.0

    # a bare absorption parks a quantum until some later pulse removes it
    out = se.reconstruct_from_events([_jump(0.3, "A", 2)], CFG)
    assert out.injections == (se.InferredInjection(0.3, math.inf, 2, -1),)
    assert out.q2 == -CFG.omega2
    assert out.dE2 == out.q2
    assert out.w == pytest.approx(out.q1 + out.q2)


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
    for rec in recs:
        stripped = [ev for ev in rec.events if ev.kind != "P"]
        out = se.reconstruct_from_events(stripped, CFG, proto)
        assert out.q1 == rec.q1
        assert out.q2 == rec.q2
        assert out.survivors >= 1
        assert isinstance(out.n_w, int)
        assert abs(out.w_refined - rec.w) <= quantum
        assert abs(out.dE1_refined - rec.dE1) <= CFG.omega1
        assert abs(out.dE2_refined - rec.dE2) <= CFG.omega2


def test_reconstructed_energy_changes_are_the_jump_sums():
    proto = se.Protocol(n_pulses=25, tau2=0.65)
    recs = se.run_ensemble(CFG, proto, se.SwapFamily(), 30, seed=78,
                           keep_events=True, engine="events")
    for rec in recs:
        stripped = [ev for ev in rec.events if ev.kind != "P"]
        out = se.reconstruct_from_events(stripped, CFG)
        assert out.dE1 == out.q1 == rec.q1
        assert out.dE2 == out.q2 == rec.q2
        n1 = sum(i.quanta for i in out.injections if i.bath == 1)
        n2 = sum(i.quanta for i in out.injections if i.bath == 2)
        assert (n1 * CFG.omega1, n2 * CFG.omega2) == (out.q1, out.q2)


def test_refined_reconstruction_flags_impossible_logs():
    # two bath-1 emissions with no pulse between them cannot happen: the
    # qubit has no way to re-excite silently, so no candidate survives
    proto = se.Protocol(n_pulses=1, tau2=5.0)
    out = se.reconstruct_from_events([_jump(1.0, "E", 1), _jump(2.0, "E", 1)],
                                     CFG, proto)
    assert out.survivors == 0
    assert out.w_refined is None and out.n_w is None
    assert out.q1 == 2.0 * CFG.omega1  # naive bookkeeping still reported
