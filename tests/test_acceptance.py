"""End-to-end acceptance checks at publication scale.

One test per headline claim; each docstring states the scale and tolerance.
Under pytest -v the test names double as a pass/fail checklist.  The three
fluctuation-relation checks share one million-trajectory ensemble built
once per module.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

import swapengine as se
from swapengine import cli

CFG = se.EngineConfig(beta1=2.0 / 3.0, beta2=1.0, omega1=1.0, omega2=5.0 / 6.0)
WORK_QUANTUM = CFG.omega1 - CFG.omega2


@pytest.fixture(scope="module")
def big_ensemble():
    """10^6 trajectories, 100 pulses, tau2=0.65, folded into one histogram."""
    proto = se.Protocol(n_pulses=100, tau2=0.65)
    start = time.perf_counter()
    stats = se.fold_ensemble(CFG, proto, se.SwapFamily(), 1_000_000, seed=2024)
    return stats, time.perf_counter() - start


def test_per_pulse_energetics_match_closed_forms_within_three_se():
    """10^5 trajectories, 2 pulses, tau2 = 8 relaxation times, < 60 s.

    Each pulse's sampled dE1, dE2, W must sit within 3 standard errors of
    the closed-form per-swap means.
    """
    closed = se.mean_energetics(CFG)
    tau2 = 8.0 * se.relaxation_time(CFG)
    start = time.perf_counter()
    means, ses = se.per_pulse_transfer_moments(CFG, se.Protocol(2, tau2),
                                               sample_size=100_000, seed=77)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    for mean, std_err in zip(means, ses):
        assert abs(CFG.omega1 * mean - closed.dE1) < 3 * CFG.omega1 * std_err
        assert abs(-CFG.omega2 * mean - closed.dE2) < 3 * CFG.omega2 * std_err
        assert abs(WORK_QUANTUM * mean - closed.w) < 3 * WORK_QUANTUM * std_err


def test_efficiencies_and_max_power_point_at_the_working_point():
    """eta = 1/6 and eta_C = 1/3 to float precision; Omega* = 0.83 +- 0.01
    and eta* = 0.17 +- 0.01."""
    eff = se.efficiencies(CFG)
    assert eff.eta == pytest.approx(1.0 / 6.0, rel=5e-16)
    assert eff.eta_carnot == pytest.approx(1.0 / 3.0, rel=5e-16)
    mp = se.omega_star(CFG.beta1, CFG.beta2)
    assert abs(mp.omega_ratio - 0.83) <= 0.01
    assert abs(mp.eta_star - 0.17) <= 0.01


def test_work_quanta_log_ratio_slope_is_the_affinity(big_ensemble):
    """10^6 trajectories, 100 pulses: the fitted slope of ln[P(n)/P(-n)]
    equals beta1*omega1 - beta2*omega2 = -1/6 within 2 fitted SE, built in
    under 15 minutes."""
    stats, build_seconds = big_ensemble
    assert build_seconds < 900.0
    assert stats.sample_size == 1_000_000
    fit = se.ft_log_ratio(stats.read_off())
    affinity = CFG.beta1 * CFG.omega1 - CFG.beta2 * CFG.omega2
    assert affinity == pytest.approx(-1.0 / 6.0, rel=1e-15)
    assert abs(fit.slope - affinity) <= 2.0 * fit.slope_se
    assert len(fit.points) >= 6


def test_integral_fluctuation_relation_holds_on_the_big_ensemble(big_ensemble):
    """Same 10^6 ensemble: <exp[(b2-b1) dE1 - b2 W]> = 1 within 3 standard
    errors."""
    stats, _ = big_ensemble
    value, std_err = stats.integral_ft[:2]
    assert std_err > 0.0
    assert abs(value - 1.0) <= 3.0 * std_err


def test_work_lattice_is_rigid_and_efficiency_peaks_at_the_swap_value(
        big_ensemble):
    """Same 10^6 ensemble: zero proportionality or lattice violations, the
    modal 0.01-wide efficiency bin is [0.16, 0.17), and the diverging
    efficiency branch (work without hot heat) is populated."""
    stats, _ = big_ensemble
    assert stats.rigidity_violations == 0
    assert stats.quantization_violations == 0
    dist = se.efficiency_distribution(stats.read_off(), CFG)
    assert dist.modal_bin() == (0.16, 0.17)
    assert dist.infinite > 0


@pytest.mark.parametrize("omega2,eta_expected",
                         [(0.7, 0.30000000000000004),
                          (0.83, 0.17000000000000004)])
def test_work_per_operation_time_grows_with_pulse_count(omega2, eta_expected):
    """Fixed operation time T = 30 relaxation times split into 1..200
    pulses: mean extracted work never decreases beyond 2 combined SE, and
    the efficiency column is one bit-identical value."""
    cfg = se.EngineConfig(CFG.beta1, CFG.beta2, CFG.omega1, omega2)
    rows = se.power_scan(cfg, 30.0, (1, 2, 5, 10, 20, 50, 100, 200),
                         sample_size=4000, seed=9)
    assert {r.eta for r in rows} == {eta_expected}
    for prev, cur in zip(rows, rows[1:]):
        slack = 2.0 * math.hypot(prev.work_se, cur.work_se)
        assert cur.work_output >= prev.work_output - slack, (
            f"work dropped from N={prev.n_pulses} to N={cur.n_pulses}")
    assert rows[-1].work_output > rows[0].work_output


def test_gate_search_never_beats_the_swap_and_reaches_it():
    """10 random heat-engine configurations, each optimized exactly over the
    24 permutation gates: the best unitary exceeds the swap work output by at
    most 1e-9 and comes within 1e-6 of it; in fact the swap wins exactly, and
    best_w is the winner's -<w>."""
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 10:
        b1 = float(rng.uniform(0.3, 1.0))
        b2 = b1 * float(rng.uniform(1.2, 3.0))
        lo = b1 / b2
        o2 = float(lo + rng.uniform(0.05, 0.95) * (1.0 - lo))
        cfg = se.EngineConfig(b1, b2, 1.0, o2)
        if se.classify_regime(cfg) is not se.Regime.HEAT_ENGINE:
            continue
        opt = se.optimize_gate(cfg)
        assert opt.gap_to_swap >= -1e-9, (b1, b2, o2)
        assert opt.gap_to_swap <= 1e-6, (b1, b2, o2)
        assert opt.gap_to_swap == 0.0, (b1, b2, o2)
        assert opt.best_w == -opt.optimum.w, (b1, b2, o2)
        checked += 1


def test_path_density_ratios_obey_the_detailed_fluctuation_theorem():
    """Events-lane records, each scored from every start consistent with
    its own pulsed events: ln p(start)*P[path] - ln p(end)*P[reversed path]
    = beta1*dE1 + beta2*dE2 within 1e-10, and one such start walks to the
    record's own ledger.  500 records of 25 pulses at the working point and
    60 of 100 pulses at beta1 = 0.05, beta2 = 30, omega2 = 0.5, where the
    sampled integral-FT estimate collapses and the ratio reaches hundreds."""
    largest = 0.0
    for cfg, protocol, size in (
            (CFG, se.Protocol(25, 0.65), 500),
            (se.EngineConfig(0.05, 30.0, 1.0, 0.5), se.Protocol(100, 0.65), 60)):
        params = se.RunParams(cfg, protocol, se.SwapFamily())
        for record in se.run_ensemble(cfg, protocol, params.gate, size, seed=2024,
                                      keep_events=True, engine="events"):
            walks = [se.path_log_ratio(params, s, record.events) for s in range(4)]
            walks = [walk for walk in walks if walk is not None]
            assert record.ledger in [ledger for _, ledger in walks]
            for ratio, ledger in walks:
                e = ledger.energetics(cfg.omega1, cfg.omega2)
                assert abs(ratio - (cfg.beta1 * e.dE1 + cfg.beta2 * e.dE2)) <= 1e-10
                largest = max(largest, abs(ratio))
    assert largest > 100.0


@pytest.mark.parametrize("beta2", [0.5, 1.0, 2.0])
def test_efficiency_at_max_power_expands_to_half_carnot(beta2):
    """eta* = etaC/2 + b*etaC^2 + O(etaC^3) with b = (beta2/16)*tanh(beta2/2):
    omega_star meets the series within 0.2*etaC^3 on etaC in (0, 0.15] for
    beta2 in {0.5, 1, 2}, so the linear coefficient is 1/2."""
    fit = se.low_etaC_expansion(beta2)
    assert fit.linear_coeff == 0.5
    for etaC in np.linspace(0.01, 0.15, 15):
        eta_star = se.omega_star(beta2 * (1.0 - etaC), beta2).eta_star
        assert abs(eta_star - 0.5 * etaC - fit.quad_coeff * etaC ** 2) <= 0.2 * etaC ** 3


def test_event_logs_alone_recover_the_work_within_one_quantum(tmp_path,
                                                              monkeypatch):
    """10^4 trajectories, 25 pulses, tau2=0.65: reconstruction from the
    stripped jump logs lands within one work quantum of the true W for
    every single trajectory."""
    monkeypatch.chdir(tmp_path)
    samples, pulses, tau2, seed = 10_000, 25, 0.65, 1234
    assert cli.main(["simulate", "--samples", str(samples),
                     "--pulses", str(pulses), "--tau2", str(tau2),
                     "--seed", str(seed), "--emit-logs",
                     "--out-dir", "sim"]) == 0
    logs = sorted((tmp_path / "sim" / "events").iterdir())
    assert len(logs) == samples
    assert cli.main(["analyze", *map(str, logs), "--pulses", str(pulses),
                     "--tau2", str(tau2), "--out-dir", "ana"]) == 0

    truth = se.run_ensemble(CFG, se.Protocol(pulses, tau2), se.SwapFamily(),
                            samples, seed=seed, engine="events")
    lines = (tmp_path / "ana" / "reconstruction.csv").read_text().splitlines()
    assert len(lines) == samples + 1
    tol = WORK_QUANTUM * (1.0 + 1e-12)
    for line, rec in zip(lines[1:], truth):
        fields = line.split(",")
        w_refined = float(fields[7])
        assert int(fields[8]) >= 1  # at least one consistent candidate
        assert abs(w_refined - rec.energetics.w) <= tol, fields[0]