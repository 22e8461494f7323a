"""Closed-form thermodynamics: occupations, per-cycle energetics, regimes.

Reference values were computed independently with mpmath at 40 decimal
digits, evaluated at the float-rounded inputs, then rounded to the nearest
float.  Library results must agree to a few ulp (rel 5e-16) unless noted.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swapengine as se

# Working point used throughout: beta1=2/3, beta2=1, omega1=1, omega2=5/6.
B1, B2, O1, O2 = 2.0 / 3.0, 1.0, 1.0, 5.0 / 6.0

# mpmath (dps=40) references at the float-rounded inputs above.
F1_REF = 0.33924363123418283        # excited population, qubit 1
F2_REF = 0.3029407160345927         # excited population, qubit 2
N1_REF = 1.055148339809722          # bosonic occupation, bath 1
N2_REF = 0.7686537521565651         # bosonic occupation, bath 2
DE1_REF = -0.03630291519959012      # per-swap mean energy change, qubit 1
DE2_REF = 0.03025242933299177       # per-swap mean energy change, qubit 2
W_REF = -0.0060504858665983525      # per-swap mean work (negative: output)
TAU_REF = 1.300975890892825         # relaxation time at gamma=1
ETA_CA_REF = 0.183503419072274      # Curzon-Ahlborn efficiency
OMEGA_STAR_REF = 0.8307943159126298  # max-power frequency ratio
ETA_STAR_REF = 0.1692056840873703   # efficiency at max power
W_MAX_REF = 0.00605189320154241     # max per-swap work output

REL = 5e-16


def _close(value: float, ref: float, rel: float = REL) -> bool:
    return math.isclose(value, ref, rel_tol=rel, abs_tol=0.0)


def test_excited_population_matches_reference():
    assert _close(se.excited_population(B1, O1), F1_REF)
    assert _close(se.excited_population(B2, O2), F2_REF)


def test_excited_population_limits():
    # infinite temperature -> 1/2, zero temperature -> 0
    assert se.excited_population(1e-300, 1.0) == pytest.approx(0.5, rel=1e-12)
    assert se.excited_population(1e6, 1.0) == 0.0


def test_bose_occupation_matches_reference():
    assert _close(se.bose_occupation(B1, O1), N1_REF)
    assert _close(se.bose_occupation(B2, O2), N2_REF)


def test_bose_and_fermi_occupations_are_consistent():
    # f = n / (2n + 1) links the two occupation functions
    rng = np.random.default_rng(11)
    for _ in range(200):
        beta = rng.uniform(0.1, 3.0)
        omega = rng.uniform(0.1, 3.0)
        n = se.bose_occupation(beta, omega)
        f = se.excited_population(beta, omega)
        assert _close(f, n / (2.0 * n + 1.0), rel=1e-13)


def test_mean_energetics_matches_reference():
    me = se.mean_energetics(se.EngineConfig(B1, B2, O1, O2))
    assert _close(me.dE1, DE1_REF)
    assert _close(me.dE2, DE2_REF)
    assert _close(me.w, W_REF)


def test_mean_energetics_first_law_is_exact():
    # w is assembled so that dE1 + dE2 == w holds bit for bit
    rng = np.random.default_rng(23)
    for _ in range(300):
        b1 = rng.uniform(0.2, 1.5)
        b2 = b1 * rng.uniform(1.0, 3.0)
        o1 = rng.uniform(0.3, 2.0)
        o2 = o1 * rng.uniform(0.2, 1.8)
        me = se.mean_energetics(se.EngineConfig(b1, b2, o1, o2))
        assert me.dE1 + me.dE2 == me.w


def test_mean_energetics_signs_track_population_imbalance():
    # excess excitation on qubit 1 flows to qubit 2 under the swap
    rng = np.random.default_rng(29)
    for _ in range(300):
        b1 = rng.uniform(0.2, 1.5)
        b2 = b1 * rng.uniform(1.0, 3.0)
        o1 = rng.uniform(0.3, 2.0)
        o2 = o1 * rng.uniform(0.2, 1.8)
        cfg = se.EngineConfig(b1, b2, o1, o2)
        df = se.excited_population(b1, o1) - se.excited_population(b2, o2)
        me = se.mean_energetics(cfg)
        assert me.dE1 == pytest.approx(-df * o1, rel=1e-14, abs=1e-18)
        assert me.dE2 == pytest.approx(df * o2, rel=1e-14, abs=1e-18)


@pytest.mark.parametrize(
    "b1,b2,o1,o2,expected",
    [
        (B1, B2, O1, O2, "HEAT_ENGINE"),
        (0.5, 1.0, 1.0, 0.4, "REFRIGERATOR"),
        (0.5, 1.0, 1.0, 1.25, "HEATER"),
        (0.5, 1.0, 1.0, 0.5, "BOUNDARY"),   # beta1*omega1 == beta2*omega2
        (0.5, 1.0, 1.0, 1.0, "BOUNDARY"),   # omega1 == omega2: zero work
        (0.5, 0.5, 1.0, 0.9, "REFRIGERATOR"),  # equal temperatures
    ],
)
def test_regime_classification_truth_table(b1, b2, o1, o2, expected):
    cfg = se.EngineConfig(b1, b2, o1, o2)
    assert se.classify_regime(cfg) is se.Regime[expected]


def test_regime_matches_sign_of_work_and_hot_heat():
    # engine: work out and heat drawn from the hot bath; heater: work in,
    # heat into both qubits reversed; refrigerator: heat pushed into bath 1
    rng = np.random.default_rng(31)
    seen = set()
    for _ in range(500):
        b1 = rng.uniform(0.2, 1.2)
        b2 = b1 * rng.uniform(1.01, 3.0)
        o1 = rng.uniform(0.3, 2.0)
        o2 = o1 * rng.uniform(0.2, 1.8)
        cfg = se.EngineConfig(b1, b2, o1, o2)
        regime = se.classify_regime(cfg)
        me = se.mean_energetics(cfg)
        seen.add(regime)
        if regime is se.Regime.HEAT_ENGINE:
            assert me.w < 0.0 and me.dE1 < 0.0
        elif regime is se.Regime.HEATER:
            assert me.w > 0.0 and me.dE1 < 0.0
        elif regime is se.Regime.REFRIGERATOR:
            assert me.w > 0.0 and me.dE1 > 0.0
    assert {se.Regime.HEAT_ENGINE, se.Regime.HEATER,
            se.Regime.REFRIGERATOR} <= seen


def test_efficiencies_at_working_point():
    eff = se.efficiencies(se.EngineConfig(B1, B2, O1, O2))
    assert eff.eta == 0.16666666666666663  # (1 - fl(5/6))/1, an exact difference
    assert eff.eta_carnot == 0.33333333333333337  # fl(1 - fl(2/3))
    assert _close(eff.cop, 5.0)
    assert eff.cop_carnot == 2.0
    assert _close(eff.eta_ca, ETA_CA_REF)


@settings(derandomize=True, database=None, deadline=None)
@given(beta1=st.floats(1e-3, 10.0), ratio=st.floats(1.0 + 1e-6, 5.0),
       omega1=st.floats(1e-3, 10.0), frac=st.floats(1e-6, 1.0 - 1e-6))
def test_eta_is_the_swap_ledgers_w_over_dE1(beta1, ratio, omega1, frac):
    # omega2 anywhere in the heat-engine window (omega1*beta1/beta2, omega1)
    lo = omega1 / ratio
    cfg = se.EngineConfig(beta1, beta1 * ratio, omega1, lo + frac * (omega1 - lo))
    e = se.LedgerKey(1, -1, 0, 0, 1).energetics(cfg.omega1, cfg.omega2)
    assert se.efficiencies(cfg).eta == e.w / e.dE1


def test_efficiencies_cop_undefined_when_no_cooling_window():
    eff = se.efficiencies(se.EngineConfig(0.5, 1.0, 1.0, 1.25))
    assert eff.cop is None
    assert eff.eta == -0.25
    eff = se.efficiencies(se.EngineConfig(0.5, 1.0, 1.0, 0.4))
    assert eff.cop == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert eff.cop_carnot == pytest.approx(1.0, rel=1e-15)


def test_post_swap_betas_at_working_point():
    pb1, pb2 = se.post_swap_betas(se.EngineConfig(B1, B2, O1, O2))
    assert _close(pb1, 0.8333333333333334)  # beta2 * omega2 / omega1
    assert _close(pb2, 0.8)                 # beta1 * omega1 / omega2


def test_post_swap_betas_bracketed_in_engine_regime():
    # after a full swap each qubit carries the other bath's occupancy,
    # so its effective beta lands between the two bath betas
    rng = np.random.default_rng(37)
    checked = 0
    while checked < 200:
        b1 = rng.uniform(0.2, 1.2)
        b2 = b1 * rng.uniform(1.05, 3.0)
        o1 = rng.uniform(0.3, 2.0)
        o2 = o1 * rng.uniform(b1 / b2 + 1e-3, 0.999)
        cfg = se.EngineConfig(b1, b2, o1, o2)
        if se.classify_regime(cfg) is not se.Regime.HEAT_ENGINE:
            continue
        pb1, pb2 = se.post_swap_betas(cfg)
        assert b1 <= pb1 <= b2
        assert b1 <= pb2 <= b2
        checked += 1


def test_relaxation_time_reference_and_gamma_scaling():
    assert _close(se.relaxation_time(se.EngineConfig(B1, B2, O1, O2)), TAU_REF)
    slow = se.relaxation_time(se.EngineConfig(B1, B2, O1, O2, gamma=0.25))
    assert slow == 4.0 * TAU_REF


def test_omega_star_matches_reference():
    mp = se.omega_star(B1, B2)
    assert _close(mp.omega_ratio, OMEGA_STAR_REF, rel=1e-15)
    assert _close(mp.eta_star, ETA_STAR_REF, rel=1e-15)
    assert mp.eta_star == pytest.approx(1.0 - mp.omega_ratio, rel=1e-14)
    assert mp.w_max == pytest.approx(W_MAX_REF, rel=1e-12)


def test_omega_star_is_a_local_maximum_of_work_output():
    def work_out(ratio: float) -> float:
        return -se.mean_energetics(se.EngineConfig(B1, B2, 1.0, ratio)).w

    mp = se.omega_star(B1, B2)
    center = work_out(mp.omega_ratio)
    assert center == pytest.approx(mp.w_max, rel=1e-12)
    assert center >= work_out(mp.omega_ratio - 5e-4)
    assert center >= work_out(mp.omega_ratio + 5e-4)


def test_omega_star_lies_inside_engine_window():
    rng = np.random.default_rng(41)
    for _ in range(50):
        b1 = rng.uniform(0.2, 1.2)
        b2 = b1 * rng.uniform(1.05, 3.0)
        mp = se.omega_star(b1, b2)
        assert b1 / b2 < mp.omega_ratio < 1.0
        assert mp.w_max > 0.0


@settings(derandomize=True, database=None, deadline=None)
@given(beta1=st.floats(1e-3, 20.0), ratio=st.floats(1.0 + 1e-6, 50.0))
def test_omega_star_is_the_last_float_of_positive_slope(beta1, ratio):
    beta2 = beta1 * ratio

    def slope(om: float) -> float:
        # d(-<w>)/d(Omega), evaluated as omega_star evaluates it
        f1 = se.excited_population(beta1, 1.0)
        f2 = se.excited_population(beta2, om)
        return beta2 * f2 * (1.0 - f2) * (1.0 - om) - (f1 - f2)

    om = se.omega_star(beta1, beta2).omega_ratio
    assert beta1 / beta2 < om < 1.0
    assert slope(om) > 0 >= slope(math.nextafter(om, 1.0))


def test_omega_star_rejects_degenerate_bath_ordering():
    with pytest.raises(se.ConfigError, match="engine window"):
        se.omega_star(1.0, 0.5)
    with pytest.raises(se.ConfigError, match="engine window"):
        se.omega_star(1.0, 1.0)
    with pytest.raises(se.ConfigError, match="engine window"):
        se.omega_star(0.0, 1.0)


def test_low_etaC_expansion_coefficients():
    # eta*/eta_C = 1/2 + b*eta_C + O(eta_C^2), checked against omega_star
    for beta2 in (0.5, 1.0, 2.0, 5.0):
        fit = se.low_etaC_expansion(beta2)
        assert fit.linear_coeff == 0.5
        assert fit.quad_coeff == beta2 / 16 * math.tanh(beta2 / 2)
        for etaC in np.geomspace(1e-3, 0.15, 40):
            ratio = se.omega_star(beta2 * (1.0 - etaC), beta2).eta_star / etaC
            assert abs(ratio - 0.5 - fit.quad_coeff * etaC) <= 0.2 * etaC ** 2


def test_low_etaC_expansion_rejects_bad_grids():
    for beta2 in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(se.ConfigError, match="finite positive"):
            se.low_etaC_expansion(beta2)


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(beta1=1.5, beta2=1.0, omega1=1.0, omega2=0.5),
         "beta1 must not exceed beta2"),
        (dict(beta1=-0.1, beta2=1.0, omega1=1.0, omega2=0.5),
         "beta1 must be a finite positive number"),
        (dict(beta1=0.5, beta2=1.0, omega1=0.0, omega2=0.5),
         "omega1 must be a finite positive number"),
        (dict(beta1=0.5, beta2=1.0, omega1=1.0, omega2=-0.5),
         "omega2 must be a finite positive number"),
        (dict(beta1=0.5, beta2=1.0, omega1=1.0, omega2=0.5, gamma=0.0),
         "gamma must be a finite positive number"),
        (dict(beta1=0.5, beta2=float("nan"), omega1=1.0, omega2=0.5),
         "finite positive number"),
        (dict(beta1=True, beta2=1.0, omega1=1.0, omega2=0.5),
         "beta1 must be a finite positive number, got True"),
        (dict(beta1=0.5, beta2=1.0, omega1=1.0, omega2=0.5, gamma=True),
         "gamma must be a finite positive number, got True"),
    ],
)
def test_engine_config_validation(kwargs, match):
    with pytest.raises(se.ConfigError, match=match):
        se.EngineConfig(**kwargs)
    with pytest.raises(se.ConfigError, match=match):
        se.EngineConfig(0.5, 1.0, 1.0, 0.5)._replace(**kwargs)
