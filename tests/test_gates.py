"""Gate construction, gate-resolved mean energetics and the exact gate optimum.

Mean energetics are linear in the doubly stochastic matrix |U_jk|^2, whose
extreme points are the 24 permutation matrices, so checking every
permutation certifies that no unitary can beat the exchange permutation.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swapengine as se

CFG = se.EngineConfig(beta1=2.0 / 3.0, beta2=1.0, omega1=1.0, omega2=5.0 / 6.0)

# exchange permutation on the ('++', '+-', '-+', '--') basis
SWAP_MATRIX = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)


def heat_engine_configs(seed: int, count: int) -> list[se.EngineConfig]:
    """Heat-engine configurations drawn as in the gate acceptance test."""
    rng = np.random.default_rng(seed)
    cfgs = []
    while len(cfgs) < count:
        b1 = float(rng.uniform(0.3, 1.0))
        b2 = b1 * float(rng.uniform(1.2, 3.0))
        lo = b1 / b2
        o2 = float(lo + rng.uniform(0.05, 0.95) * (1.0 - lo))
        cfg = se.EngineConfig(b1, b2, 1.0, o2)
        if se.classify_regime(cfg) is se.Regime.HEAT_ENGINE:
            cfgs.append(cfg)
    return cfgs


def test_plain_swap_gate_is_the_exchange_permutation():
    U = se.build_gate(se.SwapFamily())
    assert np.array_equal(U.entries, SWAP_MATRIX.astype(complex))


def test_swap_family_gates_are_unitary():
    rng = np.random.default_rng(3)
    for _ in range(100):
        phis = tuple(rng.uniform(0.0, 2.0 * np.pi, size=4))
        U = se.build_gate(se.SwapFamily(*phis)).entries
        assert np.allclose(U @ U.conj().T, np.eye(4), atol=1e-12)


def test_generic_gates_are_unitary():
    rng = np.random.default_rng(5)
    for _ in range(100):
        angles = tuple(rng.uniform(0.0, 2.0 * np.pi, size=15))
        U = se.build_gate(se.Generic(angles)).entries
        assert np.allclose(U @ U.conj().T, np.eye(4), atol=1e-12)


def test_iswap_has_swap_transition_probabilities_with_quarter_phase():
    U = se.build_gate(se.ISWAP).entries
    assert np.allclose(np.abs(U) ** 2, SWAP_MATRIX, atol=1e-15)
    assert U[1, 2] == pytest.approx(1.0j, abs=1e-12)
    assert U[2, 1] == pytest.approx(1.0j, abs=1e-12)


def test_unitary4_rejects_non_unitary_matrices():
    swap = se.build_gate(se.SwapFamily())
    # the NaN matrix's deviation is NaN
    for entries in (np.ones((4, 4), dtype=complex),
                    np.full((4, 4), np.nan, dtype=complex)):
        for make in (se.Unitary4, lambda m: swap._replace(entries=m)):
            with pytest.raises(ValueError, match="not unitary"):
                make(entries)


def test_unitary4_refuses_a_non_unitary_or_non_4x4_matrix():
    # a gate matrix is checked where it is wrapped, by Unitary4
    swap = se.build_gate(se.SwapFamily())
    for entries, match in ((2.0 * SWAP_MATRIX, "not unitary"),
                           (np.eye(3), "4x4")):
        for make in (se.Unitary4, lambda m: swap._replace(entries=m)):
            with pytest.raises(ValueError, match=match):
                make(entries)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_swap_family_needs_four_finite_phases(bad):
    for k in range(4):
        phases = [0.0] * 4
        phases[k] = bad
        with pytest.raises(ValueError, match="4 finite phases"):
            se.SwapFamily(*phases)
        with pytest.raises(ValueError, match="4 finite phases"):
            se.ISWAP._replace(**{f"phi{k + 1}": bad})


def test_generic_gate_needs_fifteen_finite_angles():
    for angles in ((0.0,) * 14, (0.0,) * 14 + (float("nan"),)):
        with pytest.raises(ValueError, match="15 finite angles"):
            se.Generic(angles=angles)
        with pytest.raises(ValueError, match="15 finite angles"):
            se.Generic()._replace(angles=angles)


def test_gibbs_populations_are_a_product_of_single_qubit_weights():
    rng = np.random.default_rng(17)
    for _ in range(100):
        b1 = rng.uniform(0.2, 1.5)
        b2 = b1 * rng.uniform(1.0, 3.0)
        o1 = rng.uniform(0.3, 2.0)
        o2 = o1 * rng.uniform(0.2, 1.8)
        cfg = se.EngineConfig(b1, b2, o1, o2)
        f1 = se.excited_population(b1, o1)
        f2 = se.excited_population(b2, o2)
        expected = [f1 * f2, f1 * (1 - f2), (1 - f1) * f2, (1 - f1) * (1 - f2)]
        p = se.gibbs_populations(cfg)
        assert p == pytest.approx(expected, rel=1e-14)
        assert p.sum() == pytest.approx(1.0, abs=1e-15)


def test_swap_gate_energetics_match_the_closed_form():
    via_gate = se.mean_energetics_for_gate(se.build_gate(se.SwapFamily()), CFG)
    closed = se.mean_energetics(CFG)
    assert via_gate.dE1 == pytest.approx(closed.dE1, rel=1e-12)
    assert via_gate.dE2 == pytest.approx(closed.dE2, rel=1e-12)
    assert via_gate.w == pytest.approx(closed.w, rel=1e-12)


def test_gate_energetics_accept_wrapped_and_raw_matrices():
    U = se.build_gate(se.ISWAP)
    assert se.mean_energetics_for_gate(U, CFG) == se.mean_energetics_for_gate(
        U.entries, CFG
    )


def test_swap_family_energetics_ignore_phases():
    base = se.mean_energetics_for_gate(se.build_gate(se.SwapFamily()), CFG)
    rng = np.random.default_rng(19)
    for _ in range(50):
        phis = tuple(rng.uniform(0.0, 2.0 * np.pi, size=4))
        U = se.build_gate(se.SwapFamily(*phis))
        me = se.mean_energetics_for_gate(U, CFG)
        assert me.dE1 == pytest.approx(base.dE1, rel=1e-12)
        assert me.dE2 == pytest.approx(base.dE2, rel=1e-12)
        assert me.w == pytest.approx(base.w, rel=1e-12)
        # basis state i goes to the j with |U_ji| = 1
        assert tuple(np.argmax(np.abs(U.entries), axis=0)) == se.SWAP_PERMUTATION
    iswap = se.build_gate(se.ISWAP).entries
    assert tuple(np.argmax(np.abs(iswap), axis=0)) == se.SWAP_PERMUTATION


def test_iswap_energetics_equal_swap_energetics():
    swap = se.mean_energetics_for_gate(se.build_gate(se.SwapFamily()), CFG)
    iswap = se.mean_energetics_for_gate(se.build_gate(se.ISWAP), CFG)
    assert iswap.w == pytest.approx(swap.w, rel=1e-12)
    assert iswap.dE1 == pytest.approx(swap.dE1, rel=1e-12)


def test_swap_minimizes_work_among_all_permutation_gates():
    w_swap = se.mean_energetics_for_gate(SWAP_MATRIX, CFG).w
    values = []
    for perm in itertools.permutations(range(4)):
        P = np.zeros((4, 4))
        P[list(perm), range(4)] = 1.0
        values.append((se.mean_energetics_for_gate(P, CFG).w, perm))
    for w, perm in values:
        assert w >= w_swap - 1e-15
        if perm == (0, 1, 2, 3):
            assert w == 0.0
    assert min(values)[1] == (0, 2, 1, 3)


def test_quarter_turn_givens_angles_give_every_permutation():
    perms = set()
    for thetas in itertools.product((0.0, math.pi / 2), repeat=6):
        angles = (0.0,) * 3 + thetas + (0.0,) * 6
        b = np.abs(se.build_gate(se.Generic(angles)).entries) ** 2
        rounded = np.round(b)
        assert np.all(np.abs(b - rounded) <= 1e-30)
        assert np.array_equal(rounded.sum(axis=0), np.ones(4))
        assert np.array_equal(rounded.sum(axis=1), np.ones(4))
        perms.add(tuple(int(j) for j in np.argmax(rounded, axis=0)))
    assert perms == set(itertools.permutations(range(4)))


@pytest.mark.parametrize("cfg", [CFG, *heat_engine_configs(2024, 2)])
def test_random_gates_never_beat_the_swap(cfg):
    w_swap = se.mean_energetics_for_gate(SWAP_MATRIX, cfg).w
    best_out = se.optimize_gate(cfg).best_w
    rng = np.random.default_rng(43)
    for _ in range(300):
        angles = tuple(rng.uniform(0.0, 2.0 * np.pi, size=15))
        w = se.mean_energetics_for_gate(se.build_gate(se.Generic(angles)), cfg).w
        assert w >= w_swap - 1e-12
        assert -w <= best_out + 1e-12


def test_optimize_gate_lands_on_the_swap_value():
    opt = se.optimize_gate(CFG)
    swap_out = -se.mean_energetics(CFG).w
    assert len(opt.best_angles) == 15
    assert opt.best_w == pytest.approx(swap_out, rel=1e-9)
    assert math.isclose(opt.best_w, swap_out, rel_tol=1e-15, abs_tol=0.0)
    # the optimum may only exceed the swap value by rounding noise
    assert opt.gap_to_swap >= -1e-9
    assert opt.gap_to_swap <= 1e-6
    # one route to both values: the swap wins, and best_w is its -<w>
    assert opt.gap_to_swap == 0.0
    assert opt.best_w == -opt.optimum.w


def test_each_corner_permutation_is_its_givens_product():
    corners = se.gates._corners()
    assert len(corners) == 64
    for angles, cols in corners:
        b = np.zeros((4, 4))
        b[list(cols), range(4)] = 1.0
        assert np.all(np.abs(np.abs(se.gates._generic_matrix(angles)) ** 2 - b) <= 1e-30)


def _optimize_by_matrices(cfg):
    """optimize_gate as a loop over the 64 complex Givens products: the
    reference the permutation evaluation must equal bit for bit."""
    q = se.gates._centered_populations(cfg)
    best, best_angles = None, ()
    for thetas in itertools.product((0.0, math.pi / 2), repeat=6):
        angles = (0.0,) * 3 + thetas + (0.0,) * 6
        b = np.abs(se.gates._generic_matrix(angles)) ** 2
        dq1, dq2 = (b @ q - q) @ np.array(se.BASIS_BITS, dtype=float)
        dE1, dE2 = cfg.omega1 * float(dq1), cfg.omega2 * float(dq2)
        if best is None or dE1 + dE2 < best.w:
            best, best_angles = se.MeanEnergetics(dE1, dE2, dE1 + dE2), angles
    return se.GateOptimum(best_angles, best, best.w - se.mean_energetics_for_gate(
        SWAP_MATRIX, cfg).w)


# magnitudes from subnormal to near the float limit, as the CLI fuzz tests draw
MAGNITUDES = (1e-320, 1e-200, 1e-10, 0.5, 1.0, 100.0, 700.0, 1e300)


@st.composite
def engine_configs(draw):
    """Configs with beta1 <= beta2 and omega1 drawn from MAGNITUDES or
    [1e-3, 1e3], and omega2 inside the heat-engine window
    (beta1/beta2*omega1, omega1), near its ends or anywhere in it."""
    value = st.sampled_from(MAGNITUDES) | st.floats(1e-3, 1e3)
    beta1, beta2 = sorted((draw(value), draw(value)))
    omega1 = draw(value)
    lo = beta1 / beta2
    frac = draw(st.sampled_from((1e-300, 1e-10, 1.0 - 1e-10)) | st.floats(0.0, 1.0))
    return beta1, beta2, omega1, omega1 * (lo + frac * (1.0 - lo))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(engine_configs())
def test_optimize_gate_equals_the_matrix_loop(params):
    try:
        cfg = se.EngineConfig(*params)
    except se.ConfigError:
        return
    if se.classify_regime(cfg) is not se.Regime.HEAT_ENGINE:
        with pytest.raises(se.ConfigError, match="heat-engine"):
            se.optimize_gate(cfg)
        return
    # repr tells -0.0 from 0.0, which opt_gate.json would print
    assert repr(se.optimize_gate(cfg)) == repr(_optimize_by_matrices(cfg))


def test_optimize_gate_builds_no_matrix(monkeypatch):
    want = se.optimize_gate(CFG)

    def refuse(angles):
        raise AssertionError("optimize_gate built a Givens product")

    monkeypatch.setattr(se.gates, "_generic_matrix", refuse)
    assert se.optimize_gate(CFG) == want
    assert want.best_angles[3:9] == (0.0, 0.0, 0.0, math.pi / 2, 0.0, 0.0)


def test_optimize_gate_rejects_non_engine_configurations():
    with pytest.raises(se.ConfigError, match="heat-engine"):
        se.optimize_gate(se.EngineConfig(0.5, 1.0, 1.0, 0.4))
