"""Gate construction, gate-resolved mean energetics, the exact gate optimum,
and the exact factorization of any unitary into the 15-angle form.

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
from scipy.stats import unitary_group

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
    U = se.build_gate(se.ISwap()).entries
    assert np.allclose(np.abs(U) ** 2, SWAP_MATRIX, atol=1e-15)
    assert U[1, 2] == pytest.approx(1.0j, abs=1e-12)
    assert U[2, 1] == pytest.approx(1.0j, abs=1e-12)


def test_unitary4_rejects_non_unitary_matrices():
    with pytest.raises(ValueError, match="not unitary"):
        se.Unitary4(np.ones((4, 4), dtype=complex))


def test_generic_gate_needs_fifteen_finite_angles():
    with pytest.raises(ValueError, match="15 finite angles"):
        se.Generic(angles=(0.0,) * 14)
    with pytest.raises(ValueError, match="15 finite angles"):
        se.Generic(angles=(0.0,) * 14 + (float("nan"),))


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
    U = se.build_gate(se.ISwap())
    assert se.mean_energetics_for_gate(U, CFG) == se.mean_energetics_for_gate(
        U.entries, CFG
    )


def test_swap_family_energetics_ignore_phases():
    base = se.mean_energetics_for_gate(se.build_gate(se.SwapFamily()), CFG)
    rng = np.random.default_rng(19)
    for _ in range(50):
        phis = tuple(rng.uniform(0.0, 2.0 * np.pi, size=4))
        me = se.mean_energetics_for_gate(se.build_gate(se.SwapFamily(*phis)), CFG)
        assert me.dE1 == pytest.approx(base.dE1, rel=1e-12)
        assert me.dE2 == pytest.approx(base.dE2, rel=1e-12)
        assert me.w == pytest.approx(base.w, rel=1e-12)


def test_iswap_energetics_equal_swap_energetics():
    swap = se.mean_energetics_for_gate(se.build_gate(se.SwapFamily()), CFG)
    iswap = se.mean_energetics_for_gate(se.build_gate(se.ISwap()), CFG)
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


@pytest.mark.parametrize("spec", [se.ISwap(), se.SwapFamily()])
def test_fit_to_matrix_recovers_named_gates(spec):
    target = se.build_gate(spec).entries
    angles, dist = se.fit_to_matrix(target)
    assert len(angles) == 15
    assert dist < 1e-12
    # phase-free cross-check: transition probabilities must agree too
    fitted = se.build_gate(se.Generic(angles)).entries
    assert np.allclose(np.abs(fitted) ** 2, np.abs(target) ** 2, atol=1e-12)


def test_fit_to_matrix_factors_every_permutation_gate():
    for perm in itertools.permutations(range(4)):
        P = np.zeros((4, 4))
        P[list(perm), range(4)] = 1.0
        _, dist = se.fit_to_matrix(P)
        assert dist <= 1e-12


def test_fit_to_matrix_factors_haar_random_unitaries():
    for U in unitary_group.rvs(4, size=200, random_state=5):
        _, dist = se.fit_to_matrix(U)
        assert dist <= 1e-12


def test_fit_to_matrix_rejects_non_unitary_targets():
    with pytest.raises(ValueError, match="not unitary"):
        se.fit_to_matrix(2.0 * SWAP_MATRIX)
    with pytest.raises(ValueError, match="4x4"):
        se.fit_to_matrix(np.eye(3))


@settings(derandomize=True, database=None, deadline=None)
@given(st.lists(st.floats(-2.0 * math.pi, 2.0 * math.pi), min_size=15,
                max_size=15))
def test_fit_to_matrix_factors_every_generic_gate(angles):
    target = se.build_gate(se.Generic(tuple(angles))).entries
    _, dist = se.fit_to_matrix(target)
    assert dist <= 1e-12


def test_optimize_gate_lands_on_the_swap_value():
    opt = se.optimize_gate(CFG)
    swap_out = -se.mean_energetics(CFG).w
    assert len(opt.best_angles) == 15
    assert opt.best_w == pytest.approx(swap_out, rel=1e-9)
    assert math.isclose(opt.best_w, swap_out, rel_tol=1e-15, abs_tol=0.0)
    # the optimum may only exceed the swap value by rounding noise
    assert opt.gap_to_swap >= -1e-9
    assert opt.gap_to_swap <= 1e-6


def test_optimize_gate_rejects_non_engine_configurations():
    with pytest.raises(se.ConfigError, match="heat-engine"):
        se.optimize_gate(se.EngineConfig(0.5, 1.0, 1.0, 0.4))
