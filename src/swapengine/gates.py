"""Two-qubit gates for the swap engine and the exact gate-space work optimum.

Basis order is {|++>, |+->, |-+>, |-->} with qubit 1 as the left tensor
factor; "+" marks the excited level.  The swap family

    U = diag-block(e^{i phi1}, e^{i phi4}) + off-block(e^{i phi2}, e^{i phi3})

exchanges |+-> and |-+> up to phases, so every member permutes the basis
by SWAP_PERMUTATION; ISWAP is the member (0, pi/2, pi/2, 0).  A generic
element of U(4) (up to global phase) is parametrized by 15 angles: three
relative diagonal phases times a product of six two-level Givens rotations,
each carrying a mixing angle and a phase.
Mean energetics of a gate acting on the product Gibbs state depend only on
the doubly stochastic matrix B = |U_jk|^2, so every member of the swap family
moves the same average energy, and a linear objective peaks at a vertex of the
Birkhoff polytope: one of the 24 permutation gates (Birkhoff-von Neumann).
Evaluating them all at once gives the exact optimum, which is the swap for a
heat engine (Campisi, Pekola & Fazio, NJP 17, 035012 (2015)).
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .thermo import (ConfigError, EngineConfig, MeanEnergetics, Regime, _Checked,
                     classify_regime, excited_population)

# (b1, b2) occupation bits for basis states |++>, |+->, |-+>, |-->
BASIS_BITS = ((1, 1), (1, 0), (0, 1), (0, 0))
_BITS = np.array(BASIS_BITS, dtype=float)

# the basis permutation of every swap-family gate: basis state i goes to
# SWAP_PERMUTATION[i], so |+-> and |-+> trade places; the pulse moves
# SWAP_TRANSFER[i] = b1(SWAP_PERMUTATION[i]) - b1(i) quanta into qubit 1
SWAP_PERMUTATION = (0, 2, 1, 3)
SWAP_TRANSFER = tuple(BASIS_BITS[j][0] - BASIS_BITS[i][0] for i, j in enumerate(SWAP_PERMUTATION))

_UNITARITY_TOL = 1e-12

# index pairs rotated by the six Givens factors, fixed order
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class _Unitary4Fields(NamedTuple):
    entries: np.ndarray


class Unitary4(_Checked, _Unitary4Fields):
    """A 4x4 unitary matrix; entries validated to U^dag U = 1 within 1e-12."""

    __slots__ = ()

    def _check(self) -> tuple[np.ndarray]:
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        dev = np.max(np.abs(m.conj().T @ m - np.eye(4)))
        if not dev <= _UNITARITY_TOL:   # a NaN deviation fails too
            raise ValueError(f"matrix is not unitary (max deviation {dev:.3e})")
        return (m,)


class _SwapFamilyFields(NamedTuple):
    phi1: float = 0.0
    phi2: float = 0.0
    phi3: float = 0.0
    phi4: float = 0.0


class SwapFamily(_Checked, _SwapFamilyFields):
    """Phased swap gate: phases phi1, phi4 on |++>,|-->, phi2, phi3 on the swap block."""

    __slots__ = ()

    def _check(self) -> SwapFamily:
        if not all(math.isfinite(p) for p in self):
            raise ValueError("swap gate needs 4 finite phases")
        return self


class _GenericFields(NamedTuple):
    angles: tuple[float, ...] = (0.0,) * 15


class Generic(_Checked, _GenericFields):
    """15-angle parametrization of U(4) up to global phase.

    angles[0:3] are the relative diagonal phases, angles[3:9] the six Givens
    mixing angles, angles[9:15] the six Givens phases.
    """

    __slots__ = ()

    def _check(self) -> tuple[tuple[float, ...]]:
        a = tuple(float(x) for x in self.angles)
        if len(a) != 15 or not all(math.isfinite(x) for x in a):
            raise ValueError("Generic gate needs 15 finite angles")
        return (a,)


# the swap-family member with phase i on the swap block
ISWAP = SwapFamily(0.0, math.pi / 2, math.pi / 2, 0.0)

GateSpec = SwapFamily | Generic


def _generic_matrix(angles: tuple[float, ...]) -> np.ndarray:
    phases = angles[0:3]
    thetas = angles[3:9]
    lams = angles[9:15]
    m = np.eye(4, dtype=complex)
    for (j, k), th, lam in zip(_PAIRS, thetas, lams):
        c = math.cos(th)
        s = math.sin(th)
        ep = complex(math.cos(lam), math.sin(lam))
        col_j = m[:, j].copy()
        col_k = m[:, k].copy()
        m[:, j] = c * col_j + s * ep.conjugate() * col_k
        m[:, k] = -s * ep * col_j + c * col_k
    d = np.exp(1j * np.array([phases[0], phases[1], phases[2], 0.0]))
    return d[:, None] * m


def build_gate(spec: GateSpec) -> Unitary4:
    """Realize a gate spec as a concrete 4x4 unitary."""
    if isinstance(spec, SwapFamily):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = complex(math.cos(spec.phi1), math.sin(spec.phi1))
        m[1, 2] = complex(math.cos(spec.phi2), math.sin(spec.phi2))
        m[2, 1] = complex(math.cos(spec.phi3), math.sin(spec.phi3))
        m[3, 3] = complex(math.cos(spec.phi4), math.sin(spec.phi4))
        return Unitary4(m)
    if isinstance(spec, Generic):
        return Unitary4(_generic_matrix(spec.angles))
    raise TypeError(f"unknown gate spec {spec!r}")


def gibbs_populations(cfg: EngineConfig) -> np.ndarray:
    """Diagonal of the product Gibbs state in the joint basis."""
    f1 = excited_population(cfg.beta1, cfg.omega1)
    f2 = excited_population(cfg.beta2, cfg.omega2)
    return np.array([f1 * f2, f1 * (1 - f2), (1 - f1) * f2, (1 - f1) * (1 - f2)])


def _centered_populations(cfg: EngineConfig) -> np.ndarray:
    """gibbs_populations less 1/4, built from f = 1/2 + u, so that their
    differences carry no rounding of the 1/4."""
    u1 = excited_population(cfg.beta1, cfg.omega1) - 0.5
    u2 = excited_population(cfg.beta2, cfg.omega2) - 0.5
    s = 2.0 * _BITS - 1.0
    return 0.5 * (s[:, 0] * u1 + s[:, 1] * u2) + s[:, 0] * s[:, 1] * (u1 * u2)


def _energy_changes(b: np.ndarray, q: np.ndarray, cfg: EngineConfig) -> np.ndarray:
    """(dE1, dE2) along the last axis for the transfer matrix b = |U|^2, or a
    stack of them, acting on the centered populations q: B p - p ignores a
    constant shift of p."""
    # each qubit's change of excited population, times its level spacing
    return (b @ q - q) @ _BITS * (cfg.omega1, cfg.omega2)


def _energetics(de: np.ndarray) -> MeanEnergetics:
    """MeanEnergetics of one (dE1, dE2) row of _energy_changes."""
    dE1, dE2 = de.tolist()
    return MeanEnergetics(dE1=dE1, dE2=dE2, w=dE1 + dE2)


def mean_energetics_for_gate(U: Unitary4 | np.ndarray, cfg: EngineConfig) -> MeanEnergetics:
    """Mean per-application energetics of an arbitrary gate from the bi-Gibbs state.

    dE_i = Tr H_i (U rho U^dag - rho) needs only the population transfer
    matrix B = |U|^2: row j of U collects basis state k with weight
    |U_jk|^2, so p'_j = sum_k B_jk p_k.
    """
    m = U.entries if isinstance(U, Unitary4) else Unitary4(np.asarray(U, dtype=complex)).entries
    return _energetics(_energy_changes(np.abs(m) ** 2, _centered_populations(cfg), cfg))


class GateOptimum(NamedTuple):
    """Exact best gate: its angles, its mean energetics, and the gap to the swap gate."""

    best_angles: tuple[float, ...]
    optimum: MeanEnergetics
    gap_to_swap: float

    @property
    def best_w(self) -> float:
        """The best work output, -<w> of the winner."""
        return -self.optimum.w


def _corners() -> list[tuple[tuple[float, ...], tuple[int, ...]]]:
    """The 64 angle vectors with all phases 0 and each Givens mixing angle 0
    or pi/2, each with its basis permutation: column c of |U|^2 is basis
    state cols[c].  At pi/2 the factor on pair (j, k) swaps columns j and k,
    up to sign and terms of about 6e-17, so the permutation is the product of
    those index transpositions in _PAIRS order."""
    corners = []
    for thetas in itertools.product((0.0, math.pi / 2), repeat=6):
        cols = [0, 1, 2, 3]
        for (j, k), th in zip(_PAIRS, thetas):
            if th:
                cols[j], cols[k] = cols[k], cols[j]
        corners.append(((0.0,) * 3 + thetas + (0.0,) * 6, tuple(cols)))
    return corners


# the corners' angle vectors, and their permutation matrices then the swap's
# as the last one: constants of the gate space, built once
_CORNER_ANGLES, _CORNER_COLS = zip(*_corners())
_CORNER_STACK = np.eye(4)[[*_CORNER_COLS, SWAP_PERMUTATION]].transpose(0, 2, 1)


def optimize_gate(cfg: EngineConfig) -> GateOptimum:
    """Exact maximum of the mean work output over every two-qubit gate.

    The 64 _corners reach all 24 permutation matrices; each corner's |U|^2
    is taken as its exact 0/1 permutation matrix, and all 64 go through
    _energy_changes in one batch, built without a complex matrix.  The first
    maximum in corner order wins.  For an exact permutation B, B q is q
    permuted without rounding, and each column of _BITS sums two entries, so
    the winner and its energetics are those of the Givens products, whose
    off-permutation terms fall below half an ulp.  gap_to_swap is the amount
    by which the swap's work output exceeds the winner's, 0 when the swap
    wins.
    """
    if classify_regime(cfg) is not Regime.HEAT_ENGINE:
        raise ConfigError("gate optimization targets heat-engine configurations")
    de = _energy_changes(_CORNER_STACK, _centered_populations(cfg), cfg)
    n = int(np.argmin(de[:-1, 0] + de[:-1, 1]))
    best = _energetics(de[n])
    return GateOptimum(best_angles=_CORNER_ANGLES[n], optimum=best,
                       gap_to_swap=best.w - _energetics(de[-1]).w)


def __getattr__(name: str):
    # bench/child.py wraps gates.minimize under --trace 1, and only that name
    # imports SciPy, when first asked for; the benchmark change that drops the
    # wrap deletes this hook together with opt-gate --restarts
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
