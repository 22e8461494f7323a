"""Two-qubit gates for the swap engine and the exact gate-space work optimum.

Basis order is {|++>, |+->, |-+>, |-->} with qubit 1 as the left tensor
factor; "+" marks the excited level.  The swap family

    U = diag-block(e^{i phi1}, e^{i phi4}) + off-block(e^{i phi2}, e^{i phi3})

exchanges |+-> and |-+> up to phases; the iSWAP gate is the instance
(0, pi/2, pi/2, 0).  A generic element of U(4) (up to global phase) is
parametrized by 15 angles: three relative diagonal phases times a product of
six two-level Givens rotations, each carrying a mixing angle and a phase.
Mean energetics of a gate acting on the product Gibbs state depend only on
the doubly stochastic matrix B = |U_jk|^2, so every member of the swap family
moves the same average energy, and a linear objective peaks at a vertex of the
Birkhoff polytope: one of the 24 permutation gates (Birkhoff-von Neumann).
Enumerating them gives the exact optimum, which is the swap for a heat engine
(Campisi, Pekola & Fazio, NJP 17, 035012 (2015)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
# unused here; kept because bench/child.py wraps gates.minimize under --trace 1
from scipy.optimize import minimize  # noqa: F401

from .thermo import ConfigError, EngineConfig, MeanEnergetics, Regime, classify_regime, excited_population

# (b1, b2) occupation bits for basis states |++>, |+->, |-+>, |-->
BASIS_BITS = ((1, 1), (1, 0), (0, 1), (0, 0))

_UNITARITY_TOL = 1e-12

# index pairs rotated by the six Givens factors, fixed order
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@dataclass(frozen=True)
class Unitary4:
    """A 4x4 unitary matrix; entries validated to U^dag U = 1 within 1e-12."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        dev = np.max(np.abs(m.conj().T @ m - np.eye(4)))
        if dev > _UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary (max deviation {dev:.3e})")
        object.__setattr__(self, "entries", m)


@dataclass(frozen=True)
class SwapFamily:
    """Phased swap gate: phases phi1, phi4 on |++>,|-->, phi2, phi3 on the swap block."""

    phi1: float = 0.0
    phi2: float = 0.0
    phi3: float = 0.0
    phi4: float = 0.0


@dataclass(frozen=True)
class ISwap:
    """The swap-family member with phase i on the swap block."""


@dataclass(frozen=True)
class Generic:
    """15-angle parametrization of U(4) up to global phase.

    angles[0:3] are the relative diagonal phases, angles[3:9] the six Givens
    mixing angles, angles[9:15] the six Givens phases.
    """

    angles: tuple[float, ...] = field(default=(0.0,) * 15)

    def __post_init__(self) -> None:
        a = tuple(float(x) for x in self.angles)
        if len(a) != 15 or not all(math.isfinite(x) for x in a):
            raise ValueError("Generic gate needs 15 finite angles")
        object.__setattr__(self, "angles", a)


GateSpec = SwapFamily | ISwap | Generic


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
    if isinstance(spec, ISwap):
        spec = SwapFamily(0.0, math.pi / 2, math.pi / 2, 0.0)
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


def mean_energetics_for_gate(U: Unitary4 | np.ndarray, cfg: EngineConfig) -> MeanEnergetics:
    """Mean per-application energetics of an arbitrary gate from the bi-Gibbs state.

    dE_i = Tr H_i (U rho U^dag - rho) needs only the population transfer
    matrix B = |U|^2: row j of U collects basis state k with weight
    |U_jk|^2, so p'_j = sum_k B_jk p_k.
    """
    if isinstance(U, Unitary4):
        m = U.entries
    else:
        m = Unitary4(np.asarray(U, dtype=complex)).entries
    p = gibbs_populations(cfg)
    b = np.abs(m) ** 2
    dp = b @ p - p
    bits = np.array(BASIS_BITS, dtype=float)
    dE1 = cfg.omega1 * float(bits[:, 0] @ dp)
    dE2 = cfg.omega2 * float(bits[:, 1] @ dp)
    return MeanEnergetics(dE1=dE1, dE2=dE2, w=dE1 + dE2)


@dataclass(frozen=True)
class GateOptimum:
    """Exact best work output, the angles realizing it, and the gap to the swap gate."""

    best_w: float
    best_angles: tuple[float, ...]
    gap_to_swap: float


def _work_output_of_angles(angles: tuple[float, ...], p: np.ndarray,
                           omega1: float, omega2: float) -> float:
    b = np.abs(_generic_matrix(angles)) ** 2
    dp = b @ p - p
    # work output = -(dE1 + dE2); bits pattern hard-coded for speed
    dE1 = omega1 * (dp[0] + dp[1])
    dE2 = omega2 * (dp[0] + dp[2])
    return -(dE1 + dE2)


def optimize_gate(cfg: EngineConfig) -> GateOptimum:
    """Exact maximum of the mean work output over every two-qubit gate.

    With all phases 0 and each Givens mixing angle 0 or pi/2, the 64 angle
    vectors give |U|^2 within 1e-30 of the 24 permutation matrices; the first
    maximum in that order wins.  best_w is the work output -<w> of the winner;
    gap_to_swap is the amount (zero up to rounding) by which the swap beats it.
    """
    if classify_regime(cfg) is not Regime.HEAT_ENGINE:
        raise ConfigError("gate optimization targets heat-engine configurations")
    # B p - p ignores a constant shift of p, so the populations enter less 1/4,
    # built from f = 1/2 + u: their differences carry no rounding of the 1/4
    u1 = excited_population(cfg.beta1, cfg.omega1) - 0.5
    u2 = excited_population(cfg.beta2, cfg.omega2) - 0.5
    s = 2.0 * np.array(BASIS_BITS) - 1.0
    q = 0.5 * (s[:, 0] * u1 + s[:, 1] * u2) + s[:, 0] * s[:, 1] * (u1 * u2)
    # swap exchanges q[1] <-> q[2]; output -<w> = (q[1]-q[2])*(omega1-omega2)
    swap_out = (q[1] - q[2]) * (cfg.omega1 - cfg.omega2)
    best_out = -math.inf
    best_angles: tuple[float, ...] = ()
    for thetas in itertools.product((0.0, math.pi / 2), repeat=6):
        angles = (0.0,) * 3 + thetas + (0.0,) * 6
        out = _work_output_of_angles(angles, q, cfg.omega1, cfg.omega2)
        if out > best_out:
            best_out, best_angles = out, angles
    return GateOptimum(best_w=float(best_out), best_angles=best_angles,
                       gap_to_swap=float(swap_out - best_out))


def fit_to_matrix(target: np.ndarray) -> tuple[tuple[float, ...], float]:
    """Factor a unitary into the 15-angle form, up to global phase.

    Undoes the six Givens factors of the form from the right, last first:
    the factor on pair (j, k) is chosen to zero entry (k, j) of the working
    copy, with mixing angle atan2(|a|, |b|) and phase arg b - arg a for
    a, b its entries (k, j), (k, k).  Unitarity leaves a diagonal matrix,
    whose phases relative to entry (3, 3) are the three diagonal angles.
    Returns the angles with the max entrywise distance after phase alignment;
    a target that is not a 4x4 unitary raises ValueError.
    """
    v = Unitary4(target).entries
    w = v.copy()
    thetas: list[float] = []
    lams: list[float] = []
    for j, k in reversed(_PAIRS):
        a, b = w[k, j], w[k, k]
        th = math.atan2(abs(a), abs(b))
        lam = 0.0 if a == 0 or b == 0 else float(np.angle(b) - np.angle(a))
        c, s = math.cos(th), math.sin(th)
        ep = complex(math.cos(lam), math.sin(lam))
        col_j = w[:, j].copy()
        w[:, j] = c * col_j - s * ep.conjugate() * w[:, k]
        w[:, k] = s * ep * col_j + c * w[:, k]
        thetas.append(th)
        lams.append(lam)
    phases = np.angle(np.diag(w)[:3]) - np.angle(w[3, 3])
    angles = tuple(float(x) for x in [*phases, *thetas[::-1], *lams[::-1]])
    u = _generic_matrix(angles)
    tr = np.trace(v.conj().T @ u)
    u_aligned = u * np.exp(-1j * np.angle(tr))
    dist = float(np.max(np.abs(u_aligned - v)))
    return angles, dist
