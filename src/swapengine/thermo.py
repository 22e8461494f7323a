"""Closed-form thermodynamics of the two-qubit swap engine.

Two qubits with level spacings omega1, omega2 are each weakly coupled to a
thermal bath at inverse temperature beta1, beta2 (convention beta1 <= beta2,
bath 1 is not colder).  A swap gate applied to the joint bi-Gibbs state
exchanges the excitation populations, moving on average

    <dE1> = -(f(beta1*omega1) - f(beta2*omega2)) * omega1
    <dE2> = +(f(beta1*omega1) - f(beta2*omega2)) * omega2
    <w>   = <dE1> + <dE2>

per application, where f(x) = 1/(1 + e^x) is the excited-state population.
The sign of the population difference and the frequency ratio omega2/omega1
decide whether the machine extracts work (heat engine), pumps heat against
the gradient (refrigerator), or dumps work into both baths (heater).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np


class ConfigError(ValueError):
    """Invalid physical configuration."""


@dataclass(frozen=True)
class EngineConfig:
    """Physical parameters of the engine.

    beta1, beta2: inverse bath temperatures, beta1 <= beta2.
    omega1, omega2: qubit level spacings.
    gamma: bath coupling rate (sets the jump-rate scale).
    """

    beta1: float
    beta2: float
    omega1: float
    omega2: float
    gamma: float = 1.0

    def __post_init__(self) -> None:
        for name in ("beta1", "beta2", "omega1", "omega2", "gamma"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ConfigError(f"{name} must be a finite positive number, got {v!r}")
        if self.beta1 > self.beta2:
            raise ConfigError(
                f"beta1 must not exceed beta2 (bath 1 is the hotter one), "
                f"got beta1={self.beta1}, beta2={self.beta2}"
            )
        for i, x in ((1, self.beta1 * self.omega1), (2, self.beta2 * self.omega2)):
            if x > math.log(sys.float_info.max):
                raise ConfigError(f"beta{i}*omega{i} must keep e^(beta{i}*omega{i}) "
                                  f"finite, got {x}")


class Regime(Enum):
    HEAT_ENGINE = "HeatEngine"
    REFRIGERATOR = "Refrigerator"
    HEATER = "Heater"
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class MeanEnergetics:
    """Per-swap ensemble means; w == dE1 + dE2 by construction."""

    dE1: float
    dE2: float
    w: float


@dataclass(frozen=True)
class Efficiencies:
    """Efficiency figures; cop is None when omega2 >= omega1 (no cooling
    cycle), cop_carnot when beta1 == beta2 (no gradient)."""

    eta: float
    eta_carnot: float
    cop: float | None
    cop_carnot: float | None
    eta_ca: float


@dataclass(frozen=True)
class MaxPowerPoint:
    omega_ratio: float
    eta_star: float
    w_max: float


@dataclass(frozen=True)
class ExpansionFit:
    linear_coeff: float
    quad_coeff: float


def excited_population(beta: float, omega: float) -> float:
    """Excited-state population f = 1/(1 + e^{beta*omega}) of a thermal qubit.

    Evaluated as e^{-x}/(1 + e^{-x}) so large beta*omega cannot overflow.
    """
    if not (beta > 0 and omega > 0):
        raise ConfigError(f"beta and omega must be positive, got {beta}, {omega}")
    e = math.exp(-beta * omega)
    return e / (1.0 + e)


def bose_occupation(beta: float, omega: float) -> float:
    """Bath mode occupation n = 1/(e^{beta*omega} - 1), via expm1 for accuracy."""
    if not (beta > 0 and omega > 0):
        raise ConfigError(f"beta and omega must be positive, got {beta}, {omega}")
    return 1.0 / math.expm1(beta * omega)


def relaxation_time(cfg: EngineConfig) -> float:
    """The longer of the two thermal relaxation times, max_i (e^{beta_i omega_i} - 1)/gamma."""
    return max(math.expm1(cfg.beta1 * cfg.omega1),
               math.expm1(cfg.beta2 * cfg.omega2)) / cfg.gamma


def mean_energetics(cfg: EngineConfig) -> MeanEnergetics:
    """Per-swap mean energy changes of the two subsystems and the work input.

    df = f(beta1*omega1) - f(beta2*omega2) is the excitation surplus handed
    from qubit 1 to qubit 2 by one swap; dE1 = -df*omega1, dE2 = +df*omega2,
    and w is stored as dE1 + dE2 so the ledger closes exactly.
    """
    df = (excited_population(cfg.beta1, cfg.omega1)
          - excited_population(cfg.beta2, cfg.omega2))
    dE1 = -df * cfg.omega1
    dE2 = df * cfg.omega2
    return MeanEnergetics(dE1=dE1, dE2=dE2, w=dE1 + dE2)


def classify_regime(cfg: EngineConfig) -> Regime:
    """Operation regime from the frequency ratio.

    HeatEngine iff beta1/beta2 < omega2/omega1 < 1, Refrigerator iff
    omega2/omega1 < beta1/beta2, Heater iff omega2/omega1 > 1, Boundary on
    either equality.  Comparisons are cross-multiplied (beta1*omega1 vs
    beta2*omega2) so the boundary test does not depend on division rounding;
    the same products fix the sign of mean_energetics, so classification and
    sign pattern agree.
    """
    hot = cfg.beta1 * cfg.omega1   # < beta2*omega2 means qubit 1 is the more excited one
    cold = cfg.beta2 * cfg.omega2
    if cfg.omega2 == cfg.omega1 or hot == cold:
        return Regime.BOUNDARY
    if cfg.omega2 > cfg.omega1:
        return Regime.HEATER
    if hot < cold:
        return Regime.HEAT_ENGINE
    return Regime.REFRIGERATOR


def efficiencies(cfg: EngineConfig) -> Efficiencies:
    """Machine efficiency figures.

    eta = 1 - omega2/omega1 (work per unit heat drawn from bath 1, fixed by
    the frequency ratio alone), eta_carnot = 1 - beta1/beta2, cop =
    omega2/(omega1 - omega2) for the cooling mode (None when omega2 >=
    omega1), cop_carnot = 1/(beta2/beta1 - 1) (None when beta1 == beta2),
    and the Curzon-Ahlborn value
    eta_ca = 1 - sqrt(beta1/beta2).
    """
    eta = 1.0 - cfg.omega2 / cfg.omega1
    eta_carnot = 1.0 - cfg.beta1 / cfg.beta2
    cop = cfg.omega2 / (cfg.omega1 - cfg.omega2) if cfg.omega2 < cfg.omega1 else None
    cop_carnot = 1.0 / (cfg.beta2 / cfg.beta1 - 1.0) if cfg.beta1 < cfg.beta2 else None
    eta_ca = 1.0 - math.sqrt(cfg.beta1 / cfg.beta2)
    return Efficiencies(eta=eta, eta_carnot=eta_carnot, cop=cop,
                        cop_carnot=cop_carnot, eta_ca=eta_ca)


def post_swap_betas(cfg: EngineConfig) -> tuple[float, float]:
    """Effective inverse temperatures of the qubits right after a swap.

    The swap hands each qubit the other's Gibbs population, so qubit 1 sits
    at beta1' = beta2*omega2/omega1 and qubit 2 at beta2' = beta1*omega1/omega2.
    """
    return cfg.beta2 * cfg.omega2 / cfg.omega1, cfg.beta1 * cfg.omega1 / cfg.omega2


def _work_output(omega_ratio: float, beta1: float, beta2: float) -> float:
    """Work delivered to the drive per swap at omega1 = 1, omega2 = omega_ratio."""
    df = (excited_population(beta1, 1.0)
          - excited_population(beta2, omega_ratio))
    return df * (1.0 - omega_ratio)


def omega_star(beta1: float, beta2: float) -> MaxPowerPoint:
    """Frequency ratio maximizing the work output, and the efficiency there.

    With omega1 as the energy unit, f1 = f(beta1) and f2 = f(beta2*Omega),
    the work output -<w>(Omega) = (f1 - f2)*(1 - Omega) is strictly concave
    on the engine window (beta1/beta2, 1), since f is convex for positive
    argument.  Its slope beta2*f2*(1 - f2)*(1 - Omega) - (f1 - f2) falls
    from positive at the lower edge to negative at Omega = 1; bisection on
    its sign stops at two adjacent floats and returns the lower one, the
    largest float at which the slope is still positive.
    """
    if not (0 < beta1 < beta2):
        raise ConfigError(
            f"need 0 < beta1 < beta2 for an engine window, got {beta1}, {beta2}")
    f1 = excited_population(beta1, 1.0)
    lo, hi = beta1 / beta2, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        f2 = excited_population(beta2, mid)
        if beta2 * f2 * (1.0 - f2) * (1.0 - mid) - (f1 - f2) > 0:
            lo = mid
        else:
            hi = mid
    return MaxPowerPoint(omega_ratio=lo, eta_star=1.0 - lo,
                         w_max=_work_output(lo, beta1, beta2))


def low_etaC_expansion(beta2: float, etaC_grid: list[float]) -> ExpansionFit:
    """Expansion of the efficiency at maximum power for small Carnot efficiency.

    For each eta_C on the grid, set beta1 = beta2*(1 - eta_C), find eta* via
    omega_star, and least-squares fit eta*/eta_C = a + b*eta_C.  The linear
    coefficient a is universal (1/2); b depends on beta2.
    """
    if beta2 <= 0:
        raise ConfigError(f"beta2 must be positive, got {beta2}")
    grid = [float(x) for x in etaC_grid]
    if len(grid) < 3:
        raise ConfigError("need at least 3 grid points for a two-parameter fit")
    if any(not (0.0 < x <= 0.2) for x in grid):
        raise ConfigError("etaC grid points must lie in (0, 0.2]")
    xs = np.array(grid)
    ys = np.array([
        omega_star(beta2 * (1.0 - ec), beta2).eta_star / ec for ec in grid])
    b, a = np.polyfit(xs, ys, 1)
    return ExpansionFit(linear_coeff=float(a), quad_coeff=float(b))
