"""Closed-form path densities for pulse-free relaxation and their time reversal.

During a pulse-free stretch each qubit is a two-level jump process with
emission rate gamma*(n+1) out of the excited state and absorption rate
gamma*n out of the ground state.  A path is then fully specified by the
initial bit and the ordered jump times (the jump kinds alternate), and its
probability density conditional on the initial bit is a product of jump-rate
factors and survival exponentials, all in closed form.

These densities feed the microscopic fluctuation-relation check: for any
path, log density(forward | start) - log density(reversed | reversed start)
equals beta*omega*(net emissions), i.e. the entropy flow into the bath.  The
reversed path runs the bit record backwards, which turns every emission into
an absorption and vice versa.  Adding the log-ratio of the initial Gibbs
weights of the two endpoint states turns the heat form into the
energy-change form of the same relation.  No sampling is involved anywhere
in this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .thermo import ConfigError, EngineConfig, bose_occupation, excited_population
from .trajectory import LedgerKey


@dataclass(frozen=True)
class QubitPath:
    """Pulse-free single-qubit path: initial bit plus ordered jump times.

    The jump kinds are implied: a two-level system can only emit from the
    excited state and absorb from the ground state, so kinds alternate
    starting from "E" if initial_bit is 1 and "A" otherwise.
    """

    initial_bit: int
    jump_times: tuple[float, ...]
    duration: float

    def __post_init__(self) -> None:
        if self.initial_bit not in (0, 1):
            raise ConfigError(f"initial_bit must be 0 or 1, got {self.initial_bit!r}")
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ConfigError(f"duration must be positive, got {self.duration!r}")
        last = 0.0
        for t in self.jump_times:
            if not 0.0 < t < self.duration or t <= last:
                raise ConfigError("jump times must be strictly increasing inside (0, duration)")
            last = t

    @property
    def kinds(self) -> tuple[str, ...]:
        first = "E" if self.initial_bit else "A"
        second = "A" if self.initial_bit else "E"
        return tuple(first if j % 2 == 0 else second for j in range(len(self.jump_times)))

    @property
    def final_bit(self) -> int:
        return self.initial_bit ^ (len(self.jump_times) & 1)

    @property
    def net_emissions(self) -> int:
        kinds = self.kinds
        return kinds.count("E") - kinds.count("A")


def reversed_path(path: QubitPath) -> QubitPath:
    """Time reverse: bit record read backwards, jump times reflected.

    The reversed path starts in the forward path's final bit; each forward
    emission at t becomes an absorption at duration - t.
    """
    times = tuple(path.duration - t for t in reversed(path.jump_times))
    return QubitPath(initial_bit=path.final_bit, jump_times=times,
                     duration=path.duration)


def log_path_density(path: QubitPath, beta: float, omega: float,
                     gamma: float = 1.0) -> float:
    """Log density of the path conditional on its initial bit.

    Product of the out-rate at each jump and the survival factor
    exp(-out_rate(bit)*dt) over each constant-bit segment, where
    out_rate(1) = gamma*(n+1) and out_rate(0) = gamma*n.
    """
    n = bose_occupation(beta, omega)
    out_rate = (gamma * n, gamma * (n + 1.0))   # indexed by the current bit
    bit = path.initial_bit
    t_prev = 0.0
    log_p = 0.0
    for t in path.jump_times:
        log_p += math.log(out_rate[bit]) - out_rate[bit] * (t - t_prev)
        bit ^= 1
        t_prev = t
    log_p -= out_rate[bit] * (path.duration - t_prev)
    return log_p


def heat_to_bath(path: QubitPath, omega: float) -> float:
    """Heat released into the bath along the path: omega per net emission."""
    return omega * path.net_emissions


def ft_log_ratio_exact(path: QubitPath, beta: float, omega: float,
                       gamma: float = 1.0) -> tuple[float, float]:
    """Both sides of the path-level detailed-balance relation.

    Returns (log forward density - log reversed density, beta * heat); the
    two agree identically because each jump factor contributes
    log(rate_emit/rate_abs) = beta*omega per net emission while the survival
    exponentials cancel segment by segment under time reversal.
    """
    lhs = log_path_density(path, beta, omega, gamma) \
        - log_path_density(reversed_path(path), beta, omega, gamma)
    rhs = beta * heat_to_bath(path, omega)
    return lhs, rhs


def joint_ft_log_ratio_exact(path1: QubitPath, path2: QubitPath,
                             cfg: EngineConfig) -> tuple[float, float]:
    """Two-qubit version with bi-Gibbs boundary weights folded in.

    Returns (lhs, rhs) of

        ln [p_a rho(gamma | a)] - ln [p_b rho(reversed gamma | b)]
            = beta1 dE1 + beta2 dE2

    where p are the initial product-Gibbs weights of the endpoint bit pairs
    and dE_i = omega_i * (net emissions + final bit - initial bit) is the
    energy handed to subsystem i, read off the pair's LedgerKey.  Pulse-free, so dE_i is identically 0 and
    both sides always vanish; the value of the check is that the two sides
    are computed along entirely different routes.
    """
    if path1.duration != path2.duration:
        raise ConfigError("the two qubit paths must share one duration")
    f1 = excited_population(cfg.beta1, cfg.omega1)
    f2 = excited_population(cfg.beta2, cfg.omega2)

    def log_weight(b1: int, b2: int) -> float:
        return math.log(f1 if b1 else 1.0 - f1) + math.log(f2 if b2 else 1.0 - f2)

    lhs = (log_weight(path1.initial_bit, path2.initial_bit)
           + log_path_density(path1, cfg.beta1, cfg.omega1, cfg.gamma)
           + log_path_density(path2, cfg.beta2, cfg.omega2, cfg.gamma)
           - log_weight(path1.final_bit, path2.final_bit)
           - log_path_density(reversed_path(path1), cfg.beta1, cfg.omega1, cfg.gamma)
           - log_path_density(reversed_path(path2), cfg.beta2, cfg.omega2, cfg.gamma))
    e = LedgerKey(path1.net_emissions, path2.net_emissions,
                  path1.final_bit - path1.initial_bit,
                  path2.final_bit - path2.initial_bit, None).energetics(cfg.omega1, cfg.omega2)
    return lhs, cfg.beta1 * e.dE1 + cfg.beta2 * e.dE2


def enumerate_paths(duration: float, max_jumps: int,
                    time_grid: tuple[float, ...] = (0.2, 0.55, 0.9),
                    ) -> Iterator[QubitPath]:
    """All single-qubit paths with up to max_jumps jumps on a fixed time grid.

    Jump times are drawn as ordered subsets of time_grid (fractions of the
    duration), giving a finite, deterministic family for exact enumeration.
    """
    times = tuple(f * duration for f in time_grid)
    for bit in (0, 1):
        for j in range(max_jumps + 1):
            for combo in itertools.combinations(times, j):
                yield QubitPath(initial_bit=bit, jump_times=combo,
                                duration=duration)
