"""Reference computations the benchmark checks the program against.

Everything here is written from the physics and the file formats alone and
imports nothing from `swapengine`, so a fault in the program cannot hide in
the check that is meant to catch it.

Conventions follow the package: qubit i has level spacing omega_i and sits
in bath i at inverse temperature beta_i; f(x) = 1/(1 + e^x) is the excited
population; n_w counts the work quanta injected into qubit 1 by the pulses,
so w = (omega1 - omega2) * n_w and a heat engine has E[n_w] < 0.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path
from typing import NamedTuple

# (b1, b2) occupation bits of the joint basis |++>, |+->, |-+>, |-->
BASIS_BITS = ((1, 1), (1, 0), (0, 1), (0, 0))


class Engine(NamedTuple):
    beta1: float
    beta2: float
    omega1: float
    omega2: float
    gamma: float = 1.0


# the working point of the paper's headline study
WORKING_POINT = Engine(2.0 / 3.0, 1.0, 1.0, 5.0 / 6.0)


def excited(beta: float, omega: float) -> float:
    """f(beta*omega) = 1/(1 + e^{beta*omega})."""
    return 1.0 / (1.0 + math.exp(beta * omega))


def relaxation_rate(beta: float, omega: float, gamma: float) -> float:
    """Decay rate gamma*(2n + 1) of a qubit's population towards f."""
    n = 1.0 / math.expm1(beta * omega)
    return gamma * (2.0 * n + 1.0)


def mean_work_quanta(eng: Engine, n_pulses: int, tau2: float) -> float:
    """Exact E[n_w] of a swap run started from the bi-Gibbs state.

    The excited populations (p1, p2) are propagated through the schedule:
    pulse k moves p2 - p1 quanta into qubit 1 on average and exchanges the
    populations, then each qubit relaxes for tau2 as
    p_end = f + (p - f) * exp(-gamma*(2n+1)*tau2).
    """
    f1 = excited(eng.beta1, eng.omega1)
    f2 = excited(eng.beta2, eng.omega2)
    d1 = math.exp(-relaxation_rate(eng.beta1, eng.omega1, eng.gamma) * tau2)
    d2 = math.exp(-relaxation_rate(eng.beta2, eng.omega2, eng.gamma) * tau2)
    p1, p2 = f1, f2
    total = 0.0
    for _ in range(n_pulses):
        total += p2 - p1
        p1, p2 = p2, p1
        p1 = f1 + (p1 - f1) * d1
        p2 = f2 + (p2 - f2) * d2
    return total


def mean_work(eng: Engine, n_pulses: int, tau2: float) -> float:
    """Exact E[w] per run of a swap schedule."""
    return (eng.omega1 - eng.omega2) * mean_work_quanta(eng, n_pulses, tau2)


def log_ratio_slope(eng: Engine) -> float:
    """Slope of ln P(n_w)/P(-n_w): the affinity beta1*omega1 - beta2*omega2."""
    return eng.beta1 * eng.omega1 - eng.beta2 * eng.omega2


def swap_efficiency(eng: Engine) -> float:
    """The value every finite stochastic efficiency of a swap run piles up at."""
    return 1.0 - eng.omega2 / eng.omega1


def is_heat_engine(eng: Engine) -> bool:
    """A swap extracts work when the hot qubit is more excited and omega2 < omega1."""
    return eng.beta1 * eng.omega1 < eng.beta2 * eng.omega2 and eng.omega2 < eng.omega1


def permutation_work_outputs(eng: Engine) -> dict[tuple[int, ...], float]:
    """Mean work output of one application of each 4x4 permutation gate.

    A permutation sigma sends basis state k to sigma[k], so the bi-Gibbs
    populations p become p'[sigma[k]] = p[k]; the output is -(dE1 + dE2)
    with dE_i = omega_i * (change of qubit i's excited population).
    """
    f1 = excited(eng.beta1, eng.omega1)
    f2 = excited(eng.beta2, eng.omega2)
    p = [f1 * f2, f1 * (1.0 - f2), (1.0 - f1) * f2, (1.0 - f1) * (1.0 - f2)]
    out = {}
    for sigma in itertools.permutations(range(4)):
        dp1 = sum(p[k] * (BASIS_BITS[sigma[k]][0] - BASIS_BITS[k][0]) for k in range(4))
        dp2 = sum(p[k] * (BASIS_BITS[sigma[k]][1] - BASIS_BITS[k][1]) for k in range(4))
        out[sigma] = -(eng.omega1 * dp1 + eng.omega2 * dp2)
    return out


def permutation_optimum(eng: Engine) -> float:
    """Exact maximum of the mean work output over all two-qubit unitaries.

    The output is linear in the doubly stochastic matrix |U|^2, so by the
    Birkhoff-von Neumann theorem it peaks at one of the 24 permutations.
    """
    return max(permutation_work_outputs(eng).values())


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not strict JSON")


def load_strict_json(path: str | Path):
    """json.load that refuses NaN, Infinity and -Infinity."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def read_log(path: str | Path) -> list[tuple[str, int, float | None]]:
    """The event log as ("P", index, None) and (kind, bath, time) items."""
    items = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            if fields[0] == "P":
                items.append(("P", int(fields[1]), None))
            else:
                items.append((fields[2], int(fields[1]), float(fields[0])))
    return items


def count_jumps(items: list[tuple[str, int, float | None]]) -> dict[tuple[int, str], int]:
    """Count of (bath, kind) jumps, kind E or A, in a read log."""
    counts = {(1, "E"): 0, (1, "A"): 0, (2, "E"): 0, (2, "A"): 0}
    for kind, bath, _ in items:
        if kind != "P":
            counts[(bath, kind)] += 1
    return counts


def work_quanta_candidates(items: list[tuple[str, int, float | None]]) -> list[int]:
    """n_w of every initial bit pair consistent with a log that has pulse markers.

    The pair is carried through the log: a marker banks b2 - b1 and swaps
    the bits, an emission needs the jumping qubit excited and grounds it, an
    absorption the reverse.  The true n_w is one of the returned values;
    qubits that never jump leave the rest.
    """
    found = []
    for b1_0, b2_0 in itertools.product((0, 1), repeat=2):
        bits = [b1_0, b2_0]
        m = 0
        for kind, bath, _ in items:
            if kind == "P":
                m += bits[1] - bits[0]
                bits.reverse()
                continue
            needed = 1 if kind == "E" else 0
            if bits[bath - 1] != needed:
                break
            bits[bath - 1] = 1 - needed
        else:
            found.append(m)
    return found
