"""Quantum-jump simulation of the pulsed two-qubit engine.

A run alternates instantaneous two-qubit gate pulses (at t = k*tau2 for
k = 0..N-1) with relaxation intervals of length tau2, starting from a
product-Gibbs eigenstate and ending with a projective energy measurement at
T = N*tau2.  Between pulses each qubit couples only to its own bath.  The
unraveling follows the waiting-time construction on the joint four-state
space: the no-jump generator is diagonal in the energy basis, so the squared
norm decays as the survival of a mixture of exponentials, the next jump time
is drawn from that mixture exactly (a basis component, then its exponential
wait), and the jump channel (emission or absorption in bath 1 or 2) is drawn
proportionally to the instantaneous channel rates
gamma*(n_i+1)*||sigma_i psi||^2 and gamma*n_i*||sigma_i^dag psi||^2.  For
basis states this collapses to a classical two-state process with dichotomic
rates gamma*(n_i+1) (emission, active when excited) and gamma*n_i
(absorption, active when ground).

Three engines realize the same trajectory law:

  "mcwf"    amplitude evolution with mixture-drawn jump times throughout;
            the slow oracle;
  "events"  carries the state as a basis index while it is a basis state
            (always on swap-family gates, whose pulses permute the basis;
            on Generic gates once jumps have collapsed the state), with
            closed-form exponential waiting times, and as amplitudes with
            mixture-drawn ones while it is a superposition; emits the full
            time-stamped event record;
  "bits"    vectorized sampling of the whole integer ledger without event
            times, for swap-family ensembles without event logs.  A swap
            pulse swaps the occupation bits and each qubit relaxes in its
            own bath, so the ledger is the sum of two independent excitation
            tracks, and at every pulse count each row is drawn from the
            tracks' exact law with two uniforms, each inverted on its
            track's cumulative law through a guide table, which returns the
            binary search's cell.  It names each row by one integer, its
            _key_index, since db1, db2 and n_w fix a swap run's heats.  The
            lane makes no records: stats.fold_ensemble counts the indices.

Every engine keeps each run's integer ledger as one LedgerKey, and
derives trajectory k's random stream from (seed, stream index) with a
counter-based generator, SplitMix64 in counter mode (_Stream, in numpy
uint64 arithmetic, so numpy.random is never loaded), so record k is
independent of the sample size and reruns are bit-identical.  The events
and mcwf lanes draw the same uniforms in the same order, and a basis
state's mixture draw is its closed-form wait bit for bit, so they make the
same records jump for jump; they read each trajectory's stream in blocks
(_BufferedUniforms), which hand out the same uniforms as one call per
uniform.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import chain, repeat
from typing import Iterator, NamedTuple

import numpy as np

from .eventlog import TrajectoryEvent
from .gates import (BASIS_BITS, SWAP_PERMUTATION, SWAP_TRANSFER, GateSpec, SwapFamily,
                    Unitary4, build_gate)
from .thermo import ConfigError, EngineConfig, Protocol, bose_occupation, excited_population

# jump channel order: (bath 1 emission, bath 1 absorption, bath 2 emission, bath 2 absorption)
CHANNELS = ((1, "E"), (1, "A"), (2, "E"), (2, "A"))

# basis-index maps of the four jump operators, -1 where the operator annihilates
_JUMP_MAPS = (
    (2, 3, -1, -1),   # sigma_1:      |+ b2> -> |- b2>
    (-1, -1, 0, 1),   # sigma_1^dag:  |- b2> -> |+ b2>
    (1, -1, 3, -1),   # sigma_2:      |b1 +> -> |b1 ->
    (-1, 0, -1, 2),   # sigma_2^dag:  |b1 -> -> |b1 +>
)

# Largest expected jump count per run (the outflow rate of |++> times the
# run time) that the events and mcwf lanes accept; the working point expects
# about 250.  At some 5 us a jump (2-core x86-64, events kept) one
# events-lane trajectory at the budget takes about a minute, and at rates
# near the float limit each waiting time falls below the float spacing of
# the clock, which then never advances.
JUMP_BUDGET = 1e7


class RunParams(NamedTuple):
    """The configuration shared by all records of one homogeneous ensemble."""

    cfg: EngineConfig
    protocol: Protocol
    gate: GateSpec


class Energetics(NamedTuple):
    """Energies of one ledger; see LedgerKey.energetics."""

    q1: float
    q2: float
    dU1: float
    dU2: float
    dE1: float
    dE2: float
    w: float


class LedgerKey(NamedTuple):
    """Integer ledger of one run, the ground truth of every energy.

    h_i is the net emission count of bath i (emissions minus absorptions),
    db_i the final minus initial occupation bit of qubit i, and n_w the
    summed per-pulse excitation transfer into qubit 1 (defined for
    swap-family runs only, None on generic-gate runs; each pulse moves
    b2 - b1 quanta).  x and y are the quanta entering subsystems 1 and 2.
    """

    h1: int
    h2: int
    db1: int
    db2: int
    n_w: int | None

    @property
    def x(self) -> int:
        return self.h1 + self.db1

    @property
    def y(self) -> int:
        return self.h2 + self.db2

    def check(self) -> None:
        """Assert |db_i| <= 1 and, on swap-family runs, n_w = x = -y."""
        if abs(self.db1) > 1 or abs(self.db2) > 1 or (
                self.n_w is not None and not self.n_w == self.x == -self.y):
            raise AssertionError(
                f"ledger broken: n_w={self.n_w}, x={self.x}, y={self.y}, "
                f"db1={self.db1}, db2={self.db2}")

    def energetics(self, omega1: float, omega2: float) -> Energetics:
        """Every energy as one correctly rounded product of a level spacing
        with an exact integer, never a chain of rounded intermediates.

        q_i = omega_i*h_i is the heat released into bath i, dU_i = omega_i*db_i
        the energy change of qubit i, dE_i = omega_i*(h_i + db_i) the energy
        handed to subsystem i (qubit plus bath), and w the work injected by
        the drive: (omega1-omega2)*n_w on swap runs, dE1 + dE2 otherwise.  In
        omega1-units this makes the swap-run identities
        dE2 == -(omega2/omega1)*dE1 and w/dE1 == (omega1-omega2)/omega1
        literal float equalities (the latter verified for |n_w| < 1.19e5),
        and w sits exactly on the work lattice: round(w/(omega1-omega2))
        recovers n_w and remultiplies to w bit for bit (bare division may
        round one ulp off the integer).
        """
        h1, h2, db1, db2, n_w = self
        dE1 = omega1 * (h1 + db1)
        dE2 = omega2 * (h2 + db2)
        return Energetics(omega1 * h1, omega2 * h2, omega1 * db1, omega2 * db2, dE1, dE2,
                          dE1 + dE2 if n_w is None else (omega1 - omega2) * n_w)


def _key_index(db1, db2, n_w, n_pulses: int):
    """The index of a swap-family ledger among the 9*(2N+1) keys with
    |db_i| <= 1 and |n_w| <= N, for ints or int64 arrays alike.  Three
    integers name the ledger, since its heats follow from them: see
    _index_key.  The index is affine, so it sums over the parts of a run."""
    return (3 * db1 + db2 + 4) * (2 * n_pulses + 1) + n_w + n_pulses


def _index_key(index: int, n_pulses: int) -> LedgerKey:
    """The LedgerKey at a _key_index, with h1 = n_w - db1 and
    h2 = -n_w - db2 (n_w = x = -y).  An index outside [0, 9*(2N+1))
    decodes to |db1| >= 2, which LedgerKey.check refuses."""
    q, n = divmod(index, 2 * n_pulses + 1)
    n_w, db1, db2 = n - n_pulses, q // 3 - 1, q % 3 - 1
    return LedgerKey(n_w - db1, -n_w - db2, db1, db2, n_w)


class TrajectoryRecord(NamedTuple):
    """Outcome of one run: its integer ledger, its energies read off that
    ledger, and, when the lane resolves them, its time-ordered pulse/jump
    events (None otherwise)."""

    params: RunParams
    ledger: LedgerKey
    events: tuple[TrajectoryEvent, ...] | None = None

    @property
    def energetics(self) -> Energetics:
        cfg = self.params.cfg
        return self.ledger.energetics(cfg.omega1, cfg.omega2)


def _dichotomic_rates(cfg: EngineConfig) -> tuple[float, float, float, float]:
    """(emission1, absorption1, emission2, absorption2) eigenstate rates."""
    n1 = bose_occupation(cfg.beta1, cfg.omega1)
    n2 = bose_occupation(cfg.beta2, cfg.omega2)
    g = cfg.gamma
    return g * (n1 + 1.0), g * n1, g * (n2 + 1.0), g * n2


def _channel_rates(rates: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """The dichotomic rates weighted by the normalized amplitudes' occupations."""
    pops = np.abs(amps) ** 2
    p1 = pops[0] + pops[1]     # qubit 1 excited weight
    p2 = pops[0] + pops[2]
    return rates * np.array([p1, 1.0 - p1, p2, 1.0 - p2])


# uniforms a jump-lane trajectory reads from its stream at a time.  A
# 25-pulse trajectory at the working point takes about 130 and a 100-pulse
# one about 500; a block costs about 7 us at 64 uniforms and 11 us at 256,
# mostly numpy's per-call overhead.  A 500 x 25 events-lane run takes about
# as long at 128 as at 256 and 10% longer at 512, and a 500 x 100 run
# about 10% longer at 128 than at 256 (2-core x86-64)
_UNIFORM_BLOCK = 256

# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014; Vigna's splitmix64.c): the
# golden-ratio increment and the finalizer's multipliers
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1
# counters per slice of _ramp(): 2*_LAW_BLOCK_ROWS, a bit-lane block's uniforms
_RAMP_LEN = 1 << 13


@functools.cache
def _ramp() -> np.ndarray:
    """(j + 1)*_GOLDEN mod 2**64 for j < _RAMP_LEN, read-only: a block of
    uniforms is its first counter plus a slice of this.  Built on the first
    draw, so a command that draws nothing never allocates it."""
    ramp = np.arange(1, _RAMP_LEN + 1, dtype=np.uint64)
    ramp *= _GOLDEN
    ramp.flags.writeable = False
    return ramp


def _mix64(z: int) -> int:
    """SplitMix64's finalizer of a Python int in [0, 2**64)."""
    z = (z ^ z >> 30) * _MIX1 & _MASK64
    z = (z ^ z >> 27) * _MIX2 & _MASK64
    return z ^ z >> 31


class _Stream:
    """A counter-based stream (Salmon, Moraes, Dror & Shaw, SC 2011): its
    uniform i is a pure function of its 64-bit key and i, SplitMix64 in
    counter mode, (mix64(key + (i+1)*_GOLDEN mod 2**64) >> 11) * 2**-53 on
    [0, 1): output i of splitmix64.c seeded with the key, its top 53 bits
    as a double.  A block of them is a handful of numpy uint64 operations
    on a slice of _ramp(), and any split into blocks reads the same uniforms.
    `drawn` uniforms have been read."""

    __slots__ = ("key", "drawn")

    def __init__(self, key: int) -> None:
        self.key, self.drawn = key, 0

    def random(self, size: int | tuple[int, ...] | None = None) -> float | np.ndarray:
        """The next uniform as a float, or the next prod(size) of them as a
        float64 array of that shape."""
        if size is None:
            self.drawn += 1
            return (_mix64(self.key + self.drawn * _GOLDEN & _MASK64) >> 11) * 2.0 ** -53
        n = math.prod(size) if isinstance(size, tuple) else size
        # each counter slice's first counter less _GOLDEN, in Python ints:
        # numpy would warn of a scalar uint64 overflow
        base = self.key + self.drawn * _GOLDEN
        self.drawn += n
        parts = [_ramp()[:n - at] + (base + at * _GOLDEN & _MASK64)
                 for at in range(0, n or 1, _RAMP_LEN)]
        z = parts[0] if len(parts) == 1 else np.concatenate(parts)
        z ^= z >> 30
        z *= _MIX1
        z ^= z >> 27
        z *= _MIX2
        z ^= z >> 31
        z >>= 11
        return (z * 2.0 ** -53).reshape(size)


def _stream(key: int | tuple[int, ...]) -> _Stream:
    """The SplitMix64 stream (Steele, Lea & Flood, OOPSLA 2014) of a key
    such as seed or (seed, k), of nonnegative ints, in counter mode (see
    _Stream): the one place the package makes a random stream.  Its
    64-bit key absorbs each word's 64-bit limbs, low first, each by
    h = mix64((h ^ limb) + n*_GOLDEN) for a word of n limbs, from h = 0, so
    (seed) and (seed, 0) make unrelated streams, and so do a seed of 2**64
    or more and its low 64 bits.  Every sum stays a Python int: numpy would
    warn of a scalar uint64 overflow."""
    h = 0
    for word in map(operator.index, key if isinstance(key, tuple) else (key,)):
        if word < 0:
            raise ValueError(f"stream keys are nonnegative integers, got {key!r}")
        n = max(-(-word.bit_length() // 64), 1)
        for _ in range(n):
            h = _mix64((h ^ word & _MASK64) + n * _GOLDEN & _MASK64)
            word >>= 64
    return _Stream(h)


class _BufferedUniforms:
    """One trajectory's stream, read _UNIFORM_BLOCK uniforms at a time.

    The stream is counter-based SplitMix64 (_Stream; Salmon et al., SC
    2011; Steele, Lea & Flood, OOPSLA 2014), so a block is a handful of
    numpy uint64 operations.  random() returns what the stream's own
    random() calls would, in the same order, since a stream's random(n)
    reads the same uniforms as n calls of random(); one block and its
    tolist() cost less than a few scalar calls.  The buffer runs ahead of
    the stream, so only a stream that nothing else reads may be wrapped:
    run_ensemble wraps each trajectory's own.
    """

    __slots__ = ("random",)

    def __init__(self, rng: _Stream) -> None:
        self.random = chain.from_iterable(
            map(np.ndarray.tolist, map(rng.random, repeat(_UNIFORM_BLOCK)))).__next__


def _born_draw(pops: np.ndarray, u: float) -> tuple[int, float]:
    """The basis index i a measurement of populations pops finds, for u
    uniform: Generator.choice(4, p=pops)'s own algorithm, which reads one
    uniform.  Also u's place in i's cell of the normalized cumulative
    populations, rescaled to [0, 1): given i, a uniform of its own, and u
    itself when i holds all the weight."""
    cdf = np.cumsum(pops)
    cdf /= cdf[-1]
    i = int(cdf.searchsorted(u, side="right"))
    lo = cdf[i - 1] if i else 0.0
    return i, float((u - lo) / (cdf[i] - lo))


def _basis_index(amps: np.ndarray) -> int | None:
    """Index of the one basis state the amplitudes occupy (all others below
    1e-12 in modulus), or None for a superposition.  Plain Python on four
    amplitudes is about 3x faster than numpy calls, and abs(complex) is
    hypot, as np.abs is."""
    occupied = [i for i, a in enumerate(amps.tolist()) if abs(a) > 1e-12]
    return occupied[0] if len(occupied) == 1 else None


def sample_initial_state(cfg: EngineConfig, rng: _Stream | _BufferedUniforms) -> int:
    """Draw a joint basis index from the product Gibbs distribution, with
    two uniforms from rng."""
    b1 = rng.random() < excited_population(cfg.beta1, cfg.omega1)
    b2 = rng.random() < excited_population(cfg.beta2, cfg.omega2)
    return 3 - 2 * int(b1) - int(b2)


class _Relaxation(NamedTuple):
    """The jump rates of one config, made once and shared by every interval.

    weights[i] are basis state i's four channel rates in CHANNELS order (the
    dichotomic rate on its two active channels, 0 on the others), outflow[i]
    their sum, its total outflow rate, and decay[i] = -1j*E_i - outflow[i]/2
    the no-jump generator's diagonal entry, E_i being the state's energy.
    """

    weights: tuple[tuple[float, float, float, float], ...]
    outflow: tuple[float, ...]
    decay: np.ndarray
    rates: np.ndarray


def _relaxation(cfg: EngineConfig) -> _Relaxation:
    rates = np.array(_dichotomic_rates(cfg))
    bits = np.array(BASIS_BITS, dtype=float)
    weights = rates * np.stack([bits[:, 0], 1.0 - bits[:, 0], bits[:, 1], 1.0 - bits[:, 1]],
                               axis=1)
    # two nonzero terms per row, so every summation order rounds alike
    gtot = weights.sum(axis=1)
    energy = cfg.omega1 * (bits[:, 0] - 0.5) + cfg.omega2 * (bits[:, 1] - 0.5)
    return _Relaxation(tuple(map(tuple, weights.tolist())), tuple(gtot.tolist()),
                       -1j * energy - 0.5 * gtot, rates)


# net emission count of each jump channel, in CHANNELS order
_CHANNEL_SIGNS = (1, -1, 1, -1)


def _pick_channel(weights: tuple[float, ...] | np.ndarray, u: float) -> int:
    """The first channel whose cumulative rate exceeds u, else the last: as
    searchsorted(side="right"), so u = 0 never picks a channel of rate 0."""
    ch = 0
    acc = weights[0]
    while acc <= u and ch < 3:
        ch += 1
        acc += weights[ch]
    return ch


def _relax_basis(
    idx: int,
    t: float,
    duration: float,
    t_start: float,
    rng: _Stream | _BufferedUniforms,
    relax: _Relaxation,
    events: list[TrajectoryEvent] | None,
    heat: list[int],
) -> int:
    """Relax basis state idx from time t to the end of an interval of length
    `duration`; return the basis state it ends in.

    Survival in a basis state is a pure exponential, so each wait is
    -ln(r)/outflow in closed form, infinite where r or the outflow is 0
    (random() may return 0); the channel is drawn by walking the
    state's channel rates up to u*outflow, for u a second uniform.  Jumps
    add to heat[bath - 1] and, when events is a list, are appended to it at
    absolute times (offset by t_start).
    """
    random = rng.random
    log = math.log
    outflow = relax.outflow
    weights = relax.weights
    while duration - t > 0:
        g = outflow[idx]
        # no uniform is read where nothing can jump
        wait = -log(u) / g if g and (u := random()) else math.inf
        if wait > duration - t:
            break
        ch = _pick_channel(weights[idx], random() * g)
        dst = _JUMP_MAPS[ch][idx]
        if dst < 0:
            raise AssertionError("state annihilated before jump: rate bookkeeping broken")
        idx = dst
        t += wait
        bath, kind = CHANNELS[ch]
        heat[bath - 1] += _CHANNEL_SIGNS[ch]
        if events is not None:
            events.append(TrajectoryEvent(t_start + t, kind, bath))
    return idx


def _relax_amplitudes(
    amps: np.ndarray,
    duration: float,
    t_start: float,
    rng: _Stream | _BufferedUniforms,
    relax: _Relaxation,
    events: list[TrajectoryEvent] | None,
    heat: list[int],
    eigenstate_shortcut: bool,
) -> np.ndarray | int:
    """Relax the amplitudes amps (not mutated) for `duration` by the
    waiting-time unraveling.  The no-jump generator is diagonal, so the
    squared norm decays as sum_i p_i*exp(-g_i*t), the survival of a mixture:
    one uniform r picks component i as _born_draw does, and its rescaled
    place r' in i's cell gives i's exponential wait -ln(r')/g_i, exactly
    _relax_basis's wait on a basis state.  The amplitudes decay for the wait
    or for the rest of the interval, whichever is shorter; a jump applies the
    channel drawn from the instantaneous rates and renormalizes, and the
    draw repeats until the interval is exhausted.  Jumps are booked as in
    _relax_basis.

    Returns the end amplitudes, or, with eigenstate_shortcut, the basis index
    _relax_basis ends in once _basis_index finds a basis state.
    """
    amps = np.array(amps, dtype=complex)
    t = 0.0
    while (rem := duration - t) > 0:
        if eigenstate_shortcut and (idx := _basis_index(amps)) is not None:
            return _relax_basis(idx, t, duration, t_start, rng, relax, events, heat)
        i, r = _born_draw(np.abs(amps) ** 2, rng.random())
        g = relax.outflow[i]
        wait = -math.log(r) / g if g and r else math.inf
        amps = amps * np.exp(relax.decay * min(wait, rem))
        amps /= np.linalg.norm(amps)
        if wait > rem:
            break
        weights = _channel_rates(relax.rates, amps)
        ch = _pick_channel(weights, rng.random() * weights.sum())
        # apply the jump operator: project onto the active sector, relabel
        new = np.zeros(4, dtype=complex)
        for src, dst in enumerate(_JUMP_MAPS[ch]):
            if dst >= 0:
                new[dst] = amps[src]
        amps = new / np.linalg.norm(new)
        t += wait
        bath, kind = CHANNELS[ch]
        heat[bath - 1] += _CHANNEL_SIGNS[ch]
        if events is not None:
            events.append(TrajectoryEvent(t_start + t, kind, bath))
    return amps


def pick_lane(gate_spec: GateSpec, keep_events: bool) -> str:
    """The lane a run is folded on and labelled with: "bits" for swap-family
    gates without event recording, "events" otherwise."""
    return "bits" if isinstance(gate_spec, SwapFamily) and not keep_events else "events"


class _Ensemble(NamedTuple):
    """What every trajectory of one ensemble shares, made once per ensemble:
    the built gate, its basis permutation (swap-family gates only, None
    otherwise) and the relaxation rates."""

    params: RunParams
    gate: Unitary4
    perm: tuple[int, ...] | None
    relax: _Relaxation


def _ensemble(cfg: EngineConfig, protocol: Protocol, gate_spec: GateSpec) -> _Ensemble:
    perm = SWAP_PERMUTATION if isinstance(gate_spec, SwapFamily) else None
    return _Ensemble(RunParams(cfg, protocol, gate_spec), build_gate(gate_spec), perm,
                     _relaxation(cfg))


def _trajectory(
    ens: _Ensemble,
    rng: _Stream | _BufferedUniforms,
    keep_events: bool,
    eigenstate_shortcut: bool,
) -> TrajectoryRecord:
    """Simulate one full run on the shared constants of its ensemble, with
    the uniforms of rng.

    Samples the initial eigenstate, alternates pulse and relaxation interval
    n_pulses times (a single bare interval when n_pulses = 0), measures the
    final energy eigenstate (a read-off for basis states, a Born draw
    otherwise), and fills the integer ledger.  With eigenstate_shortcut the
    state is carried as a basis index while it is one, and a swap-family
    pulse is a lookup in SWAP_PERMUTATION and SWAP_TRANSFER; otherwise, and
    while the state is a superposition, it is carried as amplitudes.
    """
    cfg, protocol, _ = ens.params
    idx0 = sample_initial_state(cfg, rng)
    state: int | np.ndarray = idx0 if eigenstate_shortcut else np.eye(4, dtype=complex)[idx0]
    events: list[TrajectoryEvent] | None = [] if keep_events else None
    heat = [0, 0]
    n_w = None if ens.perm is None else 0
    for k in range(max(protocol.n_pulses, 1)):
        t_pulse = k * protocol.tau2
        if k < protocol.n_pulses:
            if isinstance(state, int) and ens.perm is not None:
                n_w += SWAP_TRANSFER[state]
                state = ens.perm[state]
            else:
                amps = np.eye(4, dtype=complex)[state] if isinstance(state, int) else state
                state = ens.gate.entries @ amps
                if n_w is not None:   # a swap-family pulse on amplitudes (the mcwf lane)
                    n_w += SWAP_TRANSFER[_basis_index(amps)]
            if events is not None:
                events.append(TrajectoryEvent(t_pulse, "P", 0, k))
        if isinstance(state, int):
            state = _relax_basis(state, 0.0, protocol.tau2, t_pulse, rng, ens.relax,
                                 events, heat)
        else:
            state = _relax_amplitudes(state, protocol.tau2, t_pulse, rng, ens.relax,
                                      events, heat, eigenstate_shortcut)
    idx_f = state if isinstance(state, int) else _basis_index(state)
    if idx_f is None:
        idx_f = _born_draw(np.abs(state) ** 2, rng.random())[0]
    ledger = LedgerKey(heat[0], heat[1], BASIS_BITS[idx_f][0] - BASIS_BITS[idx0][0],
                       BASIS_BITS[idx_f][1] - BASIS_BITS[idx0][1], n_w)
    return TrajectoryRecord(ens.params, ledger, None if events is None else tuple(events))


def _bit_propagator(cfg: EngineConfig, tau2: float) -> tuple[tuple[float, float, float], ...]:
    """Each qubit's excited probability (f, lo, hi): f in its Gibbs state,
    and lo and hi at the end of an interval of tau2 started in the ground
    and in the excited state, p_end = f + (b - f)*exp(-R*tau2) with
    R = gamma*(2n+1).  The track law and the per-pulse transfer moments
    both read these."""
    odds = []
    for beta, omega in ((cfg.beta1, cfg.omega1), (cfg.beta2, cfg.omega2)):
        f = excited_population(beta, omega)
        dec = math.exp(-cfg.gamma * (2.0 * bose_occupation(beta, omega) + 1.0) * tau2)
        odds.append((f, f + (0.0 - f) * dec, f + (1.0 - f) * dec))
    return tuple(odds)


# The bit lane draws every row from the exact track law, two uniforms a row;
# this constant picks how the law is built.  Up to it, _track_laws convolves
# the whole law, whose tail cells keep their relative precision: 0.5 ms at
# 100 pulses and 2.3 ms at 1024, but O(N^2), 37 ms at 4096 and 0.37 s at
# 16384.  Above it the walk is raised on a Fourier window around each
# track's mean (_law_window), exact to about 1e-15 in absolute terms only:
# 7 ms at 10^4 pulses and 0.08 s at 10^6 (2-core x86-64).  Either way each
# uniform is inverted through the track's guide table of _GUIDE_BINS bins
# (_guide, built in about 0.05 ms on 812 cells and 0.4 ms on a 16384-cell
# window): 0.1-0.3 ms per track and chunk of 2**15 rows at 100 pulses, where
# a binary search over the cells takes 2 ms; about 2.5% of the uniforms fall
# in a bin that straddles a cell edge at 100 pulses, and 20% on the window
# at 10^4 pulses, and only those are searched.  A chunk's rows are drawn,
# inverted and indexed _LAW_BLOCK_ROWS at a time, so the lane holds one
# int64 index per chunk row and a block's temporaries: a 10^5 x 100 fold
# peaks at about 0.8 MiB of numpy buffers, where whole-chunk arrays take
# 2.1 MiB, at the same fold time.  Blocks of 2**13 rows keep about 0.2 MiB
# more of the process's peak RSS, and blocks of 2**11 no less.
_LAW_MAX_PULSES = 1024
_LAW_CHUNK_ROWS = 1 << 15
_LAW_BLOCK_ROWS = 1 << 12
_GUIDE_BINS = 1 << 12   # a power of 2, so u*_GUIDE_BINS is exact


def _interval(odds: tuple[float, float, float], shift: int) -> np.ndarray:
    """One pulse and interval of a track as a 2x2 matrix of polynomials in
    its share m, [start bit, end bit, m + 1] over m = -1, 0, 1: the pulse
    adds shift*start bit to m, then the track relaxes under the propagator
    (f, lo, hi) of the bath it enters."""
    _, lo, hi = odds
    step = np.zeros((2, 2, 3))
    step[0, :, 1] = 1.0 - lo, lo
    step[1, :, 1 + shift] = 1.0 - hi, hi
    return step


def _then(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The walk a then b, for walks as 2x2 matrices of polynomials in m:
    the matrix product with each entry product a convolution."""
    return np.array([[np.convolve(a[i, 0], b[0, k]) + np.convolve(a[i, 1], b[1, k])
                      for k in (0, 1)] for i in (0, 1)])


def _track_walk(odds, track: int, n_pulses: int, then, one, form=lambda poly: poly):
    """Track A's (0) or B's (1) walk over n_pulses >= 1 pulses: the pulse
    pair raised to the power N // 2 by repeated squaring, times one more
    first pulse at odd N.  form turns a 2x2 matrix of polynomials in m over
    m = -1, 0, 1 into the form that then multiplies, with identity one."""
    shift = 2 * track - 1   # the first pulse's: track A leaves qubit 1
    first = _interval(odds[1 - track], shift)
    # a pulse pair moves m by -bit then +bit, or the reverse: within 1
    pair = form(_then(first, _interval(odds[track], -shift))[:, :, 1:-1])
    first = form(first)
    walk = one
    for bit in bin(n_pulses // 2)[2:]:
        walk = then(walk, walk)
        if bit == "1":
            walk = then(walk, pair)
    return then(walk, first) if n_pulses % 2 else walk


def _law_window(cfg: EngineConfig, protocol: Protocol) -> tuple[int, tuple[int, int]] | None:
    """The cells of _track_laws' Fourier build: None up to _LAW_MAX_PULSES,
    and above it (M, starts), M cells per track from cell starts[track] on.
    M is the power of 2 that covers 80 sd of the wider track, at least 2**10
    so that a narrow law's tails (Poisson-like, not Gaussian) fit too, and
    at most the whole law's 2N+3 cells; each window is centred on its
    track's mean and kept inside those cells.  The mean and the variance of
    m are exact: the walk of the 6x6 block step [[T, T', T''/2], [0, T, T'],
    [0, 0, T]], T the step at z = 1 and ' the derivative in ln z, carries
    the walk's derivatives in its top blocks.  So the window, and row k,
    depend on (cfg, protocol) alone."""
    n_pulses = protocol.n_pulses
    if n_pulses <= _LAW_MAX_PULSES:
        return None
    odds = _bit_propagator(cfg, protocol.tau2)
    taylor = np.array([[1.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [0.5, 0.0, 0.5]])   # m^k / k!

    def tilted(poly: np.ndarray) -> np.ndarray:
        t, dt, ddt = np.moveaxis(poly @ taylor.T, -1, 0)
        zero = np.zeros((2, 2))
        return np.block([[t, dt, ddt], [zero, t, dt], [zero, zero, t]])

    means, sds = [], []
    for track, (f, _, _) in enumerate(odds):
        walk = _track_walk(odds, track, n_pulses, np.matmul, np.eye(6), tilted)
        # weigh the initial bit and sum over the final one: (E[m], E[m^2]/2)
        mean, half_square = np.array([1.0 - f, f]) @ walk[:2, 2:].reshape(2, 2, 2).sum(axis=2)
        means.append(mean)
        sds.append(math.sqrt(max(2.0 * half_square - mean * mean, 0.0)))
    full = 2 * n_pulses + 3
    cells = 1 << 10
    while cells < min(80.0 * max(sds), full):
        cells *= 2
    cells = min(cells, full)
    return cells, tuple(min(max(math.floor(mean) + n_pulses + 1 - cells // 2, 0), full - cells)
                        for mean in means)


def _grid_walk(odds, track: int, n_pulses: int, cells: int, start: int) -> np.ndarray:
    """A track's walk on cells [start, start + cells) of the whole law's
    2N+3, built on the Fourier grid z_j = exp(-2*pi*i*j/M) of M = cells
    points: each 2x2 product is one np.einsum over the grid, and
    np.fft.ifft returns the coefficient of z^m at index m mod M.  Mass
    beyond the window aliases onto it, far below rounding at 40 sd.  The
    inversion's errors, near 1e-15, are clipped at 0, and every cell a
    track cannot reach is exactly 0: track A's m lies in [-ceil(N/2),
    N // 2] and track B's in the mirror, so |n_w| <= N holds on every row."""
    z = np.exp(-2j * np.pi * np.arange(cells) / cells)
    powers = np.stack([z.conj(), np.ones(cells), z])   # z^m over m = -1, 0, 1
    walk = _track_walk(odds, track, n_pulses, lambda a, b: np.einsum("ij...,jk...->ik...", a, b),
                       np.eye(2)[:, :, None], lambda poly: poly @ powers)
    m = start - (n_pulses + 1) + np.arange(cells)
    coeffs = np.fft.ifft(walk)[..., m % cells].real
    mirrored = (2 * track - 1) * m   # m in track B's orientation, where A's reach is mirrored
    reach = (-(n_pulses // 2) <= mirrored) & (mirrored <= -(-n_pulses // 2))
    return np.where(reach, np.maximum(coeffs, 0.0), 0.0)


def _track_laws(cfg: EngineConfig, protocol: Protocol,
                window: tuple[int, tuple[int, int]] | None = None) -> np.ndarray:
    """The exact law of each excitation track, L[track, initial bit, final
    bit, m + N + 1], of shape (2, 2, 2, 2N+3); with a window (M, starts)
    from _law_window, the cells from starts[track] on, of shape
    (2, 2, 2, M).

    A swap-family pulse swaps the qubits' bits and each qubit relaxes in its
    own bath, so the two bits stay independent: the ledger is the sum of two
    excitation tracks.  Track A starts in qubit 1 and track B in qubit 2,
    each in its qubit's Gibbs state, and every pulse moves each track to the
    other qubit.  m is the track's share of n_w: a track leaving qubit 1
    adds -bit, one entering it adds +bit, then it relaxes in the bath it
    enters (_bit_propagator's lo and hi).  Pulses alternate between the two
    moves, so a track's walk over N pulses is the walk over a pulse pair
    raised to the power N // 2 (times one more pulse at odd N), by repeated
    squaring: without a window each product costs eight np.convolve calls,
    and with one the walk is raised on the Fourier grid (_grid_walk).
    |m| stays within ceil(N/2).
    """
    odds = _bit_propagator(cfg, protocol.tau2)
    n_pulses = protocol.n_pulses
    cells, starts = window or (2 * n_pulses + 3, (0, 0))
    law = np.zeros((2, 2, 2, cells))
    for track, (f, _, _) in enumerate(odds):
        if n_pulses == 0:
            walk = _interval(odds[track], 0)
        elif window is None:
            walk = _track_walk(odds, track, n_pulses, _then, np.eye(2)[:, :, None])
        else:
            walk = _grid_walk(odds, track, n_pulses, cells, starts[track])
        at = 0 if window else n_pulses + 1 - walk.shape[2] // 2
        law[track, :, :, at:at + walk.shape[2]] = np.array([1.0 - f, f])[:, None, None] * walk
    return law


def _tilted_moment(cfg: EngineConfig, protocol: Protocol, chi: float) -> float:
    """E[exp(chi*n_w)] of a swap-family run, exact.  n_w is the sum of the
    two independent tracks' shares m, so this is the product over the
    tracks of each track's walk with its polynomials in m evaluated at
    e^chi, weighed by the initial bit and summed over the final one.  inf
    or nan where e^(+-chi) or a product overflows."""
    if protocol.n_pulses == 0:
        return 1.0
    odds = _bit_propagator(cfg, protocol.tau2)
    moment = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.exp([-chi, 0.0, chi])
        for track, (f, _, _) in enumerate(odds):
            walk = _track_walk(odds, track, protocol.n_pulses, np.matmul, np.eye(2),
                               lambda poly: poly @ powers)
            moment *= float(np.array([1.0 - f, f]) @ walk.sum(axis=1))
    return moment


def _track_index_parts(n_pulses: int,
                       window: tuple[int, tuple[int, int]] | None = None) -> np.ndarray:
    """Each track cell's part of the run's _key_index, (2, 4*cells) int64
    over _track_laws' flattened cells (2N+3 of them, or a window's M from
    its starts): a run's index is the sum of its two tracks' parts.  A
    track's initial bit is its start qubit's, and its final bit the end
    qubit's, which at odd N is the other one."""
    cells, starts = window or (2 * n_pulses + 3, (0, 0))
    initial, final, cell = (a.ravel() for a in np.indices((2, 2, cells)))
    db = np.zeros((2, 2, len(cell)), dtype=np.int64)   # [track, qubit, cell]
    for track in (0, 1):
        db[track, track] -= initial
        db[track, track ^ n_pulses % 2] += final
    m = cell + np.array(starts)[:, None] - (n_pulses + 1)
    parts = _key_index(db[:, 0], db[:, 1], m, n_pulses)
    parts[1] -= _key_index(0, 0, 0, n_pulses)   # the index's offset, counted once
    return parts


def _guide(cdf: np.ndarray) -> np.ndarray:
    """The guide table of a cumulative law (Chen & Asau, AIIE Trans. 6, 163
    (1974)) for _invert: entry b is the cell that every uniform in
    [b, b + 1)/_GUIDE_BINS inverts to, or -1 where the bin straddles a cell
    edge.  at[b] = cdf.searchsorted(fl(b/K*cdf[-1]), "right") for
    b = 0..K, K = _GUIDE_BINS, is built from one search of the cells among
    the K + 1 bin edges."""
    edges = np.arange(_GUIDE_BINS + 1) / _GUIDE_BINS * cdf[-1]
    at = np.cumsum(np.bincount(edges.searchsorted(cdf), minlength=_GUIDE_BINS + 2))
    return np.where(at[:-2] == at[1:-1], at[:-2], -1)


def _invert(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """cdf.searchsorted(u*cdf[-1], side="right") for uniforms u in [0, 1),
    read off the guide table.  b = floor(u*K) is exact, K being a power of 2,
    and scaling by cdf[-1] and rounding are monotone, so fl(u*cdf[-1]) lies
    between bin b's two edges as rounded in _guide: where those invert to
    one cell that is the answer, and only the uniforms whose bin straddles a
    cell edge are searched."""
    cell = guide[(u * _GUIDE_BINS).astype(np.intp)]
    odd = np.flatnonzero(cell < 0)
    cell[odd] = cdf.searchsorted(u[odd] * cdf[-1], side="right")
    return cell


def _bit_lane_ledgers(
    cfg: EngineConfig,
    protocol: Protocol,
    sample_size: int,
    seed: int,
) -> Iterator[np.ndarray]:
    """Chunked exact sampling of the bit lane from the track law: one 1-d
    int64 array of the rows' _key_index per chunk.

    Chunk c holds rows [c*2**15, ...) and reads rows x 2 uniforms from the
    start of its own (seed, c) stream in rng.random((b, 2)) calls of
    b = _LAW_BLOCK_ROWS rows (the last one shorter): successive calls read
    the same stream as one rng.random((rows, 2)), so the block size changes
    no row.  Each block is inverted and indexed into its rows of the
    chunk's array before the next is drawn.  Column 0 picks track A's cell
    and column 1 track B's, each the cell cdf.searchsorted(u*cdf[-1],
    side="right") of the track's cumulative law (which sums to 1 only to
    rounding), found by _invert through the track's guide table, built
    once per run: one lookup, and a binary search only for the uniforms
    whose guide bin straddles a cell edge.  The law's cells (_law_window)
    depend on (cfg, protocol) alone, so row k is a function of
    (seed, k, protocol).
    """
    window = _law_window(cfg, protocol)
    cdfs = np.cumsum(_track_laws(cfg, protocol, window).reshape(2, -1), axis=1)
    guides = [_guide(cdf) for cdf in cdfs]
    parts = _track_index_parts(protocol.n_pulses, window)
    for c in range(-(-sample_size // _LAW_CHUNK_ROWS)):
        rng = _stream((seed, c))
        index = np.empty(min(_LAW_CHUNK_ROWS, sample_size - c * _LAW_CHUNK_ROWS), dtype=np.int64)
        for start in range(0, len(index), _LAW_BLOCK_ROWS):
            block = index[start:start + _LAW_BLOCK_ROWS]
            u = rng.random((len(block), 2))
            # each track's cells are dropped once gathered: about 0.1 MiB
            # less peak RSS than holding both tracks' cells at once
            np.add(*(parts[t, _invert(cdf, guide, u[:, t])]
                     for t, (cdf, guide) in enumerate(zip(cdfs, guides))), out=block)
        yield index


def run_ensemble(
    cfg: EngineConfig,
    protocol: Protocol,
    gate_spec: GateSpec,
    sample_size: int,
    seed: int,
    keep_events: bool = False,
    engine: str = "events",
) -> Iterator[TrajectoryRecord]:
    """Stream sample_size independent trajectory records of a jump lane.

    engine "events" or "mcwf" loops full per-trajectory simulations ("mcwf"
    disables the eigenstate shortcut and is the slow oracle); either refuses
    a run whose largest total outflow rate times its duration exceeds
    JUMP_BUDGET.  The bit lane makes no records; stats.fold_ensemble folds
    it.  The arguments are checked when this is called, before the first
    record is drawn.
    """
    if sample_size < 1:
        raise ConfigError(f"sample_size must be at least 1, got {sample_size}")
    if engine not in ("events", "mcwf"):
        raise ConfigError(f"unknown engine {engine!r}")
    em1, _, em2, _ = _dichotomic_rates(cfg)
    rate = em1 + em2   # the outflow rate of |++>, the largest of the four states
    if not rate * protocol.total_time <= JUMP_BUDGET:
        raise ConfigError(
            f"the {engine} lane needs finite jump rates within the jump budget of "
            f"{JUMP_BUDGET:.0e} per run, got a largest outflow rate of {rate!r} "
            f"over a run time of {protocol.total_time!r}")
    ens = _ensemble(cfg, protocol, gate_spec)
    shortcut = engine == "events"
    return (_trajectory(ens, _BufferedUniforms(_stream((seed, k))), keep_events, shortcut)
            for k in range(sample_size))


def per_pulse_transfer_moments(
    cfg: EngineConfig,
    protocol: Protocol,
    sample_size: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble mean and standard error of the transfer at each pulse index.

    Returns (means, ses), each of length n_pulses; pulse k's mean transfer
    times omega1 is the per-pulse <dE1>, times -omega2 the per-pulse <dE2>,
    times (omega1-omega2) the per-pulse <w>.  A swap-family pulse meets two
    independent bits, excited with probabilities p1 and p2 (each qubit's f
    at pulse 0), so its transfer b2 - b1 into qubit 1 is +1, -1 or 0 with
    probabilities p2*(1 - p1), p1*(1 - p2) and the rest: row j's transfer
    at pulse k is +1 where its uniform u < p2*(1 - p1), -1 where
    p2*(1 - p1) <= u < p2*(1 - p1) + p1*(1 - p2), and 0 above, which has
    the multinomial law of each pulse's counts.  The uniforms are read row
    by row, n_pulses a row, from the run's seed stream, and counted a block
    of rows at a time.  The pulse swaps the bits, which then relax:
    p1' = lo1 + (hi1 - lo1)*p2 and p2' = lo2 + (hi2 - lo2)*p1.
    """
    n_pulses = protocol.n_pulses
    if n_pulses < 1:
        raise ConfigError("per-pulse moments need at least one pulse")
    if sample_size < 2:
        raise ConfigError(f"sample_size must be at least 2, got {sample_size}")
    (f1, lo1, hi1), (f2, lo2, hi2) = _bit_propagator(cfg, protocol.tau2)
    excited = np.empty((n_pulses, 2))
    p1, p2 = f1, f2
    for k in range(n_pulses):
        excited[k] = p1, p2
        p1, p2 = lo1 + (hi1 - lo1) * p2, lo2 + (hi2 - lo2) * p1
    p1, p2 = excited.T
    into = p2 * (1.0 - p1)
    moved = into + p1 * (1.0 - p2)
    rng = _stream(seed)
    rows = max(_RAMP_LEN // n_pulses, 1)
    up = moving = 0
    for start in range(0, sample_size, rows):
        u = rng.random((min(rows, sample_size - start), n_pulses))
        up += np.count_nonzero(u < into, axis=0)
        moving += np.count_nonzero(u < moved, axis=0)
    n = sample_size
    down = moving - up
    mean = (up - down) / n
    var = ((up + down) / n - mean ** 2) * (n / (n - 1))
    return mean, np.sqrt(var / n)
