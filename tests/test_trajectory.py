"""Stochastic trajectory engines: jump statistics, ledgers, determinism.

Three lanes produce trajectories: a vectorized bit lane (swap-family gates,
no event times), an event lane with closed-form waiting times, and a wave
function lane that draws jump times from the decaying norm as the survival
of a mixture of exponentials.  The lanes share one probability law, so their
statistics must agree, and the two event-resolved lanes consume the
identical uniform stream, so their ledgers must agree record for record, and
on swap-family gates their event times bit for bit.  The jump-time draw from
a superposition is checked against its closed-form survival, and a generic
gate's one-pulse mean heats against their closed form.  The bit lane draws
its rows from the exact law of two excitation tracks, convolved whole up to
a pulse threshold and built on a Fourier window above it; the law is checked
against every boundary-bit path, the fluctuation relations and the
mean-population recursion, the window against the whole law, the
guide-table inversion against the binary search, the block draw against one
draw per chunk, and a plain boundary-bit chain against the law.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import swapengine as se
from swapengine import trajectory

from lane_rows import chain_rows, folded_rows, whole_chunk_rows

CFG = se.EngineConfig(beta1=2.0 / 3.0, beta2=1.0, omega1=1.0, omega2=5.0 / 6.0)
N1 = se.bose_occupation(CFG.beta1, CFG.omega1)
N2 = se.bose_occupation(CFG.beta2, CFG.omega2)


def test_basis_states_and_labels():
    # the documented basis order {|++>, |+->, |-+>, |-->}, "+" the excited level
    for (b1, b2), label in zip(se.BASIS_BITS, ("++", "+-", "-+", "--"), strict=True):
        assert label == ("+" if b1 else "-") + ("+" if b2 else "-")


def test_joint_state_shape_validation_and_superposition_index():
    # a run's state is a bare 4-vector now; _basis_index is its one basis-state test
    basis = np.eye(4, dtype=complex)
    for idx in range(4):
        assert trajectory._basis_index(basis[idx]) == idx
    sup = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2)
    assert trajectory._basis_index(sup) is None


def _pulse(gate, idx):
    """The pulsed basis vector's basis index and the quanta moved into qubit 1."""
    j = trajectory._basis_index(gate.entries @ np.eye(4, dtype=complex)[idx])
    return j, None if j is None else se.BASIS_BITS[j][0] - se.BASIS_BITS[idx][0]


def test_apply_pulse_swap_moves_one_quantum():
    swap = se.build_gate(se.SwapFamily())
    assert _pulse(swap, 1) == (2, -1)  # +- -> -+ moves one quantum out of qubit 1
    assert _pulse(swap, 2) == (1, 1)   # and back


def test_apply_pulse_on_invariant_states_moves_nothing():
    swap = se.build_gate(se.SwapFamily())
    for idx in (0, 3):  # ++ and -- are swap-invariant
        assert _pulse(swap, idx) == (idx, 0)


def test_apply_pulse_superposed_endpoint_has_no_sharp_effect():
    gen = se.build_gate(se.Generic(tuple(np.linspace(0.1, 1.5, 15))))
    assert _pulse(gen, 1) == (None, None)


def test_protocol_total_time_and_validation():
    assert se.Protocol(3, 0.5).total_time == 1.5
    assert se.Protocol(0, 0.7).total_time == 0.7  # bare interval, no pulses
    for (n, tau2), match in (((-1, 0.5), "nonnegative integer, got -1"),
                             ((True, 0.65), "nonnegative integer, got True"),
                             ((2, 0.0), "finite positive time, got 0.0"),
                             ((2, float("nan")), "finite positive time, got nan"),
                             ((3, True), "finite positive time, got True")):
        with pytest.raises(se.ConfigError, match=match):
            se.Protocol(n, tau2)
        with pytest.raises(se.ConfigError, match=match):
            se.Protocol(3, 0.5)._replace(n_pulses=n, tau2=tau2)


def test_channel_rates_follow_occupations_and_populations():
    # channel order: (bath1, emit), (bath1, absorb), (bath2, emit), (bath2, absorb)
    g = CFG.gamma
    expected = {
        0: [g * (N1 + 1), 0.0, g * (N2 + 1), 0.0],  # ++
        1: [g * (N1 + 1), 0.0, 0.0, g * N2],        # +-
        2: [0.0, g * N1, g * (N2 + 1), 0.0],        # -+
        3: [0.0, g * N1, 0.0, g * N2],              # --
    }
    relax = trajectory._relaxation(CFG)
    for idx, ref in expected.items():
        assert relax.weights[idx] == pytest.approx(ref, rel=1e-14)
        amps = np.eye(4, dtype=complex)[idx]
        assert trajectory._channel_rates(relax.rates, amps) == pytest.approx(ref, rel=1e-14)


def test_sample_initial_state_follows_gibbs_weights():
    rng = np.random.default_rng(101)
    counts = np.zeros(4)
    m = 20000
    for _ in range(m):
        counts[se.sample_initial_state(CFG, rng)] += 1
    res = stats.chisquare(counts, f_exp=se.gibbs_populations(CFG) * m)
    assert res.pvalue > 1e-3


def test_relax_amplitudes_does_not_mutate_input():
    amps = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2)
    state = amps.copy()
    rng = np.random.default_rng(0)
    trajectory._relax_amplitudes(state, 5.0, 0.0, rng, trajectory._relaxation(CFG), [],
                                 [0, 0], eigenstate_shortcut=True)
    assert np.array_equal(state, amps)


def test_populations_follow_the_classical_master_equation():
    # start every trajectory in ++ and compare the final-state histogram
    # against a high-accuracy integration of the four-state rate equations
    duration, m = 0.8, 20000
    g = CFG.gamma
    rates = {1: (g * (N1 + 1), g * N1), 2: (g * (N2 + 1), g * N2)}

    def generator(_, p):
        dp = np.zeros(4)
        for i, (b1, b2) in enumerate(se.BASIS_BITS):
            for qubit, bit in ((1, b1), (2, b2)):
                down, up = rates[qubit]
                rate = down if bit else up
                j = i + (2 if qubit == 1 else 1) * (1 if bit else -1)
                # flipping a bit moves weight i -> j at the channel rate
                dp[i] -= rate * p[i]
                dp[j] += rate * p[i]
        return dp

    # BASIS_BITS index arithmetic above: bit1 flip toggles i by 2, bit2 by 1;
    # excited bits sit at the lower index
    sol = integrate.solve_ivp(generator, (0.0, duration), [1.0, 0.0, 0.0, 0.0],
                              rtol=1e-10, atol=1e-12)
    p_ref = sol.y[:, -1]
    assert p_ref.sum() == pytest.approx(1.0, abs=1e-9)

    rng = np.random.default_rng(7)
    relax = trajectory._relaxation(CFG)
    counts = np.zeros(4)
    for _ in range(m):
        counts[trajectory._relax_basis(0, 0.0, duration, 0.0, rng, relax, None, [0, 0])] += 1
    res = stats.chisquare(counts, f_exp=p_ref / p_ref.sum() * m)
    assert res.pvalue > 1e-3


def test_first_jump_time_from_a_superposition_matches_norm_decay():
    # every branch of a superposition is an eigenstate of the no-jump flow,
    # so the first jump's survival is the populations' mixture of the
    # branches' exponentials: an equal mix of |++> and |-->, and an unequal,
    # phased mix of three, which tests the cell pick and the rescaled uniform
    g = CFG.gamma
    outflow = g * np.array([N1 + N2 + 2, N1 + N2 + 1, N1 + N2 + 1, N1 + N2])
    relax = trajectory._relaxation(CFG)
    for amps, seed in ((np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2), 13),
                       (np.sqrt([0.2, 0.5, 0.0, 0.3]) * np.exp([0.0, 0.7j, 0.0, -2.1j]), 14)):
        pops = np.abs(amps) ** 2

        def first_jump_cdf(t):
            return 1.0 - pops @ np.exp(-np.outer(outflow, t))

        rng = np.random.default_rng(seed)
        times = []
        for _ in range(3000):
            events = []
            trajectory._relax_amplitudes(amps, 12.0, 0.0, rng, relax, events, [0, 0],
                                         eigenstate_shortcut=True)
            if events:
                times.append(events[0].time)
        assert len(times) >= 2995  # a missing first jump in 12 units is ~1e-10
        res = stats.kstest(times, first_jump_cdf)
        assert res.pvalue > 1e-3


class _Scripted:
    """A generator that hands out the given uniforms, then `rest` forever."""

    def __init__(self, uniforms, rest):
        self.random = itertools.chain(uniforms, itertools.repeat(rest)).__next__


@pytest.mark.parametrize("shortcut", [True, False], ids=["events", "mcwf"])
def test_a_zero_uniform_waits_forever_and_picks_a_channel_that_has_a_rate(shortcut):
    # random() returns values in [0, 1), so 0.0 is a legal draw: as a wait's
    # uniform it means no jump, and as a channel's it picks the first channel
    # with a rate, as searchsorted(side="right") does.  Two uniforms of 0.99
    # start the run in |-->, whose first channel (bath 1 emission) has none.
    ens = trajectory._ensemble(CFG, se.Protocol(0, 100.0), se.SwapFamily())
    still = trajectory._trajectory(ens, _Scripted([0.99, 0.99], 0.0), True, shortcut)
    assert still.ledger == se.LedgerKey(0, 0, 0, 0, 0) and still.events == ()
    # a wait, then a zero channel uniform: one absorption from bath 1 into |+->
    jump = trajectory._trajectory(ens, _Scripted([0.99, 0.99, 0.5], 0.0), True, shortcut)
    assert jump.ledger == se.LedgerKey(-1, 0, 1, 0, 0)
    assert [(ev.kind, ev.bath) for ev in jump.events] == [("A", 1)]
    assert jump.events[0].time == -math.log(0.5) / (CFG.gamma * (N1 + N2))


def _check_events(rec: se.TrajectoryRecord) -> None:
    """The record's events are strictly time-ordered, and its jumps sum to
    the ledger's net emission counts as the log analyzer counts them."""
    times = [ev.time for ev in rec.events]
    assert all(a < b for a, b in zip(times, times[1:]))
    jumps = [ev for ev in rec.events if ev.kind != "P"]
    assert se.reconstruct_from_events(jumps, rec.params.cfg).naive[:2] == rec.ledger[:2]


def _ledger_checks(rec: se.TrajectoryRecord) -> None:
    p = rec.params.cfg
    led = rec.ledger
    e = rec.energetics
    if rec.events is not None:
        _check_events(rec)
    led.check()
    assert led.n_w == led.h1 + led.db1 == -(led.h2 + led.db2)
    assert abs(led.db1) <= 1 and abs(led.db2) <= 1
    assert e.q1 == p.omega1 * led.h1
    assert e.q2 == p.omega2 * led.h2
    assert e.dU1 == p.omega1 * led.db1
    assert e.dU2 == p.omega2 * led.db2
    assert e.dE1 == p.omega1 * (led.h1 + led.db1)
    assert e.dE2 == p.omega2 * (led.h2 + led.db2)
    assert e.w == (p.omega1 - p.omega2) * led.n_w
    assert e == led.energetics(p.omega1, p.omega2)


def test_event_lane_records_satisfy_all_ledger_identities():
    proto = se.Protocol(n_pulses=100, tau2=0.65)
    for rec in se.run_ensemble(CFG, proto, se.SwapFamily(), 300, seed=5,
                               keep_events=True, engine="events"):
        _ledger_checks(rec)
        jumps = [ev for ev in rec.events if ev.kind != "P"]
        assert sum(1 if ev.kind == "E" else -1
                   for ev in jumps if ev.bath == 1) == rec.ledger.h1
        assert sum(1 if ev.kind == "E" else -1
                   for ev in jumps if ev.bath == 2) == rec.ledger.h2
        times = [ev.time for ev in rec.events]
        assert all(a < b for a, b in zip(times, times[1:]))
        pulses = [ev for ev in rec.events if ev.kind == "P"]
        assert [ev.index for ev in pulses] == list(range(proto.n_pulses))


def test_bit_lane_work_lattice_is_exact_for_dyadic_gaps():
    # omega1 - omega2 = 1/4 is a power of two, so every product and
    # quotient below is a single exact float operation
    cfg = se.EngineConfig(2.0 / 3.0, 1.0, 1.0, 0.75)
    proto = se.Protocol(n_pulses=50, tau2=0.65)
    params = se.RunParams(cfg, proto, se.SwapFamily())
    seen_nonzero = 0
    for key, count in se.fold_ensemble(cfg, proto, se.SwapFamily(), 2000,
                                       seed=21).counts.items():
        rec = se.TrajectoryRecord(params, key)
        _ledger_checks(rec)
        e = rec.energetics
        assert e.w == 0.25 * rec.ledger.n_w
        assert e.w / 0.25 == rec.ledger.n_w
        assert e.dE2 == -0.75 * e.dE1
        if e.dE1 != 0.0:
            assert e.w / e.dE1 == 0.25  # 1 - omega2/omega1, exactly
            seen_nonzero += count
    assert seen_nonzero > 1000


def test_pulse_free_protocol_exchanges_heat_but_no_work():
    proto = se.Protocol(n_pulses=0, tau2=3.0)
    moved = 0
    for rec in se.run_ensemble(CFG, proto, se.SwapFamily(), 400, seed=33,
                               keep_events=True, engine="events"):
        _check_events(rec)
        rec.ledger.check()
        assert rec.ledger.n_w == 0
        e = rec.energetics
        assert e.w == 0.0 and e.dE1 == 0.0 and e.dE2 == 0.0
        assert e.q1 == -e.dU1
        assert e.q2 == -e.dU2
        assert not any(ev.kind == "P" for ev in rec.events)
        if rec.ledger.h1 != 0 or rec.ledger.h2 != 0:
            moved += 1
    assert moved > 200  # heat still flows without pulses


def test_same_seed_reproduces_identical_records():
    proto = se.Protocol(n_pulses=7, tau2=0.65)
    # the bit lane on the whole law and on the Fourier window
    for bit_proto in (proto, se.Protocol(trajectory._LAW_MAX_PULSES + 1, 0.65)):
        assert folded_rows(CFG, bit_proto, 40, seed=9) == folded_rows(CFG, bit_proto, 40, seed=9)
    a = list(se.run_ensemble(CFG, proto, se.SwapFamily(), 40, seed=9, engine="events"))
    b = list(se.run_ensemble(CFG, proto, se.SwapFamily(), 40, seed=9, engine="events"))
    assert a == b


@pytest.mark.parametrize("n_pulses", [0, 1, 100, trajectory._LAW_MAX_PULSES + 1])
def test_block_draw_reads_each_chunk_as_one_draw(n_pulses):
    # a chunk's uniforms come in blocks of _LAW_BLOCK_ROWS rows from its one
    # stream; at sizes on either side of a block's and a chunk's edge the
    # rows are those of one draw per chunk, on the whole law and on the
    # Fourier window alike
    proto = se.Protocol(n_pulses, 0.65)
    block, chunk = trajectory._LAW_BLOCK_ROWS, trajectory._LAW_CHUNK_ROWS
    for size in (1, block - 1, block, block + 1, chunk, chunk + 1, 100_000):
        assert folded_rows(CFG, proto, size, seed=12) == whole_chunk_rows(CFG, proto, size, seed=12)


def test_record_k_does_not_depend_on_sample_size():
    # per-record streams are keyed by (seed, index), so growing the
    # ensemble must extend it without disturbing earlier records
    proto = se.Protocol(n_pulses=7, tau2=0.65)
    # 37000 bit-lane rows cross a 2**15-row chunk
    assert folded_rows(CFG, proto, 50, seed=9) == folded_rows(CFG, proto, 37000, seed=9)[:50]
    # on the Fourier window too, with a second chunk that ends at either size
    above = se.Protocol(trajectory._LAW_MAX_PULSES + 1, 0.65)
    assert folded_rows(CFG, above, 32800, seed=9) == folded_rows(CFG, above, 33000, seed=9)[:32800]
    small = list(se.run_ensemble(CFG, proto, se.SwapFamily(), 20, seed=9, engine="events"))
    big = list(se.run_ensemble(CFG, proto, se.SwapFamily(), 150, seed=9, engine="events"))
    assert small == big[:20]


_MASK64 = (1 << 64) - 1


def _splitmix64_next(state):
    """splitmix64.c's next() (Vigna, 2015) on a Python int: (new state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _splitmix64_uniforms(key, n):
    """n uniforms of the stream of key, one scalar step at a time: the key
    absorbs each word's 64-bit limbs, low first, each by h = mix64((h ^ limb)
    + n_limbs*golden) (mix64 being next()'s output from the state less one
    golden step), and uniform i is next()'s (i+1)-th output from that key,
    its top 53 bits over 2**53."""
    h = 0
    for word in (key,) if isinstance(key, int) else key:
        limbs = [(word >> s) & _MASK64 for s in range(0, max(word.bit_length(), 1), 64)]
        for limb in limbs:
            _, h = _splitmix64_next(((h ^ limb) + (len(limbs) - 1) * 0x9E3779B97F4A7C15)
                                    & _MASK64)
    out = []
    for _ in range(n):
        h, z = _splitmix64_next(h)
        out.append((z >> 11) / 2.0 ** 53)
    return out


@pytest.mark.parametrize("key", [0, 7, (7, 0), (7, 123456), (2**64 + 7, 3), 2**64 + 7,
                                 2**64 - 1, (3 * 2**130 + 1, 2**63), (0, 0, 0)])
def test_streams_are_splitmix64_in_counter_mode(key):
    # a block, a block across two ramp slices, and scalar draws are each
    # the scalar transcription's uniforms, bit for bit
    want = _splitmix64_uniforms(key, 2 * trajectory._RAMP_LEN + 5)
    assert trajectory._stream(key).random(len(want)).tolist() == want
    rng = trajectory._stream(key)
    assert [rng.random() for _ in range(5)] == want[:5]


def test_stream_keys_of_different_shapes_make_different_streams():
    keys = [7, (7,), (7, 0), (0, 7), 2**64 + 7, (2**64 + 7, 0), (7, 1)]
    firsts = {key: trajectory._stream(key).random(4).tolist() for key in keys}
    assert firsts[7] == firsts[(7,)] == trajectory._stream(np.int64(7)).random(4).tolist()
    assert trajectory._stream((np.uint64(7), 1)).random(4).tolist() == firsts[(7, 1)]
    assert len({tuple(u) for u in firsts.values()}) == len(keys) - 1
    with pytest.raises(ValueError, match="nonnegative"):
        trajectory._stream((7, -1))
    with pytest.raises(TypeError):
        trajectory._stream((7, 1.0))


@pytest.mark.parametrize("a,b", [(3, 5), (1, 8192), (8191, 8194), (0, 9), ((2, 3), (40, 2))])
def test_successive_draws_read_one_stream(a, b):
    # random(a) then random(b) is random(a + b), whatever the shapes, and a
    # scalar draw reads the next uniform
    rng = trajectory._stream((5, 2))
    first, second = rng.random(a), rng.random(b)
    assert first.shape == np.empty(a).shape and second.shape == np.empty(b).shape
    whole = trajectory._stream((5, 2)).random(first.size + second.size + 1).tolist()
    assert first.ravel().tolist() + second.ravel().tolist() == whole[:-1]
    assert rng.random() == whole[-1]


def test_buffered_uniforms_are_the_generators_own_uniforms():
    # 600 draws cross two block edges
    for seed in (0, 9, 2**40):
        buffered = trajectory._BufferedUniforms(trajectory._stream((seed, 0)))
        rng = trajectory._stream((seed, 0))
        assert [buffered.random() for _ in range(600)] == [rng.random() for _ in range(600)]


def test_the_born_draw_is_the_generators_choice():
    rng = np.random.default_rng(12)
    dists = [np.array(p, dtype=float) for p in
             ([1, 0, 0, 0], [0, 0, 0, 1], [0, 0.5, 0, 0.5], [0.25] * 4, [0.1, 0.2, 0.3, 0.4])]
    dists += [p / p.sum() for p in rng.random((20, 4)) * (rng.random((20, 4)) < 0.7) + 1e-300]
    for n, pops in enumerate(dists):
        buffered = trajectory._BufferedUniforms(np.random.default_rng(n))
        rng = np.random.default_rng(n)
        for _ in range(100):   # across block edges, and the stream stays in step
            i, rescaled = trajectory._born_draw(pops, buffered.random())
            assert i == rng.choice(4, p=pops)
            assert 0.0 <= rescaled < 1.0
    # a uniform on a cell edge goes to the next state that has weight, as in
    # choice's searchsorted(side="right"), never to a state without, and
    # starts that state's cell
    assert trajectory._born_draw(np.array([0.0, 1.0, 0.0, 0.0]), 0.0) == (1, 0.0)
    assert trajectory._born_draw(np.array([0.5, 0.0, 0.0, 0.5]), 0.5) == (3, 0.0)
    assert trajectory._born_draw(np.array([0.25, 0.5, 0.0, 0.25]), 0.5) == (1, 0.5)
    # on a basis state the rescaled uniform is the uniform, bit for bit
    for u in np.random.default_rng(3).random(1000).tolist():
        assert trajectory._born_draw(np.array([0.0, 0.0, 1.0, 0.0]), u) == (2, u)


class _CountedUniforms:
    """A generator read one call per uniform, counting the calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def random(self):
        self.calls += 1
        return self.rng.random()


def test_a_callers_generator_advances_as_one_call_per_uniform():
    # the helpers read a caller's own Generator one uniform at a time, so it
    # ends where a generator read one call per uniform ends
    relax = trajectory._relaxation(CFG)
    superposed = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2)
    for draw in (lambda rng: se.sample_initial_state(CFG, rng),
                 lambda rng: trajectory._relax_basis(0, 0.0, 5.0, 0.0, rng, relax, None, [0, 0]),
                 lambda rng: trajectory._relax_amplitudes(superposed, 5.0, 0.0, rng, relax,
                                                          None, [0, 0], True)):
        rng, counted = np.random.default_rng(21), _CountedUniforms(np.random.default_rng(21))
        assert np.array_equal(draw(rng), draw(counted))
        assert counted.calls >= 2
        assert rng.random() == counted.rng.random()


@pytest.mark.parametrize("gate,pulses,digest", [
    (se.SwapFamily(), 3, "e941bec09e64b7fda7709e89ad783366fd5cfa3cd9d637af6e1cf624b878a0d3"),
    (se.Generic(tuple(np.linspace(0.2, 2.0, 15))), 3,
     "1568f3ea423535f6f1e2f2117f2f27b6fef8caad3536263c7fb4007788361a32"),
    (se.Generic(tuple(np.linspace(0.2, 2.0, 15))), 25,
     "024ab4105bbc2d6cccbc6618e78d287ba6886f939379cdaf2f9aef62ddb059f5"),
], ids=["swap-3", "generic-3", "generic-25"])
def test_events_lane_records_are_pinned(gate, pulses, digest):
    # digests of the records as the lane made them when it read one uniform
    # per call, each from _Stream's scalar random(); buffered reads and the
    # Born draw must leave every bit alone.  The generic-gate digests also
    # pin the mixture draw of a superposition's jump time.
    h = hashlib.sha256()
    for rec in se.run_ensemble(CFG, se.Protocol(pulses, 0.5), gate, 40, seed=7,
                               keep_events=True):
        h.update(repr((rec.ledger, rec.events)).encode())
    assert h.hexdigest() == digest


def test_the_bit_lane_draws_from_the_track_law_up_to_its_threshold():
    # the whole law up to the threshold, a Fourier window above it; either
    # way a row inverts each track's cumulative law on one of its chunk's
    # two uniforms
    u = trajectory._stream((3, 0)).random((40, 2))
    for pulses in (trajectory._LAW_MAX_PULSES, trajectory._LAW_MAX_PULSES + 1):
        proto = se.Protocol(pulses, 0.01)
        window = trajectory._law_window(CFG, proto)
        assert (window is None) == (pulses <= trajectory._LAW_MAX_PULSES)
        cdfs = np.cumsum(trajectory._track_laws(CFG, proto, window).reshape(2, -1), axis=1)
        parts = trajectory._track_index_parts(pulses, window)
        want = [sum(parts[t, np.flatnonzero(cdf > row[t] * cdf[-1])[0]]
                    for t, cdf in enumerate(cdfs)) for row in u]
        rows = np.concatenate(list(trajectory._bit_lane_ledgers(CFG, proto, 40, 3)))
        assert rows.tolist() == want


GUIDE_LAWS = [(CFG, pulses) for pulses in (0, 1, 100, 1024, 1025, 10000)] + [
    (se.EngineConfig(0.05, 30.0, 1.0, 0.5), 100),   # runs of exactly-zero cells
]


@pytest.mark.parametrize("cfg, pulses", GUIDE_LAWS)
def test_the_guide_table_inverts_as_the_binary_search(cfg, pulses):
    # on the whole law and on the Fourier window, at the uniforms nearest a
    # guide bin's edges or a cell's: 0 and the largest float below 1, every
    # bin edge b/K and the float below it, and every cdf[i]/cdf[-1] with its
    # two float neighbours
    proto = se.Protocol(pulses, 0.65)
    window = trajectory._law_window(cfg, proto)
    assert (window is None) == (pulses <= trajectory._LAW_MAX_PULSES)
    edges = np.arange(trajectory._GUIDE_BINS) / trajectory._GUIDE_BINS
    for cdf in np.cumsum(trajectory._track_laws(cfg, proto, window).reshape(2, -1), axis=1):
        ratio = cdf / cdf[-1]
        u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], edges, np.nextafter(edges, 0.0),
                            ratio, np.nextafter(ratio, 0.0), np.nextafter(ratio, 1.0)])
        u = u[(u >= 0.0) & (u < 1.0)]
        assert (trajectory._invert(cdf, trajectory._guide(cdf), u).tolist()
                == cdf.searchsorted(u * cdf[-1], side="right").tolist())


@pytest.mark.parametrize("pulses", [0, 1, 2, 7, 1024, 1025])
def test_key_index_round_trips_every_swap_family_ledger(pulses):
    width = 2 * pulses + 1
    seen = []
    for db1, db2, n_w in itertools.product((-1, 0, 1), (-1, 0, 1),
                                           range(-pulses, pulses + 1)):
        index = trajectory._key_index(db1, db2, n_w, pulses)
        key = trajectory._index_key(index, pulses)
        assert (key.db1, key.db2, key.n_w) == (db1, db2, n_w)
        key.check()
        seen.append(index)
    assert sorted(seen) == list(range(9 * width))
    # the array form gives the same indices
    db1, db2, n_w = np.array(list(itertools.product(
        (-1, 0, 1), (-1, 0, 1), range(-pulses, pulses + 1)))).T
    assert trajectory._key_index(db1, db2, n_w, pulses).tolist() == seen
    for index in (-1, -width, -9 * width - 1, 9 * width, 9 * width + 1, 20 * width):
        with pytest.raises(AssertionError, match="ledger broken"):
            trajectory._index_key(index, pulses).check()


def _ledger_law(cfg, protocol):
    """The exact law of the whole ledger, LedgerKey -> probability, from the
    whole track laws: a pair of (initial, final) bit blocks, one per track,
    fixes db1 and db2, and its n_w law is the convolution of the two
    tracks' m laws.  A ledger's index is the sum of its two cells' parts,
    which grow by 1 a cell."""
    laws = trajectory._track_laws(cfg, protocol)
    parts = trajectory._track_index_parts(protocol.n_pulses).reshape(laws.shape)
    law = Counter()
    for a, b in itertools.product(np.ndindex(2, 2), repeat=2):
        p = np.convolve(laws[0][a], laws[1][b])
        base = parts[0][a][0] + parts[1][b][0]
        for j, q in enumerate(p.tolist()):
            if q:
                law[trajectory._index_key(base + j, protocol.n_pulses)] += q
    return law


def _path_law(cfg, protocol):
    """The exact law of the whole ledger, summed over all 2^(2+2N) boundary-bit
    paths one at a time: the Gibbs weights of the initial bits times each
    interval's propagator p_end = f + (b - f)*exp(-R*tau2)."""
    odds = trajectory._bit_propagator(cfg, protocol.tau2)

    def p_bit(qubit, start, end):
        f, lo, hi = odds[qubit]
        p1 = f if start is None else (hi if start else lo)
        return p1 if end else 1.0 - p1

    intervals = max(protocol.n_pulses, 1)
    law = Counter()
    for path in itertools.product((0, 1), repeat=2 + 2 * intervals):
        b1, b2 = path[:2]
        p = p_bit(0, None, b1) * p_bit(1, None, b2)
        h1 = h2 = n_w = 0
        for k in range(intervals):
            if k < protocol.n_pulses:
                n_w += b2 - b1
                b1, b2 = b2, b1
            e1, e2 = path[2 + 2 * k:4 + 2 * k]
            p *= p_bit(0, b1, e1) * p_bit(1, b2, e2)
            h1, h2, b1, b2 = h1 + b1 - e1, h2 + b2 - e2, e1, e2
        law[se.LedgerKey(h1, h2, b1 - path[0], b2 - path[1], n_w)] += p
    return law


@pytest.mark.parametrize("pulses", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("cfg,tau2", [
    (CFG, 0.65),
    (se.EngineConfig(0.5, 1.0, 1.0, 0.3, gamma=2.0), 0.1),   # a refrigerator
])
def test_track_law_is_the_sum_over_every_boundary_bit_path(cfg, tau2, pulses):
    proto = se.Protocol(pulses, tau2)
    law = _ledger_law(cfg, proto)
    paths = _path_law(cfg, proto)
    assert set(law) == set(paths)
    for key, p in paths.items():
        assert law[key] == pytest.approx(p, rel=1e-12, abs=0.0)


@st.composite
def law_runs(draw):
    """Configs and protocols whose FT weights exp(-a*n_w), a = beta1*omega1 -
    beta2*omega2, stay below e^600 at |n_w| <= N: the cells whose
    probability underflows then carry weights below 1e-47 in the integral
    FT."""
    beta1 = draw(st.floats(0.05, 3.0))
    cfg = se.EngineConfig(beta1, beta1 * draw(st.floats(1.0, 5.0)), draw(st.floats(0.2, 3.0)),
                          draw(st.floats(0.1, 3.0)), gamma=draw(st.floats(0.1, 5.0)))
    affinity = cfg.beta1 * cfg.omega1 - cfg.beta2 * cfg.omega2
    pulses = draw(st.integers(0, min(60, int(600 / max(abs(affinity), 1e-9)))))
    return cfg, se.Protocol(pulses, draw(st.floats(0.01, 5.0)))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(law_runs())
def test_track_law_obeys_both_fluctuation_relations(run):
    cfg, proto = run
    law = _ledger_law(cfg, proto)
    laws = trajectory._track_laws(cfg, proto)
    assert laws.sum(axis=(1, 2, 3)) == pytest.approx([1.0, 1.0], abs=1e-12)
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
    affinity = cfg.beta1 * cfg.omega1 - cfg.beta2 * cfg.omega2
    ift = 0.0
    p_nw = Counter()
    for key, p in law.items():
        e = key.energetics(cfg.omega1, cfg.omega2)
        ift += p * math.exp((cfg.beta2 - cfg.beta1) * e.dE1 - cfg.beta2 * e.w)
        p_nw[key.n_w] += p
    assert ift == pytest.approx(1.0, abs=1e-12)
    # below about 1e-300 a probability has passed through subnormal floats,
    # which keep fewer digits
    for n in range(1, proto.n_pulses + 1):
        if min(p_nw[n], p_nw[-n]) > 1e-300:
            assert math.log(p_nw[n] / p_nw[-n]) == pytest.approx(
                affinity * n, rel=1e-12, abs=1e-12)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(law_runs(), st.floats(-1.0, 1.0))
def test_tilted_moment_is_the_laws_moment(run, chi):
    # E[exp(chi*n_w)] from the tilted walk against the sum over the law, at
    # chi, at -a (the integral FT, 1) and at -2a (E[W^2] of its weight)
    # while every weight exp(tilt*n_w) is a float (|n_w| <= N)
    cfg, proto = run
    law = _ledger_law(cfg, proto)
    affinity = cfg.beta1 * cfg.omega1 - cfg.beta2 * cfg.omega2
    for tilt in (chi, -affinity, -2.0 * affinity):
        if abs(tilt) * proto.n_pulses > 700.0:
            continue
        want = math.fsum(p * math.exp(tilt * key.n_w) for key, p in law.items())
        assert trajectory._tilted_moment(cfg, proto, tilt) == pytest.approx(want, rel=1e-10)
    assert trajectory._tilted_moment(cfg, proto, -affinity) == pytest.approx(1.0, abs=1e-12)


def _mean_work_by_populations(cfg, protocol):
    """E[w] of a swap run from its mean populations alone: pulse k moves
    p2 - p1 quanta into qubit 1 on average and swaps them, then each relaxes
    as p_end = f + (p - f)*exp(-gamma*(2n+1)*tau2)."""
    f = [se.excited_population(cfg.beta1, cfg.omega1),
         se.excited_population(cfg.beta2, cfg.omega2)]
    dec = [math.exp(-cfg.gamma * (2.0 * se.bose_occupation(beta, omega) + 1.0) * protocol.tau2)
           for beta, omega in ((cfg.beta1, cfg.omega1), (cfg.beta2, cfg.omega2))]
    p1, p2 = f
    total = 0.0
    for _ in range(protocol.n_pulses):
        total += p2 - p1
        p1, p2 = f[0] + (p2 - f[0]) * dec[0], f[1] + (p1 - f[1]) * dec[1]
    return (cfg.omega1 - cfg.omega2) * total


@pytest.mark.parametrize("cfg,proto", [
    (CFG, se.Protocol(100, 0.65)),
    (CFG, se.Protocol(1, 0.65)),
    (se.EngineConfig(0.5, 1.0, 1.0, 0.3, gamma=2.0), se.Protocol(37, 0.1)),
    (se.EngineConfig(0.05, 30.0, 1.0, 0.5), se.Protocol(60, 2.0)),
])
def test_track_law_mean_work_is_the_population_recursion(cfg, proto):
    law = _ledger_law(cfg, proto)
    mean_w = (cfg.omega1 - cfg.omega2) * sum(p * key.n_w for key, p in law.items())
    assert mean_w == pytest.approx(_mean_work_by_populations(cfg, proto), rel=1e-12, abs=1e-14)


# 1025 is above the threshold: there the chain is held to the whole law,
# which the Fourier window is held to below
@pytest.mark.parametrize("pulses", [0, 1, 2, 3, 7, 100, 1025])
def test_the_chain_draws_the_track_law(pulses):
    # the law sampler stands on this: a plain boundary-bit chain, which
    # counts each heat itself, draws the track law; Pearson chi^2 over the
    # ledger keys, cells below 5 expected counts pooled into one
    samples = 100_000 if pulses <= 100 else 20_000
    proto = se.Protocol(pulses, 0.65)
    law = _ledger_law(CFG, proto)
    observed = Counter(chain_rows(CFG, proto, samples, seed=61))
    assert set(observed) <= {key for key, p in law.items() if p > 0}
    chi2 = 0.0
    cells = 0
    pooled_expected = pooled_observed = 0.0
    for key, p in law.items():
        if samples * p >= 5.0:
            chi2 += (observed[key] - samples * p) ** 2 / (samples * p)
            cells += 1
        else:
            pooled_expected += samples * p
            pooled_observed += observed[key]
    if pooled_expected > 0.0:
        chi2 += (pooled_observed - pooled_expected) ** 2 / pooled_expected
        cells += 1
    assert stats.chi2.sf(chi2, cells - 1) > 1e-3


WINDOW_CONFIGS = [CFG, se.EngineConfig(0.5, 1.0, 1.0, 0.3, gamma=2.0)]


@pytest.mark.parametrize("pulses", [1025, 2048, 4096])
@pytest.mark.parametrize("tau2", [0.01, 0.65])
@pytest.mark.parametrize("cfg", WINDOW_CONFIGS)
def test_the_fourier_window_is_the_whole_law_on_every_cell(cfg, tau2, pulses):
    proto = se.Protocol(pulses, tau2)
    whole = trajectory._track_laws(cfg, proto)
    window = trajectory._law_window(cfg, proto)
    cells, starts = window
    assert cells & (cells - 1) == 0 or cells == 2 * pulses + 3
    assert cells <= 2 * pulses + 3
    law = trajectory._track_laws(cfg, proto, window)
    assert law.shape == (2, 2, 2, cells)
    assert np.all(law >= 0.0)
    m = np.arange(2 * pulses + 3) - (pulses + 1)
    for track in (0, 1):
        assert 0 <= starts[track] <= 2 * pulses + 3 - cells
        cover = np.zeros_like(whole[track])
        cover[..., starts[track]:starts[track] + cells] = law[track]
        assert np.abs(cover - whole[track]).max() <= 1e-14
        # a cell no track reaches is exactly 0 on both builds, so two
        # tracks' cells never sum to |n_w| > N
        reach = (-(pulses // 2) <= (2 * track - 1) * m) & ((2 * track - 1) * m <= -(-pulses // 2))
        assert not cover[..., ~reach].any() and not whole[track][..., ~reach].any()
        # the window is centred on the track's exact mean, within the law's cells
        mean = whole[track].sum(axis=(0, 1)) @ m
        centre = min(max(math.floor(mean) + pulses + 1 - cells // 2, 0), 2 * pulses + 3 - cells)
        assert starts[track] == centre
    assert trajectory._law_window(cfg, proto) == window


# the generic gate starts each interval in a superposition, which the
# events lane carries as amplitudes until a jump collapses it to a basis state
LANE_GATES = [se.SwapFamily(), se.ISWAP,
              se.Generic(tuple(np.linspace(0.2, 2.0, 15))),
              se.SwapFamily(0.3, -1.2, 2.0, 0.7)]


@pytest.mark.parametrize("gate", LANE_GATES)
def test_event_and_wavefunction_lanes_share_ledgers(gate):
    proto = se.Protocol(n_pulses=5, tau2=0.5)
    ev = list(se.run_ensemble(CFG, proto, gate, 50, seed=4, engine="events"))
    wf = list(se.run_ensemble(CFG, proto, gate, 50, seed=4, engine="mcwf"))
    assert ev == wf


@pytest.mark.parametrize("gate", LANE_GATES)
def test_event_and_wavefunction_lanes_agree_on_jump_times(gate):
    proto = se.Protocol(n_pulses=5, tau2=0.5)
    ev = list(se.run_ensemble(CFG, proto, gate, 10, seed=4,
                              keep_events=True, engine="events"))
    wf = list(se.run_ensemble(CFG, proto, gate, 10, seed=4,
                              keep_events=True, engine="mcwf"))
    if isinstance(gate, se.SwapFamily):
        # a basis state's mixture draw is its closed-form wait bit for bit
        assert ev == wf
        return
    for a, b in zip(ev, wf):
        assert len(a.events) == len(b.events)
        for x, y in zip(a.events, b.events):
            assert (x.kind, x.bath) == (y.kind, y.bath)
            # the mcwf lane carries even a basis state as amplitudes, phased
            # and normalized to rounding, so its superpositions, and the
            # cells of their draws, can differ from the events lane's in the
            # last bits
            assert x.time == pytest.approx(y.time, rel=1e-12)


def test_bit_and_event_lanes_draw_from_the_same_law():
    # lo and hi clip the tails so every expected cell count stays above 5
    for proto, m, lo, hi in (
            (se.Protocol(n_pulses=3, tau2=0.5), 4000, -3, 3),
            # on the Fourier window; short intervals keep the events lane quick
            (se.Protocol(n_pulses=trajectory._LAW_MAX_PULSES + 1, tau2=0.01), 1000, -5, 5)):
        bits = [key.n_w for key in folded_rows(CFG, proto, m, seed=51)]
        evs = [r.ledger.n_w for r in se.run_ensemble(CFG, proto, se.SwapFamily(),
                                                     m, seed=52, engine="events")]
        table = np.zeros((2, hi - lo + 1))
        for row, sample in enumerate((bits, evs)):
            for n in sample:
                table[row, min(max(n, lo), hi) - lo] += 1
        keep = table.sum(axis=0) > 0
        res = stats.chi2_contingency(table[:, keep])
        assert res.pvalue > 1e-3


@pytest.mark.parametrize("tau2", [0.3, 1.0])
def test_generic_gate_mean_heats_after_one_pulse_are_the_closed_form(tau2):
    # the pulse leaves the Gibbs state with populations p' = |U|^2 p, and
    # each qubit's excited population then relaxes to lo + (hi - lo)*p'_i,
    # so E[q_i] = omega_i*(p'_i - lo_i - (hi_i - lo_i)*p'_i): a check of the
    # generic-gate law that no jump lane computes.  It does not pin the
    # waiting law on its own (a single clock at the mean outflow rate
    # passes it too); the first-jump KS test does that.
    cfg = se.EngineConfig(0.5, 1.0, 1.0, 0.6)
    gate = se.Generic(tuple(np.linspace(0.2, 2.0, 15)))
    excited = (np.abs(se.build_gate(gate).entries) ** 2 @ se.gibbs_populations(cfg)
               @ np.array(se.BASIS_BITS, dtype=float))
    exact = [omega * (p - lo - (hi - lo) * p) for omega, p, (_, lo, hi) in
             zip((cfg.omega1, cfg.omega2), excited, trajectory._bit_propagator(cfg, tau2))]
    heats = np.array([rec.energetics[:2] for rec in
                      se.run_ensemble(cfg, se.Protocol(1, tau2), gate, 20000, seed=1)])
    z = (heats.mean(axis=0) - exact) / (heats.std(axis=0, ddof=1) / math.sqrt(len(heats)))
    assert np.all(np.abs(z) < 4.0), z


def test_generic_gate_records_are_unquantized_but_conserving():
    gen = se.Generic(tuple(np.linspace(0.2, 2.0, 15)))
    proto = se.Protocol(n_pulses=4, tau2=0.5)
    recs = list(se.run_ensemble(CFG, proto, gen, 80, seed=3, keep_events=True))
    assert len(recs) == 80
    for rec in recs:
        _check_events(rec)
        rec.ledger.check()
        assert rec.ledger.n_w is None
        assert rec.energetics.w == rec.energetics.dE1 + rec.energetics.dE2
        assert abs(rec.ledger.db1) <= 1 and abs(rec.ledger.db2) <= 1


@st.composite
def small_runs(draw):
    """Heat-engine or refrigerator configs with short protocols and gates of
    the swap family (the lanes every check below applies to)."""
    beta1 = draw(st.floats(0.2, 2.0))
    beta2 = beta1 * draw(st.floats(1.05, 3.0))
    window = draw(st.floats(0.05, 0.95))
    lo = beta1 / beta2
    engine = draw(st.booleans())
    ratio = lo + window * (1.0 - lo) if engine else window * lo
    omega1 = draw(st.floats(0.5, 2.0))
    cfg = se.EngineConfig(beta1, beta2, omega1, ratio * omega1,
                          gamma=draw(st.floats(0.3, 3.0)))
    assert se.classify_regime(cfg) is (
        se.Regime.HEAT_ENGINE if engine else se.Regime.REFRIGERATOR)
    proto = se.Protocol(draw(st.integers(0, 5)), draw(st.floats(0.05, 2.0)))
    gate = draw(st.sampled_from([se.SwapFamily(), se.ISWAP]))
    return cfg, proto, gate, draw(st.integers(1, 20)), draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, database=None, deadline=None)
@given(small_runs())
def test_every_lane_makes_checked_ledgers_that_agree(run):
    cfg, proto, gate, samples, seed = run
    ev = list(se.run_ensemble(cfg, proto, gate, samples, seed, engine="events"))
    wf = list(se.run_ensemble(cfg, proto, gate, samples, seed, engine="mcwf"))
    for rec in ev + wf:
        rec.ledger.check()
    assert [r.ledger for r in ev] == [r.ledger for r in wf]
    folded = se.fold_ensemble(cfg, proto, gate, samples, seed)
    rows = folded_rows(cfg, proto, samples, seed)
    assert folded.counts == Counter(rows)
    params = se.RunParams(cfg, proto, gate)
    by_record = se.accumulate(se.TrajectoryRecord(params, key) for key in reversed(rows))
    assert folded == by_record
    assert folded.integral_ft == by_record.integral_ft


def test_run_ensemble_rejects_bad_requests():
    # every request is checked when run_ensemble is called, before a record
    # is drawn, so no list() is needed to see the error
    proto = se.Protocol(n_pulses=2, tau2=0.5)
    # the bit lane makes no records: only fold_ensemble runs it
    for engine in ("bits", "auto", "nope"):
        with pytest.raises(se.ConfigError, match="unknown engine"):
            se.run_ensemble(CFG, proto, se.SwapFamily(), 5, seed=0, engine=engine)
    with pytest.raises(se.ConfigError, match="sample_size"):
        se.run_ensemble(CFG, proto, se.SwapFamily(), 0, seed=0)
    # gamma*(n1+1) overflows; n2 = 1/expm1(beta2*omega2) is inf at subnormal
    # omega2; at gamma = 1e200 the rates are finite but about 1e200 jumps
    # per run are expected, far beyond the jump budget
    for cfg in (se.EngineConfig(2.0 / 3.0, 1.0, 1.0, 5.0 / 6.0, gamma=1e308),
                se.EngineConfig(2.0 / 3.0, 1.0, 1.0, 1e-320),
                se.EngineConfig(2.0 / 3.0, 1.0, 1.0, 5.0 / 6.0, gamma=1e200)):
        for engine in ("events", "mcwf"):
            with pytest.raises(se.ConfigError, match="needs finite jump rates"):
                se.run_ensemble(cfg, proto, se.SwapFamily(), 3, seed=0,
                                engine=engine)
        # the bit lane draws from the propagator and needs no rate
        assert se.fold_ensemble(cfg, proto, se.SwapFamily(), 3, 0).sample_size == 3


def test_jump_budget_bounds_the_rate_times_the_run_time():
    # the working point expects about 250 jumps per run; the budget admits
    # a run just below it and refuses one just above
    rate = CFG.gamma * ((N1 + 1) + (N2 + 1))   # |++>, the largest outflow
    assert 240 < rate * 100 * 0.65 < 260
    tau2 = se.JUMP_BUDGET / rate / 2
    se.run_ensemble(CFG, se.Protocol(2, tau2 * (1 - 1e-9)), se.SwapFamily(), 1,
                    seed=0, engine="events")
    with pytest.raises(se.ConfigError, match="jump budget"):
        se.run_ensemble(CFG, se.Protocol(2, tau2 * (1 + 1e-9)), se.SwapFamily(),
                        1, seed=0, engine="events")


@pytest.mark.parametrize("sample_size", [0, 1])
def test_per_pulse_transfer_moments_need_two_samples(sample_size):
    with pytest.raises(se.ConfigError, match="sample_size"):
        se.per_pulse_transfer_moments(CFG, se.Protocol(n_pulses=2, tau2=0.5),
                                      sample_size, seed=0)


def test_per_pulse_transfer_moments_match_the_relaxed_swap_mean():
    # long intervals rethermalize both qubits, so every pulse transfers
    # the fresh population imbalance on average
    tau2 = 8.0 * se.relaxation_time(CFG)
    means, ses = se.per_pulse_transfer_moments(CFG, se.Protocol(3, tau2),
                                               sample_size=20000, seed=2)
    df = se.excited_population(CFG.beta1, CFG.omega1) - se.excited_population(
        CFG.beta2, CFG.omega2)
    assert means.shape == ses.shape == (3,)
    assert np.all(ses > 0.0)
    for mean, s in zip(means, ses):
        assert abs(mean - (-df)) < 5.0 * s
    again, _ = se.per_pulse_transfer_moments(CFG, se.Protocol(3, tau2),
                                             sample_size=20000, seed=2)
    assert np.array_equal(means, again)


def test_per_pulse_transfer_moments_follow_the_population_recursion():
    # short intervals leave each qubit's population short of its bath's, so
    # pulse k moves p2 - p1 quanta on average with the pulse-to-pulse
    # populations of _mean_work_by_populations
    means, ses = se.per_pulse_transfer_moments(CFG, se.Protocol(6, 0.3),
                                               sample_size=200_000, seed=8)
    f = [se.excited_population(CFG.beta1, CFG.omega1),
         se.excited_population(CFG.beta2, CFG.omega2)]
    dec = [math.exp(-CFG.gamma * (2.0 * se.bose_occupation(beta, omega) + 1.0) * 0.3)
           for beta, omega in ((CFG.beta1, CFG.omega1), (CFG.beta2, CFG.omega2))]
    p1, p2 = f
    for mean, s in zip(means, ses):
        assert abs(mean - (p2 - p1)) < 4.0 * s
        p1, p2 = f[0] + (p2 - f[0]) * dec[0], f[1] + (p1 - f[1]) * dec[1]
