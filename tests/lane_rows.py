"""The bit lane's ledger rows as LedgerKeys, in row order, from its row
sources: a plain boundary-bit chain, written here for the tests alone, the
rows fold_ensemble reads, drawn from the exact track law, and those rows
drawn again a whole chunk at a time."""

import math

import numpy as np

import swapengine as se
from swapengine import trajectory


def chain_rows(cfg, protocol, sample_size, seed):
    """The boundary-bit chain walked one interval at a time over every row
    at once: the initial bits from the Gibbs weights, then per interval the
    pulse swaps the bits and banks b2 - b1 into n_w, and each qubit's end
    bit is drawn from p_end = f + (b - f)*exp(-gamma*(2n+1)*tau2), its
    start bit minus its end bit booked as heat released into its bath."""
    f = np.array([se.excited_population(cfg.beta1, cfg.omega1),
                  se.excited_population(cfg.beta2, cfg.omega2)])[:, None]
    dec = np.array([math.exp(-cfg.gamma * (2.0 * se.bose_occupation(beta, omega) + 1.0)
                             * protocol.tau2)
                    for beta, omega in ((cfg.beta1, cfg.omega1),
                                        (cfg.beta2, cfg.omega2))])[:, None]
    rng = np.random.default_rng(seed)
    start = bits = (rng.random((2, sample_size)) < f).astype(np.int64)   # [qubit, row]
    heat = np.zeros((2, sample_size), dtype=np.int64)
    n_w = np.zeros(sample_size, dtype=np.int64)
    for k in range(max(protocol.n_pulses, 1)):
        if k < protocol.n_pulses:
            n_w += bits[1] - bits[0]
            bits = bits[::-1]
        end = (rng.random((2, sample_size)) < f + (bits - f) * dec).astype(np.int64)
        heat += bits - end
        bits = end
    return [se.LedgerKey(*row) for row in
            np.stack([*heat, *(bits - start), n_w], axis=1).tolist()]


def folded_rows(cfg, protocol, sample_size, seed):
    """The ledger rows fold_ensemble reads on the bit lane."""
    return [trajectory._index_key(i, protocol.n_pulses) for index in
            trajectory._bit_lane_ledgers(cfg, protocol, sample_size, seed)
            for i in index.tolist()]


def whole_chunk_rows(cfg, protocol, sample_size, seed):
    """The rows of the bit lane's law with each chunk's uniforms drawn in
    one rng.random((rows, 2)) call from its (seed, c) stream, and inverted
    and indexed a whole chunk at a time."""
    window = trajectory._law_window(cfg, protocol)
    cdfs = np.cumsum(trajectory._track_laws(cfg, protocol, window).reshape(2, -1), axis=1)
    parts = trajectory._track_index_parts(protocol.n_pulses, window)
    chunk = trajectory._LAW_CHUNK_ROWS
    rows = []
    for c in range(-(-sample_size // chunk)):
        rng = trajectory._stream((seed, c))
        u = rng.random((min(chunk, sample_size - c * chunk), 2))
        cells = [trajectory._invert(cdf, trajectory._guide(cdf), u[:, t])
                 for t, cdf in enumerate(cdfs)]
        rows += (parts[0, cells[0]] + parts[1, cells[1]]).tolist()
    return [trajectory._index_key(i, protocol.n_pulses) for i in rows]
