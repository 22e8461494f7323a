"""The bit lane's ledger rows as LedgerKeys, in row order, from its two row
sources: the boundary-bit chain, and the rows fold_ensemble reads (the track
law's up to its pulse threshold, the chain's above).  Both name a row by its
ledger's integer index, decoded here."""

from swapengine import trajectory


def chain_rows(cfg, protocol, sample_size, seed):
    """The boundary-bit chain's ledger rows."""
    return [trajectory._index_key(i, protocol.n_pulses) for index, _ in
            trajectory._bit_lane_chunks(cfg, protocol, sample_size, seed)
            for i in index.tolist()]


def folded_rows(cfg, protocol, sample_size, seed):
    """The ledger rows fold_ensemble reads on the bit lane."""
    return [trajectory._index_key(i, protocol.n_pulses) for index in
            trajectory._bit_lane_ledgers(cfg, protocol, sample_size, seed)
            for i in index.tolist()]
