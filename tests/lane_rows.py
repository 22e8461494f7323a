"""The bit lane's ledger rows as LedgerKeys, in row order, from its two row
sources: the boundary-bit chain, and the rows fold_ensemble reads (the track
law's up to its pulse threshold, the chain's above)."""

import swapengine as se
from swapengine import trajectory


def chain_rows(cfg, protocol, sample_size, seed):
    """The boundary-bit chain's ledger rows."""
    return [se.LedgerKey(*row) for ledgers, _ in
            trajectory._bit_lane_chunks(cfg, protocol, sample_size, seed)
            for row in ledgers.tolist()]


def folded_rows(cfg, protocol, sample_size, seed):
    """The ledger rows fold_ensemble reads on the bit lane."""
    return [se.LedgerKey(*row) for ledgers in
            trajectory._bit_lane_ledgers(cfg, protocol, sample_size, seed)
            for row in ledgers.tolist()]
