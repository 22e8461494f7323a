"""Two-qubit swap heat engine: closed-form thermodynamics, quantum-jump
Monte Carlo trajectories, and fluctuation-relation statistics.

Each name of __all__ is loaded from its submodule when first looked up
(PEP 562), so a program that uses only the closed forms (thermo, gates)
never loads numpy, which the sampling modules (trajectory, stats) need.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names it defines that the package re-exports
_EXPORTS = {
    "eventlog": ("ParseError", "TrajectoryEvent", "format_event", "parse_events",
                 "write_events"),
    "gates": ("BASIS_BITS", "ISWAP", "SWAP_PERMUTATION", "GateOptimum", "GateSpec",
              "Generic", "SwapFamily", "Unitary4", "build_gate", "gibbs_populations",
              "mean_energetics_for_gate", "optimize_gate"),
    "stats": ("EfficiencyDistribution", "EnsembleStats", "FtLogRatio", "IntegralFt",
              "PowerScanRow", "ReadOff", "Reconstruction", "accumulate",
              "efficiency_distribution", "fold_ensemble", "ft_log_ratio", "path_log_ratio",
              "power_scan", "reconstruct_from_events"),
    "thermo": ("ConfigError", "Efficiencies", "EngineConfig", "ExpansionFit", "MaxPowerPoint",
               "MeanEnergetics", "Protocol", "Regime", "bose_occupation", "classify_regime",
               "efficiencies", "excited_population", "low_etaC_expansion", "mean_energetics",
               "omega_star", "post_swap_betas", "relaxation_time"),
    "trajectory": ("JUMP_BUDGET", "Energetics", "LedgerKey", "RunParams", "TrajectoryRecord",
                   "per_pulse_transfer_moments", "run_ensemble", "sample_initial_state"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:   # a submodule, which importing binds here
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value
