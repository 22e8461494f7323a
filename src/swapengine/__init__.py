"""Two-qubit swap heat engine: closed-form thermodynamics, quantum-jump
Monte Carlo trajectories, and fluctuation-relation statistics."""

from .eventlog import ParseError, format_event, parse_events, write_events
from .gates import (BASIS_BITS, ISWAP, SWAP_PERMUTATION, GateOptimum, GateSpec,
                    Generic, SwapFamily, Unitary4, build_gate, fit_to_matrix,
                    gibbs_populations, mean_energetics_for_gate, optimize_gate)
from .pathft import (QubitPath, enumerate_paths, ft_log_ratio_exact,
                     heat_to_bath, joint_ft_log_ratio_exact, log_path_density,
                     reversed_path)
from .stats import (EfficiencyDistribution, EnsembleStats, FtLogRatio,
                    PowerScanRow, Reconstruction, accumulate,
                    efficiency_distribution, fold_ensemble, ft_log_ratio,
                    power_scan, reconstruct_from_events)
from .thermo import (ConfigError, Efficiencies, EngineConfig, ExpansionFit,
                     MaxPowerPoint, MeanEnergetics, Regime, bose_occupation,
                     classify_regime, efficiencies, excited_population,
                     low_etaC_expansion, mean_energetics, omega_star,
                     post_swap_betas, relaxation_time)
from .trajectory import (BASIS_LABELS, JUMP_BUDGET, Energetics, LedgerKey,
                         Protocol, RunParams, TrajectoryEvent, TrajectoryRecord,
                         per_pulse_transfer_moments, run_ensemble,
                         sample_initial_state)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
