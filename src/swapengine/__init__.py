"""Two-qubit swap heat engine: closed-form thermodynamics, quantum-jump
Monte Carlo trajectories, and fluctuation-relation statistics."""

from types import ModuleType as _ModuleType

from .eventlog import ParseError, format_event, parse_events, write_events
from .gates import (BASIS_BITS, ISWAP, SWAP_PERMUTATION, GateOptimum, GateSpec,
                    Generic, SwapFamily, Unitary4, build_gate, gibbs_populations,
                    mean_energetics_for_gate, optimize_gate)
from .stats import (EfficiencyDistribution, EnsembleStats, FtLogRatio,
                    IntegralFt, PowerScanRow, ReadOff, Reconstruction, accumulate,
                    efficiency_distribution, fold_ensemble, ft_log_ratio,
                    path_log_ratio, power_scan, reconstruct_from_events)
from .thermo import (ConfigError, Efficiencies, EngineConfig, ExpansionFit,
                     MaxPowerPoint, MeanEnergetics, Regime, bose_occupation,
                     classify_regime, efficiencies, excited_population,
                     low_etaC_expansion, mean_energetics, omega_star,
                     post_swap_betas, relaxation_time)
from .trajectory import (JUMP_BUDGET, Energetics, LedgerKey, Protocol, RunParams,
                         TrajectoryEvent, TrajectoryRecord, per_pulse_transfer_moments,
                         run_ensemble, sample_initial_state)

__version__ = "0.1.0"

# the re-exported names, without the submodules the imports above bind
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
