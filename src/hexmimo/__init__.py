"""hexmimo: how many users should a massive MIMO cell schedule?

Closed-form uplink spectral-efficiency evaluation over an infinite hexagonal
network with fractional pilot reuse, an (N, K, beta) sweep selecting the
SE-maximizing schedule, and a link-level Monte Carlo oracle validating the
closed forms.
"""

from .config import (InterferenceMode, NetworkConfig, db_to_linear,
                     load_config, validate)
from .hexgrid import CellIndex, bs_position, reuse_group
from .moments import MomentTable, build_table
from .pilots import PilotPlan, inner_product
from .spectral import (Scheme, SeResult, SinrInputs, asymptotic_se,
                       asymptotic_sinr, kstar_asymptotic, se_per_cell, sinr)
from .sweep import SweepResult, optimal_schedule
from .linklevel import (Realization, combine, generate, lmmse_estimate,
                        measure_sinr)

__version__ = "0.1.0"

__all__ = [
    "CellIndex", "InterferenceMode", "MomentTable", "NetworkConfig",
    "PilotPlan", "Realization", "Scheme", "SeResult", "SinrInputs",
    "SweepResult", "asymptotic_se", "asymptotic_sinr", "bs_position",
    "build_table", "combine", "db_to_linear", "generate", "inner_product",
    "kstar_asymptotic", "lmmse_estimate", "load_config", "measure_sinr",
    "optimal_schedule", "reuse_group", "se_per_cell", "sinr", "validate",
]
