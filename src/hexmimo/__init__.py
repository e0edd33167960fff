"""hexmimo: how many users should a massive MIMO cell schedule?

Closed-form uplink spectral-efficiency evaluation over an infinite hexagonal
network with fractional pilot reuse, an (N, K, beta) sweep selecting the
SE-maximizing schedule, and a link-level Monte Carlo oracle validating the
closed forms.

The public names and the submodules load on first use (PEP 562), so
`import hexmimo` loads no numpy and leaves the process as it found it: an
application such as `hexmimo.cli` can still set the environment numpy's
BLAS reads when it loads.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "CellIndex", "InterferenceMode", "MomentTable", "NetworkConfig",
    "Schedule", "Scheme", "SeResult", "SinrInputs", "SweepResult",
    "asymptotic_se", "asymptotic_sinr", "bs_position", "build_table",
    "db_to_linear", "kstar_asymptotic", "load_config", "measure_sinr",
    "optimal_schedule", "reuse_group", "se_per_cell", "sinr",
]

# submodule -> the public names it defines
_HOMES = {
    "config": ("InterferenceMode", "NetworkConfig", "Schedule", "Scheme",
               "db_to_linear", "load_config"),
    "hexgrid": ("CellIndex", "bs_position", "reuse_group"),
    "moments": ("MomentTable", "build_table"),
    "spectral": ("SeResult", "SinrInputs", "asymptotic_se",
                 "asymptotic_sinr", "kstar_asymptotic", "se_per_cell", "sinr"),
    "sweep": ("SweepResult", "optimal_schedule"),
    "linklevel": ("measure_sinr",),
}
# the library submodules `hexmimo.<name>` reaches without an import statement
_SUBMODULES = ("_floatrepr", "config", "errors", "hexgrid", "linklevel", "moments",
               "spectral", "sweep")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    for module, names in _HOMES.items():
        if name in names:
            value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
