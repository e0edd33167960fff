"""Network configuration: every scalar shared by the analytic and link-level paths.

The noise power sigma^2 is normalized to 1, so ``snr_linear`` is the uplink
design SNR rho/sigma^2 and all formulas consume the single ratio
``sigma^2 / rho = 1 / snr_linear``.  The pathloss reference ``C`` and the cell
radius ``r`` are kept in the record because the link-level simulator works
with absolute distances; they cancel out of every interference moment.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, InsufficientAntennas, PilotOverflow

# Cluster sizes with a co-channel sublattice on the hexagonal grid.
HEX_REUSE_FACTORS = (1, 3, 4, 7)

_COUNT_FIELDS = ("n_antennas", "n_users", "coherence_block", "reuse_factor")
_REAL_FIELDS = ("snr_linear", "pathloss_exponent", "cell_radius", "pathloss_ref",
                "min_ue_distance_frac")


def db_to_linear(value_db: float) -> float:
    """Convert a dB power ratio to linear scale."""
    return 10.0 ** (value_db / 10.0)


class InterferenceMode(Enum):
    """How out-of-cell interferer positions enter the coupling moments."""

    AVERAGE = "avg"        # expectation over uniform UE positions
    WORST_CASE = "worst"   # every out-of-cell UE at the cell edge nearest the victim BS


@dataclass(frozen=True)
class NetworkConfig:
    """Scalar parameters of the multi-cell uplink.

    Attributes:
        n_antennas: BS antennas N.
        n_users: scheduled single-antenna users K per cell.
        coherence_block: coherence block length T in channel uses.
        reuse_factor: pilot reuse factor beta; pilot book size is B = beta * K.
        snr_linear: design SNR rho/sigma^2 in linear scale.
        pathloss_exponent: distance exponent kappa >= 2.
        cell_radius: center-to-corner hexagon radius r in meters.
        pathloss_ref: pathloss reference C (cancels in all SINR expressions).
        min_ue_distance_frac: UE exclusion radius around the serving BS, as a
            fraction of the cell radius.
    """

    n_antennas: int
    n_users: int
    coherence_block: int
    reuse_factor: int
    snr_linear: float
    pathloss_exponent: float = 3.5
    cell_radius: float = 250.0
    pathloss_ref: float = 1.0
    min_ue_distance_frac: float = 0.14

    @property
    def pilot_len(self) -> int:
        """Pilot book size B = beta * K."""
        return self.reuse_factor * self.n_users

    @property
    def inv_snr(self) -> float:
        """sigma^2 / rho, the only way noise enters the closed forms."""
        return 1.0 / self.snr_linear

    def with_schedule(self, n_antennas=None, n_users=None, reuse_factor=None) -> "NetworkConfig":
        """Copy of the config with a different (N, K, beta) operating point."""
        from dataclasses import replace

        kwargs = {}
        if n_antennas is not None:
            kwargs["n_antennas"] = n_antennas
        if n_users is not None:
            kwargs["n_users"] = n_users
        if reuse_factor is not None:
            kwargs["reuse_factor"] = reuse_factor
        return replace(self, **kwargs)


def validate(config: NetworkConfig, require_zf: bool = False) -> NetworkConfig:
    """Check every config invariant and return the record unchanged.

    Args:
        config: record to check.
        require_zf: also require N > B, needed whenever the full pilot book
            is orthogonalized at the receiver.

    Raises:
        DomainError: a scalar is outside its domain, a count is not an
            integer or a real parameter is not a finite number.
        PilotOverflow: the pilot book does not fit in the coherence block.
        InsufficientAntennas: require_zf is set and N <= B.
    """
    for name in _COUNT_FIELDS:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DomainError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise DomainError(f"{name} must be >= 1, got {value}")
    for name in _REAL_FIELDS:
        value = getattr(config, name)
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not math.isfinite(value)):
            raise DomainError(f"{name} must be a finite number, got {value!r}")
    if config.snr_linear <= 0:
        raise DomainError(f"snr_linear must be positive, got {config.snr_linear}")
    if config.pathloss_exponent < 2:
        raise DomainError(f"pathloss_exponent must be >= 2, got {config.pathloss_exponent}")
    if config.cell_radius <= 0:
        raise DomainError(f"cell_radius must be positive, got {config.cell_radius}")
    if config.pathloss_ref <= 0:
        raise DomainError(f"pathloss_ref must be positive, got {config.pathloss_ref}")
    if not 0.0 <= config.min_ue_distance_frac < 1.0:
        raise DomainError(
            f"min_ue_distance_frac must be in [0, 1), got {config.min_ue_distance_frac}")

    pilot_len = config.pilot_len
    if pilot_len > config.coherence_block:
        raise PilotOverflow(
            f"pilot length {pilot_len} exceeds coherence block {config.coherence_block}")
    if require_zf and config.n_antennas <= pilot_len:
        raise InsufficientAntennas(
            f"zero-forcing over B={pilot_len} pilots needs N > B, got N={config.n_antennas}")

    return config


def config_from_dict(data: dict) -> NetworkConfig:
    """Build a validated config from a plain dict (JSON-compatible).

    Accepts ``snr_db`` as an alternative to ``snr_linear``.
    """
    data = dict(data)
    if "snr_db" in data:
        if "snr_linear" in data:
            raise DomainError("give either snr_linear or snr_db, not both")
        snr_db = data.pop("snr_db")
        if isinstance(snr_db, bool) or not isinstance(snr_db, numbers.Real):
            raise DomainError(f"snr_db must be a finite number, got {snr_db!r}")
        try:
            data["snr_linear"] = db_to_linear(snr_db)
        except OverflowError:
            raise DomainError(f"snr_db {snr_db!r} overflows the linear SNR") from None

    known = {f for f in NetworkConfig.__dataclass_fields__}
    unknown = set(data) - known
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    missing = {"n_antennas", "n_users", "coherence_block", "reuse_factor", "snr_linear"} - set(data)
    if missing:
        raise DomainError(f"missing config keys: {sorted(missing)}")

    return validate(NetworkConfig(**data))


def load_config(path) -> NetworkConfig:
    """Load and validate a JSON configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))
