"""Network configuration: every scalar shared by the analytic and link-level paths.

The noise power sigma^2 is normalized to 1, so ``snr_linear`` is the uplink
design SNR rho/sigma^2 and all formulas consume the single ratio
``sigma^2 / rho = 1 / snr_linear``.  The pathloss reference ``C`` and the cell
radius ``r`` are kept in the record because the link-level simulator works
with absolute distances; they cancel out of every interference moment.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import types
import typing
from enum import Enum

from .errors import DomainError, InsufficientAntennas, PilotOverflow

# Cluster sizes with a co-channel sublattice on the hexagonal grid.
HEX_REUSE_FACTORS = (1, 3, 4, 7)


def db_to_linear(value_db: float) -> float:
    """Convert a dB power ratio to linear scale."""
    return 10.0 ** (value_db / 10.0)


class InterferenceMode(Enum):
    """How out-of-cell interferer positions enter the coupling moments."""

    AVERAGE = "avg"        # expectation over uniform UE positions
    WORST_CASE = "worst"   # every out-of-cell UE at the cell edge nearest the victim BS


def fits(value, hint) -> bool:
    """Whether `value` is a value of the field annotation `hint`.

    `int` takes any integer and `float` any finite real (numpy scalars
    included); neither takes a bool.  `bool`, `str` and `dict` take exactly
    that type, `list[X]` a list whose items fit X, and `X | None` also None.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        return any(fits(value, arm) for arm in args)
    if origin is list:
        return isinstance(value, list) and all(fits(item, *args) for item in value)
    if isinstance(value, bool):
        return hint is bool
    if hint is int:
        return isinstance(value, numbers.Integral)
    if hint is float:
        try:
            return isinstance(value, numbers.Real) and math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            return False
    return isinstance(value, hint)


def record_from_json(cls, data, what: str):
    """Build the dataclass `cls` from the JSON value `data`.

    Raises:
        DomainError: `data` is not an object, names a key that is not a
            field, omits a field without a default, or holds a value that
            does not fit its field's annotation (see `fits`).
    """
    if not isinstance(data, dict):
        raise DomainError(f"a {what} must be a JSON object, got {data!r}")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(data) - set(hints))
    missing = sorted(f.name for f in dataclasses.fields(cls) if f.name not in data
                     and f.default is f.default_factory is dataclasses.MISSING)
    wrong = sorted(name for name, value in data.items()
                   if name in hints and not fits(value, hints[name]))
    problems = [f"{label} {names}" for label, names in (
        ("unknown keys", unknown), ("missing keys", missing),
        ("values of the wrong type", wrong)) if names]
    if problems:
        raise DomainError(f"{what}: {'; '.join(problems)}")
    return cls(**data)


@dataclasses.dataclass(frozen=True)
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


_CONFIG_HINTS = typing.get_type_hints(NetworkConfig)


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
    for name, hint in _CONFIG_HINTS.items():
        value = getattr(config, name)
        if not fits(value, hint):
            kind = "an integer" if hint is int else "a finite number"
            raise DomainError(f"{name} must be {kind}, got {value!r}")
        if hint is int and value < 1:  # every integer field is a count
            raise DomainError(f"{name} must be >= 1, got {value}")
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
    if isinstance(data, dict) and "snr_db" in data:
        data = dict(data)
        if "snr_linear" in data:
            raise DomainError("give either snr_linear or snr_db, not both")
        snr_db = data.pop("snr_db")
        if not fits(snr_db, float):
            raise DomainError(f"snr_db must be a finite number, got {snr_db!r}")
        try:
            data["snr_linear"] = db_to_linear(snr_db)
        except OverflowError:
            raise DomainError(f"snr_db {snr_db!r} overflows the linear SNR") from None
    return validate(record_from_json(NetworkConfig, data, "config"))


def load_config(path) -> NetworkConfig:
    """Load and validate a JSON configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))
