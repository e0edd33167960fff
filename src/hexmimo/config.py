"""Network configuration: the scalars of the network, shared by the analytic
and link-level paths.  The operating point (N, K, beta) is not part of it:
it is a `hexmimo.pilots.Schedule`, and the sweep ranges over it.  Both
records check their fields when built, so no invalid one exists.

The noise power sigma^2 is normalized to 1, so ``snr_linear`` is the uplink
design SNR rho/sigma^2 and all formulas consume the single ratio
``sigma^2 / rho = 1 / snr_linear``.  The pathloss reference ``C`` and the cell
radius ``r`` are not parameters: power control inverts each user's pathloss
to its serving BS, so both cancel and every position is in units of r.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import types
import typing
from enum import Enum

from .errors import DomainError

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
    """Build the dataclass `cls` from the JSON value `data`; `cls` checks
    the values itself when it is built.

    Raises:
        DomainError: `data` is not an object, names a key that is not a
            field, or omits a field without a default.
    """
    if not isinstance(data, dict):
        raise DomainError(f"a {what} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
    missing = sorted(f.name for f in dataclasses.fields(cls) if f.name not in data
                     and f.default is f.default_factory is dataclasses.MISSING)
    problems = [f"{label} {names}" for label, names in (
        ("unknown keys", unknown), ("missing keys", missing)) if names]
    if problems:
        raise DomainError(f"{what}: {'; '.join(problems)}")
    return cls(**data)


def check_fields(record) -> None:
    """Raise DomainError unless every field of the dataclass `record` fits
    its annotation (see `fits`); an integer field holds a count, so >= 1."""
    for name, hint in typing.get_type_hints(type(record)).items():
        value = getattr(record, name)
        if not fits(value, hint):
            kind = "an integer" if hint is int else "a finite number"
            raise DomainError(f"{name} must be {kind}, got {value!r}")
        if hint is int and value < 1:
            raise DomainError(f"{name} must be >= 1, got {value}")


@dataclasses.dataclass(frozen=True)
class NetworkConfig:
    """Scalar parameters of the multi-cell uplink.  A value outside its
    domain, or not a finite number (T: an integer), raises DomainError.

    Attributes:
        coherence_block: coherence block length T >= 1 in channel uses.
        snr_linear: design SNR rho/sigma^2 > 0 in linear scale.
        pathloss_exponent: distance exponent kappa > 2 (the lattice sum diverges at 2).
        min_ue_distance_frac: UE exclusion radius around the serving BS, as a
            fraction in [0, 1) of the cell radius.
    """

    coherence_block: int
    snr_linear: float
    pathloss_exponent: float = 3.5
    min_ue_distance_frac: float = 0.14

    def __post_init__(self):
        check_fields(self)
        if self.snr_linear <= 0:
            raise DomainError(f"snr_linear must be positive, got {self.snr_linear}")
        if self.pathloss_exponent <= 2:
            raise DomainError(
                f"pathloss_exponent must be > 2, got {self.pathloss_exponent}")
        if not 0.0 <= self.min_ue_distance_frac < 1.0:
            raise DomainError(
                f"min_ue_distance_frac must be in [0, 1), got {self.min_ue_distance_frac}")

    @property
    def inv_snr(self) -> float:
        """sigma^2 / rho, the only way noise enters the closed forms."""
        return 1.0 / self.snr_linear


def config_from_dict(data: dict) -> NetworkConfig:
    """Build a config from a plain dict (JSON-compatible).

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
    return record_from_json(NetworkConfig, data, "config")


def load_config(path) -> NetworkConfig:
    """Load a JSON configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))
