"""Interference coupling moments over the (truncated) infinite hexagonal grid.

For a victim BS j and an interfering cell l, the coupling moments are

    mu^(g) = E{ (dist(z, b_l) / dist(z, b_j))^(kappa * g) },   g = 1, 2,

with z the position of a UE served by cell l.  Power control makes these the
only propagation quantities entering the closed-form SINRs.  The grid is
translation invariant, so moments depend only on the index offset l - j and
one table serves every victim cell.  The pathloss reference and the cell
radius cancel in the ratio, so everything is computed at unit radius.

Average mode draws UE positions uniformly (with the BS exclusion disk) and
uses one common pool of draws for every offset: common random numbers reduce
the variance of cross-offset comparisons and make the table a deterministic
function of the seed.  Worst-case mode evaluates the ratio at the cell-edge
point nearest the victim BS, which is deterministic; for the adjacent tier
that point is the shared-edge midpoint, equidistant from both BSs, so the
moments are exactly 1 there.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .config import InterferenceMode
from .errors import ConvergenceError, DomainError
from .hexgrid import (CellIndex, bs_position, cells_in_tier,
                      sample_ue_positions, tier_of, worst_case_position)

_FORMAT = "hexmimo-moments"
_VERSION = 1
REL_TOL = 1e-3    # stop once the newest tier adds less than this share of mu1
_MAX_TIERS = 12


@dataclass(frozen=True)
class MomentEntry:
    """First and second coupling moments with Monte Carlo standard errors."""

    mu1: float
    mu2: float
    se1: float
    se2: float


@dataclass
class MomentTable:
    """Coupling moments for all offsets within the converged tier radius."""

    mode: InterferenceMode
    kappa: float
    n_samples: int
    seed: int | None
    rel_tol: float
    min_frac: float
    entries: dict[CellIndex, MomentEntry]

    @property
    def max_tier(self) -> int:
        return max(tier_of(c) for c in self.entries)

    @property
    def offsets(self) -> list[CellIndex]:
        """Covered offsets, ordered by (tier, index) for deterministic sweeps."""
        return sorted(self.entries, key=lambda c: (tier_of(c), c))

    def entry(self, offset: CellIndex) -> MomentEntry:
        try:
            return self.entries[offset]
        except KeyError:
            raise DomainError(f"moment table does not cover offset {offset}") from None

    def covers(self, offsets: Iterable[CellIndex]) -> bool:
        return all(c in self.entries for c in offsets)

    def to_dict(self) -> dict:
        return {
            "format": _FORMAT,
            "version": _VERSION,
            "mode": self.mode.value,
            "kappa": self.kappa,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "rel_tol": self.rel_tol,
            "min_frac": self.min_frac,
            "max_tier": self.max_tier,
            "entries": [
                {"offset": [c.a1, c.a2], "mu1": e.mu1, "mu2": e.mu2,
                 "se1": e.se1, "se2": e.se2}
                for c, e in sorted(self.entries.items(), key=lambda kv: (tier_of(kv[0]), kv[0]))
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MomentTable":
        if (not isinstance(data, dict) or data.get("format") != _FORMAT
                or data.get("version") != _VERSION):
            raise DomainError("not a recognized moment-table file")
        entries = {
            CellIndex(*rec["offset"]): MomentEntry(rec["mu1"], rec["mu2"],
                                                   rec["se1"], rec["se2"])
            for rec in data["entries"]
        }
        return cls(mode=InterferenceMode(data["mode"]), kappa=data["kappa"],
                   n_samples=data["n_samples"], seed=data["seed"],
                   rel_tol=data["rel_tol"], min_frac=data["min_frac"],
                   entries=entries)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "MomentTable":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _worst_ratio_pow(offset: CellIndex, kappa: float) -> float:
    """(serving dist / victim dist)^kappa at the worst-case edge point."""
    z = worst_case_position(offset, CellIndex(0, 0), 1.0)
    serving = z - bs_position(offset, 1.0)
    num = math.hypot(serving[0], serving[1])
    den = math.hypot(z[0], z[1])
    return (num / den) ** kappa


def _ratio_pow_pool(offset: CellIndex, kappa: float, pool: np.ndarray,
                    serving_sq: np.ndarray) -> np.ndarray:
    """ratio^kappa for a pool of positions drawn around the interferer BS.

    `pool` holds UE offsets w from the interferer BS at unit radius and
    `serving_sq` the precomputed |w|^2; the victim BS sits at -b(offset)
    relative to the interferer, i.e. the victim distance is |b(offset) + w|.
    """
    b = bs_position(offset, 1.0)
    dx = pool[:, 0] + b[0]
    dy = pool[:, 1] + b[1]
    victim_sq = dx * dx + dy * dy
    return (serving_sq / victim_sq) ** (kappa / 2.0)


def _mean_and_se(values: np.ndarray) -> tuple[float, float]:
    n = values.size
    mean = float(values.mean())
    if n < 2:
        return mean, math.inf
    return mean, float(values.std(ddof=1) / math.sqrt(n))


def build_table(kappa: float, mode: InterferenceMode, *,
                n_samples: int = 10 ** 6, min_frac: float = 0.14,
                seed: int | None = 0) -> MomentTable:
    """Build the moment table by adaptive tier expansion.

    Tiers of cells are added until the newest tier contributes less than
    `REL_TOL` (relative) to the running total of first moments; contributions
    decay like tier^(1 - kappa) per cell, so the loop terminates quickly for
    kappa well above 2.  Average mode draws one pool of `n_samples`
    positions from `seed` and shares it across offsets; worst-case mode
    draws nothing.

    Raises:
        DomainError: kappa < 2 or n_samples < 1.
        ConvergenceError: `_MAX_TIERS` tiers were added without meeting the
            tolerance (happens for kappa near 2, where the lattice sum
            converges too slowly for a practical cap).
    """
    if not kappa >= 2:  # NaN fails too
        raise DomainError(f"pathloss exponent must be >= 2, got {kappa}")
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")

    average = mode is InterferenceMode.AVERAGE
    if average:
        rng = np.random.default_rng(seed)
        pool = sample_ue_positions(CellIndex(0, 0), 1.0, min_frac, rng, n_samples)
        serving_sq = pool[:, 0] ** 2 + pool[:, 1] ** 2

    entries = {CellIndex(0, 0): MomentEntry(1.0, 1.0, 0.0, 0.0)}
    total_mu1 = 1.0
    converged = False
    for tier in range(1, _MAX_TIERS + 1):
        tier_mu1 = 0.0
        for cell in cells_in_tier(tier):
            if average:
                x = _ratio_pow_pool(cell, kappa, pool, serving_sq)
                mu1, se1 = _mean_and_se(x)
                mu2, se2 = _mean_and_se(x * x)
            else:
                mu1 = _worst_ratio_pow(cell, kappa)
                mu2 = mu1 * mu1
                se1 = se2 = 0.0
            entries[cell] = MomentEntry(mu1, mu2, se1, se2)
            tier_mu1 += mu1
        total_mu1 += tier_mu1
        if tier_mu1 <= REL_TOL * total_mu1:
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            f"tier contribution still above rel_tol={REL_TOL} after "
            f"{_MAX_TIERS} tiers (kappa={kappa}, mode={mode.value})")

    return MomentTable(mode=mode, kappa=kappa,
                       n_samples=n_samples if average else 0,
                       seed=seed if average else None,
                       rel_tol=REL_TOL, min_frac=min_frac, entries=entries)
