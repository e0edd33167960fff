"""Interference coupling moments over the (truncated) infinite hexagonal grid.

For a victim BS j and an interfering cell l, the coupling moments are

    mu^(g) = E{ (dist(z, b_l) / dist(z, b_j))^(kappa * g) },   g = 1, 2,

with z the position of a UE served by cell l.  Power control makes these the
only propagation quantities entering the closed-form SINRs.  The grid is
translation invariant, so moments depend only on the index offset l - j and
one table serves every victim cell.  The pathloss reference and the cell
radius cancel in the ratio, so everything is computed at unit radius.

Average mode places the UE uniformly on the serving hexagon minus the BS
exclusion disk, so each moment is a 2-D integral of a smooth ratio.  It is
computed by one fixed Gauss-Legendre rule (`_hexagon_rule`) in polar
coordinates around the serving BS: the hexagon splits into 12 half-sectors
of 30 degrees, on each of which the outer radius (sqrt(3)/2) / cos(theta -
normal) is smooth.  The rule's node set is invariant under the 12 lattice
symmetries, so offsets related by a symmetry get equal moments up to
rounding.  Worst-case mode is the one-node rule: the cell-edge point nearest
the victim BS with weight 1, so mu2 = mu1^2 exactly.  For the adjacent tier
that point is the shared-edge midpoint, equidistant from both BSs, so the
moments are 1 there up to rounding.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .config import HEX_REUSE_FACTORS, InterferenceMode, NetworkConfig, fits
from .errors import ConvergenceError, DomainError
from .hexgrid import (SQRT3, CellIndex, cell_centers, cells_in_tier, reuse_group,
                      sorted_tier_set, tier_of, worst_case_positions)
# Never called here.  perfbench/child.py still hooks a sampler counter on
# this name (and tests/test_bench_contract.py pins it), so it stays bound
# until the benchmark drops that counter.
from .hexgrid import sample_ue_positions  # noqa: F401

_FORMAT = "hexmimo-moments"
_VERSION = 4
REL_TOL = 1e-3    # the share of each stopped sum that the newest tier may add
_MAX_TIERS = 12
_NODES = 16       # Gauss-Legendre nodes per axis of each half-sector
_APOTHEM = SQRT3 / 2.0


@dataclass(frozen=True)
class MomentEntry:
    """First and second coupling moments of one offset."""

    mu1: float
    mu2: float


@dataclass
class MomentTable:
    """Coupling moments for all offsets within the converged tier radius."""

    mode: InterferenceMode
    kappa: float
    min_frac: float
    entries: dict[CellIndex, MomentEntry]

    @property
    def max_tier(self) -> int:
        return max(tier_of(c) for c in self.entries)

    @property
    def offsets(self) -> tuple[CellIndex, ...]:
        """Covered offsets as a tier set, ordered by (tier, index) for
        deterministic sweeps."""
        return sorted_tier_set(self.entries)

    def entry(self, offset: CellIndex) -> MomentEntry:
        try:
            return self.entries[offset]
        except KeyError:
            raise DomainError(f"moment table does not cover offset {offset}") from None

    def restricted(self, cells) -> "MomentTable":
        """This table over the tier set `cells` alone (see `sorted_tier_set`)."""
        return replace(self, entries={c: self.entry(c) for c in sorted_tier_set(cells)})

    def to_dict(self) -> dict:
        return {
            "format": _FORMAT,
            "version": _VERSION,
            "mode": self.mode.value,
            "kappa": self.kappa,
            "min_frac": self.min_frac,
            "entries": [
                {"offset": list(c), "mu1": self.entries[c].mu1, "mu2": self.entries[c].mu2}
                for c in self.offsets
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MomentTable":
        if (not isinstance(data, dict) or data.get("format") != _FORMAT
                or data.get("version") != _VERSION):
            raise DomainError("not a recognized moment-table file")
        entries = {
            CellIndex(*rec["offset"]): MomentEntry(rec["mu1"], rec["mu2"])
            for rec in data["entries"]
        }
        if not all(fits(mu, float) and mu > 0
                   for e in entries.values() for mu in (e.mu1, e.mu2)):
            raise DomainError("moment table holds a non-finite or non-positive moment")
        mode = InterferenceMode(data["mode"])
        # the entries must be exactly those the build keeps: the exact own
        # cell, then complete tiers up to the first one the stop rule accepts.
        # That pins the tolerance and the last tier, so no key records
        # either; keys the format does not name go unread.
        try:
            kept = _expand_tiers(data["kappa"], mode,
                                 lambda cells: [entries[c] for c in cells])
        except (KeyError, ConvergenceError):
            kept = None
        if kept != entries or len(data["entries"]) != len(entries):
            raise DomainError("moment table offsets are not the converged tiers")
        return cls(mode=mode, kappa=data["kappa"], min_frac=data["min_frac"],
                   entries=entries)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "MomentTable":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _hexagon_rule(min_frac: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes (x, y) and unnormalized weights of the Gauss-Legendre rule over
    the unit hexagon centered at the origin minus the disk of radius
    `min_frac`; the weights sum to the area of that region.

    Each of the 12 half-sectors spans the angle u in [u0, pi/6] on one side
    of an edge normal, and the radius r in [min_frac, R(u)] with
    R(u) = (sqrt(3)/2) / cos(u), with `_NODES` nodes in u and in r.  The
    weight of a node is the product of the two rules' weights times the
    Jacobian r.  Beyond sqrt(3)/2 the disk cuts every edge and R(u) <
    min_frac for u < u0 = arccos((sqrt(3)/2) / min_frac), so the rule starts
    at u0 there (u0 = 0 otherwise).
    """
    t, w = np.polynomial.legendre.leggauss(_NODES)
    u0 = math.acos(_APOTHEM / min_frac) if min_frac > _APOTHEM else 0.0
    half_u = (math.pi / 6.0 - u0) / 2.0
    u = u0 + half_u * (t + 1.0)
    half_r = (_APOTHEM / np.cos(u) - min_frac) / 2.0
    r = min_frac + half_r[:, None] * (t + 1.0)                 # (u, r)
    weight = (half_u * w * half_r)[:, None] * w * r            # (u, r)
    normals = math.pi / 6.0 + math.pi / 3.0 * np.arange(6)
    sides = np.array([-1.0, 1.0])
    theta = (normals[:, None, None] + sides[:, None] * u)[..., None]  # (edge, side, u, 1)
    x = (r * np.cos(theta)).ravel()
    y = (r * np.sin(theta)).ravel()
    return x, y, np.broadcast_to(weight, (6, 2) + weight.shape).ravel()


def build_table(kappa: float, mode: InterferenceMode, *,
                min_frac: float = NetworkConfig.min_ue_distance_frac) -> MomentTable:
    """Build the moment table by adaptive tier expansion.

    Tiers of cells are added until the stop rule of `_expand_tiers` holds;
    contributions decay like tier^(1 - kappa) per cell, so the loop ends
    quickly for kappa well above 2.  Both modes take an offset's moments as
    a weighted sum of (|p|^2 / |p + b|^2)^(kappa/2) over nodes p around its
    serving BS b, a tier's offsets in one array expression.  Average mode
    uses the fixed rule of `_hexagon_rule` (12 * `_NODES`^2 nodes, built
    once per table); doubling `_NODES` moves no moment by more than 1e-14
    relative at the default `min_frac` (1e-12 at min_frac = 0, where the
    integrand's r^(kappa + 1) is least smooth).  Worst-case mode uses the
    one-node rule: the worst-case edge point with weight 1.  Both modes are
    deterministic.

    Raises:
        DomainError: kappa <= 2, an unknown mode, or min_frac outside [0, 1).
        ConvergenceError: `_MAX_TIERS` tiers were added without meeting the
            tolerance (happens for kappa near 2, where the lattice sum
            converges too slowly for a practical cap).
    """
    if not kappa > 2:  # NaN fails too
        raise DomainError(f"pathloss exponent must be > 2, got {kappa}")
    if not isinstance(mode, InterferenceMode):
        raise DomainError(f"mode must be an InterferenceMode, got {mode!r}")
    if not 0.0 <= min_frac < 1.0:
        raise DomainError(f"min_frac must be in [0, 1), got {min_frac}")

    if mode is InterferenceMode.AVERAGE:
        x, y, weight = _hexagon_rule(min_frac)
        weight = weight / weight.sum()

        def nodes(cells, b):  # the same rule around every serving BS
            return x, y
    else:
        weight = np.ones(1)

        def nodes(cells, b):  # one node per cell, relative to its BS
            p = worst_case_positions(cells) - b
            return p[:, :1], p[:, 1:]

    def tier_entries(cells):
        b = cell_centers(cells)
        x, y = nodes(cells, b)
        victim_sq = (x + b[:, :1]) ** 2 + (y + b[:, 1:]) ** 2
        ratio = ((x * x + y * y) / victim_sq) ** (kappa / 2.0)
        # einsum, not BLAS: the sums' bits must not depend on the host's kernel
        mu1 = np.einsum("cn,n->c", ratio, weight)
        mu2 = np.einsum("cn,cn,n->c", ratio, ratio, weight)
        return [MomentEntry(float(m1), float(m2)) for m1, m2 in zip(mu1, mu2)]

    return MomentTable(mode=mode, kappa=kappa, min_frac=min_frac,
                       entries=_expand_tiers(kappa, mode, tier_entries))


def _expand_tiers(kappa: float, mode: InterferenceMode,
                  tier_entries: Callable[[list[CellIndex]], list[MomentEntry]]
                  ) -> dict[CellIndex, MomentEntry]:
    """Add tiers until the newest one adds at most `REL_TOL` of the total
    first moment and, per reuse factor, the newest tier holding co-channel
    cells (group 0 less the own cell) added at most `REL_TOL` of their mu2
    sum `mu2_others`; before such a tier, that sum has not converged.
    `tier_entries` maps a tier's cells to their entries, in order; the tier
    sums are taken in `cells_in_tier` order, so the result does not depend
    on how the entries were computed."""
    entries = {CellIndex(0, 0): MomentEntry(1.0, 1.0)}
    total_mu1 = 1.0
    mu2_others = dict.fromkeys(HEX_REUSE_FACTORS, 0.0)
    newest_mu2 = dict.fromkeys(HEX_REUSE_FACTORS, math.inf)
    for tier in range(1, _MAX_TIERS + 1):
        cells = cells_in_tier(tier)
        tier_mu1 = 0.0
        tier_mu2 = {}  # per reuse factor with co-channel cells in this tier
        for cell, entry in zip(cells, tier_entries(cells)):
            entries[cell] = entry
            tier_mu1 += entry.mu1
            for beta in HEX_REUSE_FACTORS:
                if reuse_group(cell, beta) == 0:
                    tier_mu2[beta] = tier_mu2.get(beta, 0.0) + entry.mu2
        total_mu1 += tier_mu1
        for beta, mu2 in tier_mu2.items():
            mu2_others[beta] += mu2
            newest_mu2[beta] = mu2
        if tier_mu1 <= REL_TOL * total_mu1 and all(
                newest_mu2[b] <= REL_TOL * mu2_others[b] for b in HEX_REUSE_FACTORS):
            return entries
    raise ConvergenceError(
        f"tier contribution still above rel_tol={REL_TOL} after "
        f"{_MAX_TIERS} tiers (kappa={kappa}, mode={mode.value})")
