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

The average build keeps the pool as contiguous coordinate arrays and
computes the offsets of a tier on a thread pool (numpy releases the GIL in
the ufuncs and reductions doing the work).  Each offset fills a length-n
ratio buffer in blocks of `_BLOCK` samples and reduces it whole, so its
entry is bit-identical to the whole-array expression; the tier sums and the
stop test run in `cells_in_tier` order, so the table does not depend on
the number of workers.  That number is the process's CPU affinity, capped
at `_MAX_WORKERS`; each worker owns two length-n float64 buffers, 16 bytes
per sample (16 MB at the default 1e6 samples), allocated once per build.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .config import InterferenceMode
from .errors import ConvergenceError, DomainError
from .hexgrid import (CellIndex, bs_position, cells_in_tier,
                      sample_ue_positions, tier_of, worst_case_position)

_FORMAT = "hexmimo-moments"
_VERSION = 1
REL_TOL = 1e-3    # stop once the newest tier adds less than this share of mu1
_MAX_TIERS = 12
_BLOCK = 2 ** 15       # samples per block of the per-offset ratio kernel
_MAX_WORKERS = 6       # the offsets in tier 1; bounds scratch at 16 bytes * n each


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
        if not all(type(mu) in (int, float) and 0 < mu < math.inf
                   for e in entries.values() for mu in (e.mu1, e.mu2)):
            raise DomainError("moment table holds a non-finite or non-positive moment")
        mode = InterferenceMode(data["mode"])
        # the entries must be exactly those the build keeps: the exact own
        # cell, then complete tiers up to the first one that meets REL_TOL
        try:
            kept = _expand_tiers(data["kappa"], mode,
                                 lambda cells: [entries[c] for c in cells])
        except (KeyError, ConvergenceError):
            kept = None
        if (kept != entries or len(data["entries"]) != len(entries)
                or data["max_tier"] != max(map(tier_of, entries))):
            raise DomainError("moment table offsets are not the converged tiers "
                              f"0..{data['max_tier']}")
        return cls(mode=mode, kappa=data["kappa"],
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


def _worst_entry(offset: CellIndex, kappa: float) -> MomentEntry:
    """(serving dist / victim dist)^kappa at the worst-case edge point."""
    z = worst_case_position(offset, CellIndex(0, 0), 1.0)
    serving = z - bs_position(offset, 1.0)
    num = math.hypot(serving[0], serving[1])
    den = math.hypot(z[0], z[1])
    mu1 = (num / den) ** kappa
    return MomentEntry(mu1, mu1 * mu1, 0.0, 0.0)


def _pool_entry(offset: CellIndex, kappa: float, px: np.ndarray,
                py: np.ndarray, serving_sq: np.ndarray, x: np.ndarray,
                dev: np.ndarray) -> MomentEntry:
    """Moments of ratio^kappa over the pool, for one interferer offset.

    `px`, `py` hold UE offsets w from the interferer BS at unit radius and
    `serving_sq` the precomputed |w|^2; the victim BS sits at -b(offset)
    relative to the interferer, i.e. the victim distance is |b(offset) + w|.
    `x` and `dev` are the caller's length-n scratch buffers.  The ratios are
    filled in blocks of `_BLOCK` samples, with the same elementwise
    operations in the same order as the whole-array expression
    (|w|^2 / |b + w|^2) ** (kappa / 2), so every value is bit-identical to
    it; the statistics then reduce the whole buffer at once, as numpy's
    mean and std do.
    """
    b0, b1 = bs_position(offset, 1.0)
    half = kappa / 2.0
    for s in range(0, x.size, _BLOCK):
        xb, tb = x[s:s + _BLOCK], dev[s:s + _BLOCK]
        np.add(px[s:s + _BLOCK], b0, out=xb)
        np.square(xb, out=xb)
        np.add(py[s:s + _BLOCK], b1, out=tb)
        np.square(tb, out=tb)
        np.add(xb, tb, out=xb)
        np.divide(serving_sq[s:s + _BLOCK], xb, out=xb)
        xb **= half  # the operator, so numpy picks the kernel `**` would
    mu1, se1 = _mean_and_se_inplace(x, dev)
    np.square(x, out=x)
    mu2, se2 = _mean_and_se_inplace(x, dev)
    return MomentEntry(mu1, mu2, se1, se2)


def _mean_and_se_inplace(x: np.ndarray, dev: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of `x`, bit-identical to x.mean() and
    x.std(ddof=1) / sqrt(n); the squared deviations go into `dev`."""
    n = x.size
    mean = np.add.reduce(x) / n
    if n < 2:
        return float(mean), math.inf
    np.subtract(x, mean, out=dev)
    np.square(dev, out=dev)
    return float(mean), float(np.sqrt(np.add.reduce(dev) / (n - 1)) / math.sqrt(n))


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

    if mode is not InterferenceMode.AVERAGE:
        entries = _expand_tiers(kappa, mode,
                                lambda cells: [_worst_entry(c, kappa) for c in cells])
        return MomentTable(mode=mode, kappa=kappa, n_samples=0, seed=None,
                           rel_tol=REL_TOL, min_frac=min_frac, entries=entries)

    from concurrent.futures import ThreadPoolExecutor

    # Every large array of the build is allocated before the pool is drawn:
    # freeing the sampler's temporaries raises glibc's mmap threshold, so
    # arrays allocated after that would come from heap the process keeps
    # (measured: peak RSS +6 MB, and up to 36 MB held for the rest of the
    # run).  A buffer costs no memory until it is first written.
    workers = min(len(os.sched_getaffinity(0)), _MAX_WORKERS)
    px, py, serving_sq = (np.empty(n_samples) for _ in range(3))
    buffers = [(np.empty(n_samples), np.empty(n_samples)) for _ in range(workers)]
    rng = np.random.default_rng(seed)
    pool = sample_ue_positions(CellIndex(0, 0), 1.0, min_frac, rng, n_samples)
    np.copyto(px, pool[:, 0])
    np.copyto(py, pool[:, 1])
    del pool
    np.square(px, out=serving_sq)
    serving_sq += np.square(py, out=buffers[0][0])
    scratch = threading.local()

    def take_buffers():  # once per worker thread
        scratch.x, scratch.dev = buffers.pop()

    def entry(cell):
        return _pool_entry(cell, kappa, px, py, serving_sq, scratch.x, scratch.dev)

    with ThreadPoolExecutor(workers, initializer=take_buffers) as executor:
        entries = _expand_tiers(kappa, mode,
                                lambda cells: list(executor.map(entry, cells)))
    return MomentTable(mode=mode, kappa=kappa, n_samples=n_samples, seed=seed,
                       rel_tol=REL_TOL, min_frac=min_frac, entries=entries)


def _expand_tiers(kappa: float, mode: InterferenceMode,
                  tier_entries: Callable[[list[CellIndex]], list[MomentEntry]]
                  ) -> dict[CellIndex, MomentEntry]:
    """Add tiers until the newest one adds at most `REL_TOL` of the total
    first moment.  `tier_entries` maps a tier's cells to their entries, in
    order; the tier sums are taken in `cells_in_tier` order, so the result
    does not depend on how the entries were computed."""
    entries = {CellIndex(0, 0): MomentEntry(1.0, 1.0, 0.0, 0.0)}
    total_mu1 = 1.0
    for tier in range(1, _MAX_TIERS + 1):
        cells = cells_in_tier(tier)
        tier_mu1 = 0.0
        for cell, entry in zip(cells, tier_entries(cells)):
            entries[cell] = entry
            tier_mu1 += entry.mu1
        total_mu1 += tier_mu1
        if tier_mu1 <= REL_TOL * total_mu1:
            return entries
    raise ConvergenceError(
        f"tier contribution still above rel_tol={REL_TOL} after "
        f"{_MAX_TIERS} tiers (kappa={kappa}, mode={mode.value})")
