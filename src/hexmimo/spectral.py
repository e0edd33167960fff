"""Closed-form uplink SINR and per-cell spectral efficiency.

Two receive combiners are evaluated: maximum ratio combining (MRC), which
passively relies on channel quasi-orthogonality, and pilot-book zero-forcing
(PZFC), which actively orthogonalizes all B estimated pilot directions at the
cost of an array-gain reduction from N to N - B.  Both admit closed forms in
the coupling moments of the interfering cells and the pilot inner products,
and both converge to the same pilot-contamination-limited SINR as N grows.

Every expression exists in two algebraically equivalent forms:

* a generic form that literally sums over every (cell, user) pair with
  explicit pilot inner products (0 or B) -- slow, used as a cross-check;
* a collapsed form in which the inner products are resolved against the
  reuse partition, leaving per-group moment sums -- O(#cells), used by the
  sweep on whole arrays of (N, K) pairs.

The per-cell spectral efficiency is K * (1 - B/T) * log2(1 + SINR): power
control gives every user of the symmetric network the same SINR, and B of
the T channel uses are spent on pilots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import NetworkConfig, validate
from .errors import DomainError, InsufficientAntennas
from .hexgrid import CellIndex, reuse_group
from .moments import MomentTable
from .pilots import PilotPlan, inner_product

_LOG2_CHUNK = 1 << 12  # SINRs held as Python floats at once by se_from_sinr


class Scheme(Enum):
    """Receive combining scheme."""

    MRC = "mrc"
    PZFC = "pzfc"


@dataclass(frozen=True)
class SeResult:
    """SINR and spectral efficiency of one operating point or an array of them."""

    sinr: float | np.ndarray         # effective SINR shared by all users (may be +inf)
    se_per_cell: float | np.ndarray  # bit/s/Hz/cell
    prelog: float | np.ndarray       # 1 - B/T


@dataclass(frozen=True)
class SinrInputs:
    """Validated bundle of everything a closed-form evaluation needs."""

    config: NetworkConfig
    moments: MomentTable
    plan: PilotPlan
    tier_set: tuple[CellIndex, ...] | None = None
    scheme: Scheme = Scheme.MRC

    def __post_init__(self):
        validate(self.config, require_zf=self.scheme is Scheme.PZFC)
        if self.plan.n_users != self.config.n_users:
            raise DomainError("pilot plan and config disagree on n_users")
        if self.plan.reuse_factor != self.config.reuse_factor:
            raise DomainError("pilot plan and config disagree on reuse_factor")
        tier_set = self.tier_set
        if tier_set is None:
            tier_set = tuple(self.moments.offsets)
        else:
            tier_set = tuple(CellIndex(*c) for c in tier_set)
        if CellIndex(0, 0) not in tier_set:
            raise DomainError("tier set must contain the own cell (0, 0)")
        if not self.moments.covers(tier_set):
            raise DomainError("moment table does not cover the tier set")
        object.__setattr__(self, "tier_set", tier_set)


@dataclass(frozen=True)
class CopilotSums:
    """Moment sums over a tier set, resolved against one reuse partition.

    The victim cell sits at offset (0, 0) and is always in reuse group 0.
    `mu2_others` excludes the own cell (whose moments are exactly 1), which
    keeps the contamination denominators free of cancellation.
    """

    reuse_factor: int
    mu1_total: float                    # sum of mu1 over every cell
    mu1_copilot: float                  # sum of mu1 over group 0, own cell included
    mu2_others: float                   # sum of mu2 over group 0 without the own cell
    var_copilot: float                  # sum of (mu2 - mu1^2) over group 0
    mu1_by_group: tuple[float, ...]     # sum of mu1 per reuse group
    mu1_sq_by_group: tuple[float, ...]  # sum of mu1^2 per reuse group

    @classmethod
    def from_table(cls, moments: MomentTable, reuse_factor: int,
                   tier_set=None) -> "CopilotSums":
        offsets = list(moments.offsets) if tier_set is None else \
            [CellIndex(*c) for c in tier_set]
        if CellIndex(0, 0) not in offsets:
            raise DomainError("tier set must contain the own cell (0, 0)")
        mu1_total = 0.0
        mu2_others = 0.0
        var_copilot = 0.0
        by_group = [0.0] * reuse_factor
        sq_by_group = [0.0] * reuse_factor
        for c in offsets:
            e = moments.entry(c)
            g = reuse_group(c, reuse_factor)
            mu1_total += e.mu1
            by_group[g] += e.mu1
            sq_by_group[g] += e.mu1 * e.mu1
            if g == 0:
                var_copilot += e.mu2 - e.mu1 * e.mu1
                if c != (0, 0):
                    mu2_others += e.mu2
        return cls(reuse_factor=reuse_factor, mu1_total=mu1_total,
                   mu1_copilot=by_group[0], mu2_others=mu2_others,
                   var_copilot=var_copilot, mu1_by_group=tuple(by_group),
                   mu1_sq_by_group=tuple(sq_by_group))


# ---------------------------------------------------------------------------
# collapsed (fast) evaluations


def mrc_sinr_from_sums(sums: CopilotSums, n_antennas, n_users,
                       inv_snr: float):
    """MRC SINR from precomputed copilot sums, elementwise over the
    broadcast (`n_antennas`, `n_users`)."""
    n = np.asarray(n_antennas, dtype=float)
    k = np.asarray(n_users, dtype=float)
    b = sums.reuse_factor * k
    gain_deficit = (sums.mu1_total * k + inv_snr) / n
    pilot_power = b * sums.mu1_copilot + inv_snr
    contamination = b * (sums.mu2_others + sums.var_copilot / n)
    denom = gain_deficit * pilot_power + contamination
    return _plain(np.divide(b, denom, out=np.full(denom.shape, math.inf),
                            where=denom > 0))


def pzfc_sinr_from_sums(sums: CopilotSums, n_antennas, n_users,
                        inv_snr: float):
    """PZFC SINR from precomputed copilot sums, elementwise over the
    broadcast (`n_antennas`, `n_users`).

    Raises:
        InsufficientAntennas: some pair has N <= B; the first one is named.
    """
    k = np.asarray(n_users, dtype=float)
    n, b = np.broadcast_arrays(np.asarray(n_antennas, dtype=float), sums.reuse_factor * k)
    short = np.flatnonzero(n <= b)
    if short.size:  # N <= B, both small enough to be exact as floats
        first = short[0]
        raise InsufficientAntennas(f"PZFC needs N > B, got N={int(n.flat[first])}, "
                                   f"B={int(b.flat[first])}")
    contamination = b * (sums.mu2_others + sums.var_copilot / (n - b))
    # interference left after projecting out the B estimated directions
    rejected = sum(sq * b / (b * m1 + inv_snr)
                   for sq, m1 in zip(sums.mu1_sq_by_group, sums.mu1_by_group))
    residual = k * (sums.mu1_total - rejected) + inv_snr
    pilot_power = (b * sums.mu1_copilot + inv_snr) / (n - b)
    denom = contamination + residual * pilot_power
    return _plain(np.divide(b, denom, out=np.full(denom.shape, math.inf),
                            where=denom > 0))


def _plain(values: np.ndarray):
    """A 0-d result as a Python float, so scalar callers get plain floats."""
    return values.item() if values.ndim == 0 else values


def asymptotic_sinr_from_sums(sums: CopilotSums) -> float:
    """Large-N SINR limit shared by MRC and PZFC: pilot contamination only."""
    return 1.0 / sums.mu2_others if sums.mu2_others > 0 else math.inf


def sinr(inputs: SinrInputs) -> float:
    """SINR of the combining scheme the input bundle was validated for."""
    sums = CopilotSums.from_table(inputs.moments, inputs.config.reuse_factor,
                                  inputs.tier_set)
    from_sums = (pzfc_sinr_from_sums if inputs.scheme is Scheme.PZFC
                 else mrc_sinr_from_sums)
    return from_sums(sums, inputs.config.n_antennas, inputs.config.n_users,
                     inputs.config.inv_snr)


def asymptotic_sinr(moments: MomentTable, plan: PilotPlan,
                    tier_set=None) -> float:
    """N -> infinity SINR limit for a reuse plan over a tier set."""
    sums = CopilotSums.from_table(moments, plan.reuse_factor, tier_set)
    return asymptotic_sinr_from_sums(sums)


def se_per_cell(inputs: SinrInputs) -> SeResult:
    """Per-cell spectral efficiency K * (1 - B/T) * log2(1 + SINR)."""
    cfg = inputs.config
    return se_from_sinr(sinr(inputs), cfg.n_users, cfg.pilot_len, cfg.coherence_block)


def se_from_sinr(sinr, n_users, pilot_len, coherence_block: int) -> SeResult:
    """Spectral efficiency of one cell given the common per-user SINR,
    elementwise over arrays; 0 when pilots fill the block (B >= T)."""
    sinr = np.asarray(sinr, dtype=float)
    prelog = 1.0 - np.asarray(pilot_len) / coherence_block
    # math.log2, not np.log2: the two differ in the last bit on some inputs
    arg, log = (1.0 + sinr).ravel(), np.empty(sinr.size)
    for lo in range(0, arg.size, _LOG2_CHUNK):
        chunk = arg[lo:lo + _LOG2_CHUNK].tolist()
        log[lo:lo + len(chunk)] = np.fromiter(map(math.log2, chunk), float, len(chunk))
    log = log.reshape(sinr.shape)
    with np.errstate(invalid="ignore"):  # 0 * inf at B = T with infinite SINR
        se = np.where(prelog > 0.0, n_users * prelog * log, 0.0)
    return SeResult(sinr=_plain(sinr), se_per_cell=_plain(se),
                    prelog=_plain(np.maximum(prelog, 0.0)))


def asymptotic_se(moments: MomentTable, plan: PilotPlan, coherence_block: int,
                  tier_set=None) -> SeResult:
    """Large-N per-cell spectral efficiency of a reuse plan."""
    sinr = asymptotic_sinr(moments, plan, tier_set)
    return se_from_sinr(sinr, plan.n_users, plan.pilot_len, coherence_block)


def kstar_asymptotic(coherence_block: int, reuse_factor: int) -> set[int]:
    """Asymptotically optimal user counts: the integer(s) nearest T / (2 beta)
    that maximize the data fraction K * (1 - K beta / T).

    Ties return both candidates.  Scores are compared in exact integer
    arithmetic (K * (T - K beta) is an integer)."""
    if reuse_factor < 1:
        raise DomainError(f"reuse_factor must be >= 1, got {reuse_factor}")
    if coherence_block < 2 * reuse_factor:
        raise DomainError(
            f"need T >= 2 beta for a nonzero schedule, got T={coherence_block}, "
            f"beta={reuse_factor}")
    lo = coherence_block // (2 * reuse_factor)
    hi = lo if coherence_block % (2 * reuse_factor) == 0 else lo + 1
    score = {k: k * (coherence_block - k * reuse_factor) for k in {lo, hi}}
    best = max(score.values())
    return {k for k, s in score.items() if s == best}


# ---------------------------------------------------------------------------
# generic (literal) evaluations used to cross-check the collapsed forms


def _pilot_indices(plan: PilotPlan, tier_set) -> list[list[int]]:
    """Pilot index of every (cell, user) pair in the tier set."""
    beta = plan.reuse_factor
    return [[plan.assign(reuse_group(c, beta), m)
             for m in range(1, plan.n_users + 1)] for c in tier_set]


def sinr_mrc_generic(inputs: SinrInputs, user: int = 1) -> float:
    """MRC SINR by literal summation over every (cell, user) pair."""
    cfg = inputs.config
    n, k, b, inv_snr = (float(cfg.n_antennas), cfg.n_users, cfg.pilot_len,
                        cfg.inv_snr)
    cells = inputs.tier_set
    mu1 = [inputs.moments.entry(c).mu1 for c in cells]
    mu2 = [inputs.moments.entry(c).mu2 for c in cells]
    idx = _pilot_indices(inputs.plan, cells)
    i_target = inputs.plan.assign(reuse_group(CellIndex(0, 0), cfg.reuse_factor), user)

    gain_deficit = sum(mu1) * k / n + inv_snr / n
    pilot_power = inv_snr
    contamination = 0.0
    for ci in range(len(cells)):
        for m in range(k):
            ip = inner_product(i_target, idx[ci][m], b)
            pilot_power += mu1[ci] * ip
            contamination += (mu2[ci] + (mu2[ci] - mu1[ci] ** 2) / n) * ip
    denom = gain_deficit * pilot_power + contamination - b
    return b / denom if denom > 0 else math.inf


def sinr_pzfc_generic(inputs: SinrInputs, user: int = 1) -> float:
    """PZFC SINR by literal summation over every (cell, user) pair."""
    cfg = inputs.config
    n, k, b, inv_snr = (float(cfg.n_antennas), cfg.n_users, cfg.pilot_len,
                        cfg.inv_snr)
    if cfg.n_antennas <= cfg.pilot_len:
        raise InsufficientAntennas(
            f"PZFC needs N > B, got N={cfg.n_antennas}, B={cfg.pilot_len}")
    cells = inputs.tier_set
    mu1 = [inputs.moments.entry(c).mu1 for c in cells]
    mu2 = [inputs.moments.entry(c).mu2 for c in cells]
    idx = _pilot_indices(inputs.plan, cells)
    i_target = inputs.plan.assign(reuse_group(CellIndex(0, 0), cfg.reuse_factor), user)

    contamination = 0.0
    residual = inv_snr
    pilot_power = inv_snr
    for ci in range(len(cells)):
        for m in range(k):
            ip = inner_product(i_target, idx[ci][m], b)
            contamination += (mu2[ci] + (mu2[ci] - mu1[ci] ** 2) / (n - b)) * ip
            pilot_power += mu1[ci] * ip
            # contamination of the pilot direction this user was estimated on
            own_direction = inv_snr
            for cj in range(len(cells)):
                for m2 in range(k):
                    own_direction += mu1[cj] * inner_product(idx[ci][m], idx[cj][m2], b)
            residual += mu1[ci] * (1.0 - b * mu1[ci] / own_direction)
    denom = contamination + residual * pilot_power / (n - b) - b
    return b / denom if denom > 0 else math.inf


def asymptotic_sinr_generic(inputs: SinrInputs, user: int = 1) -> float:
    """Large-N SINR limit by literal summation."""
    cfg = inputs.config
    b = cfg.pilot_len
    cells = inputs.tier_set
    idx = _pilot_indices(inputs.plan, cells)
    i_target = inputs.plan.assign(reuse_group(CellIndex(0, 0), cfg.reuse_factor), user)
    denom = -float(b)
    for ci, c in enumerate(cells):
        mu2 = inputs.moments.entry(c).mu2
        for m in range(cfg.n_users):
            denom += mu2 * inner_product(i_target, idx[ci][m], b)
    return b / denom if denom > 0 else math.inf
