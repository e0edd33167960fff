"""Closed-form uplink SINR and per-cell spectral efficiency.

Two receive combiners are evaluated: maximum ratio combining (MRC), which
passively relies on channel quasi-orthogonality, and pilot-book zero-forcing
(PZFC), which actively orthogonalizes all B estimated pilot directions at the
cost of an array-gain reduction from N to N - B.  Both admit closed forms in
the coupling moments of the interfering cells and the pilot inner products,
and both converge to the same pilot-contamination-limited SINR as N grows.

Every expression is evaluated in collapsed form: the pilot inner products
are resolved against the reuse partition, leaving per-group moment sums
(`CopilotSums`) -- O(#cells), used by the sweep on whole arrays of (N, K)
pairs.  The generic forms, which literally sum over every (cell, user) pair
with explicit pilot inner products (0 or B), are algebraically equivalent
and live in `tests/reference.py` as the tests' cross-check.

The per-cell spectral efficiency is K * (1 - B/T) * log2(1 + SINR): power
control gives every user of the symmetric network the same SINR, and B of
the T channel uses are spent on pilots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import NetworkConfig
from .errors import DomainError, InsufficientAntennas
from .hexgrid import reuse_group
from .moments import MomentTable
from .pilots import Schedule


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
    schedule: Schedule
    scheme: Scheme = Scheme.MRC

    def __post_init__(self):
        if not isinstance(self.scheme, Scheme):
            raise DomainError(f"scheme must be a Scheme, got {self.scheme!r}")
        self.schedule.check(self.config.coherence_block,
                            zero_forcing=self.scheme is Scheme.PZFC)


@dataclass(frozen=True)
class CopilotSums:
    """Moment sums over a table's offsets, resolved against one reuse partition.

    The victim cell sits at offset (0, 0) and is always in reuse group 0.
    `mu2_others` excludes the own cell (whose moments are exactly 1), which
    keeps the contamination denominators free of cancellation.
    """

    reuse_factor: int
    mu1_total: float                    # sum of mu1 over every cell
    mu2_others: float                   # sum of mu2 over group 0 without the own cell
    var_copilot: float                  # sum of (mu2 - mu1^2) over group 0
    mu1_by_group: tuple[float, ...]     # sum of mu1 per reuse group, own cell in group 0
    mu1_sq_by_group: tuple[float, ...]  # sum of mu1^2 per reuse group

    @classmethod
    def from_table(cls, moments: MomentTable, reuse_factor: int) -> "CopilotSums":
        mu1_total = 0.0
        mu2_others = 0.0
        var_copilot = 0.0
        by_group = [0.0] * reuse_factor
        sq_by_group = [0.0] * reuse_factor
        for c in moments.offsets:
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
                   mu2_others=mu2_others, var_copilot=var_copilot,
                   mu1_by_group=tuple(by_group), mu1_sq_by_group=tuple(sq_by_group))


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
    pilot_power = b * sums.mu1_by_group[0] + inv_snr
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
    pilot_power = (b * sums.mu1_by_group[0] + inv_snr) / (n - b)
    denom = contamination + residual * pilot_power
    return _plain(np.divide(b, denom, out=np.full(denom.shape, math.inf),
                            where=denom > 0))


def _plain(values: np.ndarray):
    """A 0-d result as a Python float, so scalar callers get plain floats."""
    return values.item() if values.ndim == 0 else values


def sinr(inputs: SinrInputs) -> float:
    """SINR of the combining scheme the input bundle was validated for."""
    schedule = inputs.schedule
    sums = CopilotSums.from_table(inputs.moments, schedule.reuse_factor)
    from_sums = (pzfc_sinr_from_sums if inputs.scheme is Scheme.PZFC
                 else mrc_sinr_from_sums)
    return from_sums(sums, schedule.n_antennas, schedule.n_users,
                     inputs.config.inv_snr)


def asymptotic_sinr(moments: MomentTable, reuse_factor: int) -> float:
    """N -> infinity SINR limit at reuse factor beta over the table's cells,
    shared by MRC and PZFC: pilot contamination only, independent of K."""
    sums = CopilotSums.from_table(moments, reuse_factor)
    return 1.0 / sums.mu2_others if sums.mu2_others > 0 else math.inf


def se_per_cell(inputs: SinrInputs) -> SeResult:
    """Per-cell spectral efficiency K * (1 - B/T) * log2(1 + SINR)."""
    schedule = inputs.schedule
    return se_from_sinr(sinr(inputs), schedule.n_users, schedule.pilot_len,
                        inputs.config.coherence_block)


def se_from_sinr(sinr, n_users, pilot_len, coherence_block: int) -> SeResult:
    """Spectral efficiency of one cell given the common per-user SINR,
    elementwise over arrays; 0 when pilots fill the block (B >= T)."""
    sinr = np.asarray(sinr, dtype=float)
    prelog = 1.0 - np.asarray(pilot_len) / coherence_block
    # math.log2, not np.log2: the two differ in the last bit on some inputs
    log = np.fromiter(map(math.log2, (1.0 + sinr).ravel().tolist()), float,
                      sinr.size).reshape(sinr.shape)
    with np.errstate(invalid="ignore"):  # 0 * inf at B = T with infinite SINR
        se = np.where(prelog > 0.0, n_users * prelog * log, 0.0)
    return SeResult(sinr=_plain(sinr), se_per_cell=_plain(se),
                    prelog=_plain(np.maximum(prelog, 0.0)))


def asymptotic_se(moments: MomentTable, n_users: int, reuse_factor: int,
                  coherence_block: int) -> SeResult:
    """Large-N per-cell spectral efficiency of K users at reuse factor beta."""
    if n_users < 1:
        raise DomainError(f"n_users must be >= 1, got {n_users}")
    sinr = asymptotic_sinr(moments, reuse_factor)
    return se_from_sinr(sinr, n_users, reuse_factor * n_users, coherence_block)


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

