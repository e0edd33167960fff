"""Exhaustive (N, K, beta) sweep selecting the SE-maximizing schedule.

For every antenna count N the sweep evaluates the closed-form per-cell SE of
each feasible (K, beta) pair and each combining scheme, in each interference
mode, and records the argmax.  Feasibility: beta * K <= T always, and N > beta * K
for the zero-forcing combiner.  Ties are broken toward smaller K, then
smaller beta (fewer scheduled users and less pilot overhead at equal SE).

All per-point evaluations are closed forms on precomputed moment tables; no
Monte Carlo runs inside the sweep, so results are deterministic given the
tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import InterferenceMode, NetworkConfig, validate
from .errors import EmptyFeasibleSet
from .moments import MomentTable
from .spectral import (CopilotSums, Scheme, mrc_sinr_from_sums,
                       pzfc_sinr_from_sums, se_from_sinr)


@dataclass(frozen=True)
class SweepRow:
    """One evaluated grid point."""

    n_antennas: int
    n_users: int
    reuse_factor: int
    scheme: Scheme
    mode: InterferenceMode
    sinr: float
    se: float


@dataclass
class SweepResult:
    """All evaluated rows plus the argmax row per (N, scheme, mode) slice."""

    rows: list[SweepRow]
    optima: dict[tuple[int, Scheme, InterferenceMode], SweepRow]
    n_skipped: dict[tuple[int, Scheme, InterferenceMode], int]


def default_n_grid(n_min: int = 10, n_max: int = 10 ** 4,
                   n_points: int = 30) -> list[int]:
    """Log-spaced antenna grid, rounded to unique integers."""
    grid = np.logspace(np.log10(n_min), np.log10(n_max), n_points)
    return sorted(set(int(round(v)) for v in grid))


def default_k_grid(coherence_block: int) -> list[int]:
    """User counts 1 .. ceil(T/2); beyond T/2 every SE factor is decreasing."""
    return list(range(1, (coherence_block + 1) // 2 + 1))


def _better(cand: SweepRow, best: SweepRow) -> bool:
    if cand.se != best.se:
        return cand.se > best.se
    if cand.n_users != best.n_users:
        return cand.n_users < best.n_users
    return cand.reuse_factor < best.reuse_factor


def sweep(template: NetworkConfig, n_grid, k_grid, beta_set, schemes, modes,
          moments: dict[InterferenceMode, MomentTable]) -> SweepResult:
    """Evaluate the SE over the full feasible grid and record per-N optima.

    Args:
        template: supplies T, the SNR and the propagation constants; its
            (N, K, beta) fields are ignored.
        n_grid, k_grid, beta_set: grids to sweep (iterables of ints).
        schemes: iterable of Scheme.
        modes: iterable of InterferenceMode.
        moments: one prebuilt MomentTable per requested mode; every offset
            it covers interferes.

    Raises:
        EmptyFeasibleSet: some (N, scheme, mode) slice has no feasible (K, beta).
    """
    validate(template)
    n_grid = sorted(set(int(n) for n in n_grid))
    k_grid = sorted(set(int(k) for k in k_grid))
    beta_set = sorted(set(int(b) for b in beta_set))
    schemes = list(schemes)
    modes = list(modes)
    t_block = template.coherence_block
    inv_snr = template.inv_snr

    rows: list[SweepRow] = []
    optima: dict[tuple[int, Scheme, InterferenceMode], SweepRow] = {}
    n_skipped: dict[tuple[int, Scheme, InterferenceMode], int] = {}

    for mode in modes:
        table = moments[mode]
        sums_by_beta = {beta: CopilotSums.from_table(table, beta)
                        for beta in beta_set}
        feasible_k = {beta: [k for k in k_grid if beta * k <= t_block]
                      for beta in beta_set}
        for n in n_grid:
            for scheme in schemes:
                key = (n, scheme, mode)
                best = None
                skipped = 0
                for beta in beta_set:
                    sums = sums_by_beta[beta]
                    for k in feasible_k[beta]:
                        if scheme is Scheme.PZFC and n <= beta * k:
                            skipped += 1
                            continue
                        if scheme is Scheme.PZFC:
                            sinr = pzfc_sinr_from_sums(sums, n, k, inv_snr)
                        else:
                            sinr = mrc_sinr_from_sums(sums, n, k, inv_snr)
                        res = se_from_sinr(sinr, k, beta * k, t_block)
                        row = SweepRow(n_antennas=n, n_users=k, reuse_factor=beta,
                                       scheme=scheme, mode=mode,
                                       sinr=res.sinr, se=res.se_per_cell)
                        rows.append(row)
                        if best is None or _better(row, best):
                            best = row
                if best is None:
                    raise EmptyFeasibleSet(
                        f"no feasible (K, beta) at N={n} for scheme={scheme.value}, "
                        f"mode={mode.value}")
                optima[key] = best
                n_skipped[key] = skipped

    return SweepResult(rows=rows, optima=optima, n_skipped=n_skipped)


def optimal_schedule(result: SweepResult, n_antennas: int, scheme: Scheme,
                     mode: InterferenceMode) -> tuple[int, int, float]:
    """(K*, beta*, SE*) of the argmax row for one (N, scheme, mode) slice."""
    key = (n_antennas, scheme, mode)
    if key not in result.optima:
        raise KeyError(f"no sweep slice for N={n_antennas}, "
                       f"scheme={scheme.value}, mode={mode.value}")
    row = result.optima[key]
    return row.n_users, row.reuse_factor, row.se


def write_sweep_csv(result: SweepResult, path) -> None:
    """One CSV row per evaluated grid point (floats at full precision)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("N,K,beta,scheme,mode,sinr,se\n")
        for r in result.rows:
            fh.write(f"{r.n_antennas},{r.n_users},{r.reuse_factor},"
                     f"{r.scheme.value},{r.mode.value},{r.sinr!r},{r.se!r}\n")


def write_optima_csv(result: SweepResult, path) -> None:
    """One CSV row per (N, scheme, mode) slice with its argmax schedule."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("N,scheme,mode,K_star,beta_star,sinr,se\n")
        for (n, scheme, mode), r in sorted(
                result.optima.items(),
                key=lambda kv: (kv[0][2].value, kv[0][0], kv[0][1].value)):
            fh.write(f"{n},{scheme.value},{mode.value},{r.n_users},"
                     f"{r.reuse_factor},{r.sinr!r},{r.se!r}\n")
