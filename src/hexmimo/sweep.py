"""Exhaustive (N, K, beta) sweep selecting the SE-maximizing schedule.

For every antenna count N the sweep evaluates the closed-form per-cell SE of
each feasible (K, beta) pair and each combining scheme, in each interference
mode, and records the argmax.  Feasibility: beta * K <= T always, and N > beta * K
for the zero-forcing combiner.  Ties are broken toward smaller K, then
smaller beta (fewer scheduled users and less pilot overhead at equal SE).

Each (mode, N, scheme, beta) slice is one array expression over its feasible
K, and the result is columnar: one structured array whose fields are the
columns of sweep.csv.  The closed forms run on precomputed moment tables, so
results are deterministic given the tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import InterferenceMode, NetworkConfig, validate
from .errors import DomainError, EmptyFeasibleSet
from .moments import MomentTable
from .spectral import (CopilotSums, Scheme, mrc_sinr_from_sums,
                       pzfc_sinr_from_sums, se_from_sinr)

# one record per evaluated point; the field names are the sweep.csv header
ROW_DTYPE = np.dtype([("N", np.int64), ("K", np.int64), ("beta", np.int64),
                      ("scheme", "U4"), ("mode", "U5"),
                      ("sinr", np.float64), ("se", np.float64)])
_WRITE_CHUNK = 1 << 14  # rows held as Python objects at once while writing


@dataclass
class SweepResult:
    """`rows`: every evaluated point, a ROW_DTYPE array in sweep order
    (mode, N, scheme, beta, K); `optima`: the index in `rows` of each
    (N, scheme, mode) slice's argmax; `n_skipped`: PZFC points with N <= B."""

    rows: np.ndarray
    optima: dict[tuple[int, Scheme, InterferenceMode], int]
    n_skipped: dict[tuple[int, Scheme, InterferenceMode], int]


def default_n_grid(n_min: int = 10, n_max: int = 10 ** 4,
                   n_points: int = 30) -> list[int]:
    """Log-spaced antenna grid, rounded to unique integers."""
    if min(n_min, n_max) < 1:
        raise DomainError(f"antenna counts must be >= 1, got {n_min}..{n_max}")
    grid = np.logspace(np.log10(n_min), np.log10(n_max), n_points)
    return sorted(set(int(round(v)) for v in grid))


def default_k_grid(coherence_block: int) -> list[int]:
    """User counts 1 .. ceil(T/2); beyond T/2 every SE factor is decreasing."""
    return list(range(1, (coherence_block + 1) // 2 + 1))


def _argmax(rows: np.ndarray) -> int:
    """Index of the largest SE, ties to fewer users, then lower reuse."""
    return int(np.lexsort((rows["beta"], rows["K"], -rows["se"]))[0])


def sweep(template: NetworkConfig, n_grid, k_grid, beta_set, schemes, modes,
          moments: dict[InterferenceMode, MomentTable]) -> SweepResult:
    """Evaluate the SE over the full feasible grid and record per-N optima.

    Args:
        template: supplies T, the SNR and the propagation constants; its
            (N, K, beta) fields are ignored.
        n_grid, k_grid, beta_set: grids to sweep (iterables of ints).
        schemes, modes: iterables of Scheme and of InterferenceMode.
        moments: one prebuilt MomentTable per requested mode; every offset
            it covers interferes.

    Raises:
        EmptyFeasibleSet: some (N, scheme, mode) slice has no feasible (K, beta).
    """
    validate(template)
    n_grid = sorted(set(int(n) for n in n_grid))
    k_grid = np.array(sorted(set(int(k) for k in k_grid)), dtype=np.int64)
    beta_set = sorted(set(int(b) for b in beta_set))
    schemes = list(schemes)
    t_block, inv_snr = template.coherence_block, template.inv_snr
    feasible_k = {beta: k_grid[beta * k_grid <= t_block] for beta in beta_set}
    # built per call, so wrappers installed on this module's names see every call
    from_sums = {Scheme.MRC: mrc_sinr_from_sums, Scheme.PZFC: pzfc_sinr_from_sums}

    parts, bounds, n_skipped, n_rows = [], {}, {}, 0  # bounds: slice -> rows
    for mode in modes:
        sums = {beta: CopilotSums.from_table(moments[mode], beta) for beta in beta_set}
        for n in n_grid:
            for scheme in schemes:
                key, start = (n, scheme, mode), n_rows
                n_skipped[key] = 0
                for beta in beta_set:
                    k = feasible_k[beta]
                    if scheme is Scheme.PZFC:
                        k = k[beta * k < n]
                        n_skipped[key] += len(feasible_k[beta]) - len(k)
                    sinr = from_sums[scheme](sums[beta], n, k, inv_snr)
                    se = se_from_sinr(sinr, k, beta * k, t_block).se_per_cell
                    part = np.empty(len(k), ROW_DTYPE)
                    for name, column in zip(ROW_DTYPE.names, (n, k, beta, scheme.value,
                                                              mode.value, sinr, se)):
                        part[name] = column
                    parts.append(part)
                    n_rows += len(k)
                if n_rows == start:
                    raise EmptyFeasibleSet(f"no feasible (K, beta) at N={n} for "
                                           f"scheme={scheme.value}, mode={mode.value}")
                bounds[key] = (start, n_rows)

    rows = np.concatenate(parts) if parts else np.empty(0, ROW_DTYPE)
    optima = {key: start + _argmax(rows[start:stop]) for key, (start, stop) in bounds.items()}
    return SweepResult(rows=rows, optima=optima, n_skipped=n_skipped)


def optimal_schedule(result: SweepResult, n_antennas: int, scheme: Scheme,
                     mode: InterferenceMode) -> tuple[int, int, float]:
    """(K*, beta*, SE*) of the argmax row for one (N, scheme, mode) slice."""
    key = (n_antennas, scheme, mode)
    if key not in result.optima:
        raise KeyError(f"no sweep slice for N={n_antennas}, "
                       f"scheme={scheme.value}, mode={mode.value}")
    _, k, beta, _, _, _, se = result.rows[result.optima[key]].item()
    return k, beta, se


def write_sweep_csv(result: SweepResult, path) -> None:
    """One CSV row per evaluated grid point (floats at full precision)."""
    rows = result.rows
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(ROW_DTYPE.names) + "\n")
        for start in range(0, len(rows), _WRITE_CHUNK):
            fh.writelines("%d,%d,%d,%s,%s,%r,%r\n" % r
                          for r in rows[start:start + _WRITE_CHUNK].tolist())


def write_optima_csv(result: SweepResult, path) -> None:
    """One CSV row per (N, scheme, mode) slice with its argmax schedule."""
    best = np.sort(result.rows[list(result.optima.values())],
                   order=["mode", "N", "scheme"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("N,scheme,mode,K_star,beta_star,sinr,se\n")
        fh.writelines(f"{n},{scheme},{mode},{k},{beta},{sinr!r},{se!r}\n"
                      for n, k, beta, scheme, mode, sinr, se in best.tolist())
