"""Exhaustive (N, K, beta) sweep selecting the SE-maximizing schedule.

For every antenna count N the sweep evaluates the closed-form per-cell SE of
each feasible (K, beta) pair and each combining scheme, in each interference
mode, and records the argmax.  Feasibility (`max_users`): beta * K <= T
always, and N > beta * K for the zero-forcing combiner.  Ties are broken
toward smaller K, then smaller beta (fewer scheduled users and less pilot
overhead at equal SE).

Each (mode, N, scheme, beta) slice is one array expression over its feasible
K, and the result is columnar: one structured array whose fields are the
columns of sweep.csv.  The sweep counts every slice's rows first, allocates
that array once and fills each slice in place.  The closed forms run on
precomputed moment tables, so results are deterministic given the tables.

Writing sweep.csv costs far more than the sweep (about 3 us per row, two
float reprs of it, against well under 1 us to evaluate it).  The writer
splits the rows into runs of equal (N, beta, scheme, mode), which are
contiguous in sweep order, formats each run's constant fields once and only
K and the two floats per row.  It cuts the rows into spans of equal length
and formats them in order.  When the process may run on more than one CPU
and there are at least `_POOL_MIN_ROWS` rows, the spans are formatted by a
pool of forked workers (`_fork.fork_map`): starting and stopping the pool
costs about 20 ms, which that many rows repay on two CPUs.  The workers
inherit the rows through the fork, so only span indices and the formatted
bytes cross the pipes, and the parent writes each span as it arrives, in
order.  Smaller sweeps format in process and never import
`multiprocessing`.  Both paths write the same bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ._fork import fork_map
from .config import InterferenceMode, NetworkConfig, validate
from .errors import DomainError, EmptyFeasibleSet
from .moments import MomentTable
from .spectral import (CopilotSums, Scheme, mrc_sinr_from_sums,
                       pzfc_sinr_from_sums, se_from_sinr)

# one record per evaluated point; the field names are the sweep.csv header
ROW_DTYPE = np.dtype([("N", np.int64), ("K", np.int64), ("beta", np.int64),
                      ("scheme", "U4"), ("mode", "U5"),
                      ("sinr", np.float64), ("se", np.float64)])
N_MAX = int(np.iinfo(ROW_DTYPE["N"]).max)  # the largest antenna count a row holds
_SPAN_ROWS = 1 << 14      # rows held as Python objects at once while writing
_POOL_MIN_ROWS = 1 << 15  # about 0.1 s of formatting, 5x the pool's start-up


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
    if min(n_min, n_max) < 1 or max(n_min, n_max) > N_MAX:
        raise DomainError(f"antenna counts must be in [1, 2^63), got {n_min}..{n_max}")
    grid = np.logspace(np.log10(n_min), np.log10(n_max), n_points)
    return sorted(set(int(round(v)) for v in grid))


def default_k_grid(coherence_block: int) -> range:
    """User counts 1 .. ceil(T/2); beyond T/2 every SE factor is decreasing.
    A range, so that a slice caps it without listing its T/2 counts."""
    return range(1, (coherence_block + 1) // 2 + 1)


def max_users(n: int, scheme: Scheme, beta: int, t_block: int) -> int:
    """The largest K that `scheme` can schedule at (N, beta): beta * K <= T
    pilots fit the coherence block, and zero-forcing needs N > beta * K."""
    k_max = t_block // beta
    return min(k_max, (n - 1) // beta) if scheme is Scheme.PZFC else k_max


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
    schemes, modes = list(schemes), list(modes)
    t_block, inv_snr = template.coherence_block, template.inv_snr
    # built per call, so wrappers installed on this module's names see every call
    from_sums = {Scheme.MRC: mrc_sinr_from_sums, Scheme.PZFC: pzfc_sinr_from_sums}

    sums = {mode: {beta: CopilotSums.from_table(moments[mode], beta) for beta in beta_set}
            for mode in modes}

    def n_feasible(n, scheme, beta):  # the feasible K are a prefix of k_grid
        return int(np.searchsorted(k_grid, max_users(n, scheme, beta, t_block), "right"))

    # feasibility does not depend on the mode: size every slice once
    sizes, skipped = {}, {}
    for n in n_grid:
        for scheme in schemes:
            sizes[n, scheme] = [n_feasible(n, scheme, beta) for beta in beta_set]
            skipped[n, scheme] = (sum(n_feasible(n, Scheme.MRC, beta) for beta in beta_set)
                                  - sum(sizes[n, scheme]))
            if modes and not any(sizes[n, scheme]):
                raise EmptyFeasibleSet(f"no feasible (K, beta) at N={n} for "
                                       f"scheme={scheme.value}, mode={modes[0].value}")

    rows = np.empty(len(modes) * sum(map(sum, sizes.values())), ROW_DTYPE)
    optima, n_skipped, stop = {}, {}, 0
    for mode in modes:
        for n in n_grid:
            for scheme in schemes:
                key, first = (n, scheme, mode), stop
                n_skipped[key] = skipped[n, scheme]
                for beta, size in zip(beta_set, sizes[n, scheme]):
                    k = k_grid[:size]
                    sinr = from_sums[scheme](sums[mode][beta], n, k, inv_snr)
                    se = se_from_sinr(sinr, k, beta * k, t_block).se_per_cell
                    start, stop = stop, stop + size
                    part = rows[start:stop]  # a view: filled in place
                    for name, column in zip(ROW_DTYPE.names, (n, k, beta, scheme.value,
                                                              mode.value, sinr, se)):
                        part[name] = column
                optima[key] = first + _argmax(rows[first:stop])
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


def _format_rows(rows: np.ndarray) -> bytes:
    """The sweep.csv lines of `rows`, each the same bytes as
    `"%d,%d,%d,%s,%s,%r,%r\\n" % row` over `rows.tolist()`."""
    first = np.zeros(len(rows), dtype=bool)  # first[i]: row i starts a run
    first[:1] = True
    for name in ("N", "beta", "scheme", "mode"):
        first[1:] |= rows[name][1:] != rows[name][:-1]
    bounds = [*np.flatnonzero(first).tolist(), len(rows)]
    k, sinr, se = rows["K"].tolist(), rows["sinr"].tolist(), rows["se"].tolist()
    lines = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        n, _, beta, scheme, mode, _, _ = rows[start].item()
        head, middle = f"{n},", f",{beta},{scheme},{mode},"
        lines += [f"{head}{kk}{middle}{x!r},{y!r}\n" for kk, x, y in
                  zip(k[start:stop], sinr[start:stop], se[start:stop])]
    return "".join(lines).encode("utf-8")


def write_sweep_csv(result: SweepResult, path) -> None:
    """One CSV row per evaluated grid point (floats at full precision)."""
    rows = result.rows
    workers = len(os.sched_getaffinity(0)) if len(rows) >= _POOL_MIN_ROWS else 1
    # a multiple of the worker count, so every worker formats as many rows
    n_spans = min(workers * -(-len(rows) // (workers * _SPAN_ROWS)), len(rows))
    spans = [(len(rows) * i // n_spans, len(rows) * (i + 1) // n_spans)
             for i in range(n_spans)]

    # the pool forks before the file is opened; its workers only format
    # strings (no threads, no BLAS)
    with fork_map(lambda start, stop: _format_rows(rows[start:stop]),
                  spans, workers) as texts:
        with open(path, "wb") as fh:
            fh.write((",".join(ROW_DTYPE.names) + "\n").encode("utf-8"))
            fh.writelines(texts)


def write_optima_csv(result: SweepResult, path) -> None:
    """One CSV row per (N, scheme, mode) slice with its argmax schedule."""
    best = np.sort(result.rows[list(result.optima.values())],
                   order=["mode", "N", "scheme"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("N,scheme,mode,K_star,beta_star,sinr,se\n")
        fh.writelines(f"{n},{scheme},{mode},{k},{beta},{sinr!r},{se!r}\n"
                      for n, k, beta, scheme, mode, sinr, se in best.tolist())
