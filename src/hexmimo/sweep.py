"""Exhaustive (N, K, beta) sweep selecting the SE-maximizing schedule.

For every antenna count N the sweep evaluates the closed-form per-cell SE of
each feasible (K, beta) pair and each combining scheme, in each interference
mode, and records the argmax.  Feasibility is `config.max_users`: beta * K
<= T always, and N > beta * K for the zero-forcing combiner.  Ties are broken
toward smaller K, then smaller beta (fewer scheduled users and less pilot
overhead at equal SE).

The result is columnar and split in two tables.  A run is the points of
one (mode, N, scheme, beta), whose feasible K are a prefix of the K grid,
so the K of a run's i-th row is the i-th swept K.  `rows` holds only the
SINR and SE of each point, 16 bytes; `runs` holds one record per non-empty
run, in sweep order, with its constant fields and its [start, stop) range
in `rows`.  The sweep sizes every run first, allocates both tables once,
then evaluates each (mode, scheme, beta) over its feasible (N, K) pairs
in pieces of at most `_SPAN_ROWS` consecutive points, and scatters each
piece's values into the runs they belong to.  Every array the sweep
allocates besides `rows`, `runs` and its per-N and per-run bookkeeping
holds at most `_SPAN_ROWS` points, whatever the grid.  The closed forms
run on precomputed moment tables and act elementwise, so results are
deterministic given the tables and do not depend on the pieces.

sweep.csv is the run's largest output, with a float repr for each SINR
and SE.  The writer cuts the run table into spans of whole runs holding
about equal numbers of rows, at most about `_SPAN_ROWS` each, which bounds
the memory a span takes, and lays out each span's lines as one 0x00-padded
byte matrix: each run's constant fields formatted once, K and the floats by
the numpy kernels of `_floatrepr`, which print them exactly as `str` and
`repr` do; the padding is stripped at the end.  The bytes do not depend on
where the spans are cut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._floatrepr import float_reprs, int_digits
from .config import InterferenceMode, NetworkConfig, Scheme, max_users
from .errors import DomainError, EmptyFeasibleSet
from .moments import MomentTable
from .spectral import CopilotSums, mrc_sinr_from_sums, pzfc_sinr_from_sums, se_from_sinr

# what varies within a run, besides the K it implies: one record per evaluated point
ROW_DTYPE = np.dtype([("sinr", np.float64), ("se", np.float64)])
# one record per run of equal (mode, N, scheme, beta), its rows [start, stop)
RUN_DTYPE = np.dtype([("mode", "U5"), ("N", np.int64), ("scheme", "U4"),
                      ("beta", np.int64), ("start", np.int64), ("stop", np.int64)])
N_MAX = int(np.iinfo(RUN_DTYPE["N"]).max)  # the largest antenna count a run holds
# points the sweep evaluates as one array expression, and about the sweep.csv
# rows laid out as one byte matrix (near 0.6 MiB at about 70 bytes a line)
_SPAN_ROWS = 1 << 13


@dataclass
class SweepResult:
    """`rows`: SINR and SE of every evaluated point, a ROW_DTYPE array of
    16 bytes a point; `runs`: one RUN_DTYPE record per non-empty run of
    equal (mode, N, scheme, beta), in sweep order, whose `start`/`stop` tile
    `rows`; `k_grid`: the swept user counts, sorted, an int64 array whose
    prefix of each run's length is that run's K (`n_users`); `optima`: the
    index in `rows` of each (N, scheme, mode) slice's argmax; `n_skipped`:
    PZFC points with N <= B."""

    rows: np.ndarray
    runs: np.ndarray
    k_grid: np.ndarray
    optima: dict[tuple[int, Scheme, InterferenceMode], int]
    n_skipped: dict[tuple[int, Scheme, InterferenceMode], int]

    def n_users(self, index):
        """The K of the rows at `index` (an index or an array of them)."""
        return self.k_grid[index - self.runs["start"][_run_of(self, index)]]


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


def _run_of(result: SweepResult, rows):
    """The index in `result.runs` of the run holding each given row."""
    return np.searchsorted(result.runs["stop"], rows, "right")


def _argmax(result: SweepResult, index: np.ndarray) -> int:
    """The row among `index` with the largest SE, ties to fewer users, then
    lower reuse."""
    se = result.rows["se"][index]
    tied = index[se == se.max()]
    beta = result.runs["beta"][_run_of(result, tied)]
    return int(tied[np.lexsort((beta, result.n_users(tied)))[0]])


def sweep(config: NetworkConfig, n_grid, k_grid, beta_set, schemes, modes,
          moments: dict[InterferenceMode, MomentTable]) -> SweepResult:
    """Evaluate the SE over the full feasible grid and record per-N optima.

    Args:
        config: the network the grid is swept on.
        n_grid, k_grid, beta_set: grids to sweep (iterables of ints).
        schemes, modes: iterables of Scheme and of InterferenceMode.
        moments: one prebuilt MomentTable per requested mode; every offset
            it covers interferes.

    Raises:
        EmptyFeasibleSet: some (N, scheme, mode) slice has no feasible (K, beta).
    """
    n_grid = sorted(set(int(n) for n in n_grid))
    k_grid = np.array(sorted(set(int(k) for k in k_grid)), dtype=np.int64)
    beta_set = sorted(set(int(b) for b in beta_set))
    schemes, modes = list(schemes), list(modes)
    t_block, inv_snr = config.coherence_block, config.inv_snr
    # built per call, so wrappers installed on this module's names see every call
    from_sums = {Scheme.MRC: mrc_sinr_from_sums, Scheme.PZFC: pzfc_sinr_from_sums}

    sums = {mode: {beta: CopilotSums.from_table(moments[mode], beta) for beta in beta_set}
            for mode in modes}

    def n_feasible(n, scheme, beta):  # the feasible K are a prefix of k_grid
        return int(np.searchsorted(k_grid, max_users(n, scheme, beta, t_block), "right"))

    # feasibility does not depend on the mode: size every run once
    sizes = np.zeros((len(n_grid), len(schemes), len(beta_set)), np.int64)
    skipped = {}
    for i, n in enumerate(n_grid):
        n_mrc = sum(n_feasible(n, Scheme.MRC, beta) for beta in beta_set)
        for j, scheme in enumerate(schemes):
            sizes[i, j] = [n_feasible(n, scheme, beta) for beta in beta_set]
            skipped[n, scheme] = n_mrc - int(sizes[i, j].sum())
            if modes and not sizes[i, j].any():
                raise EmptyFeasibleSet(f"no feasible (K, beta) at N={n} for "
                                       f"scheme={scheme.value}, mode={modes[0].value}")

    # every (mode, N, scheme, beta) in sweep order; the empty ones hold no run
    all_sizes = np.broadcast_to(sizes, (len(modes), *sizes.shape))
    stops = np.cumsum(all_sizes).reshape(all_sizes.shape)
    starts = stops - all_sizes
    filled = np.flatnonzero(all_sizes)
    runs = np.empty(len(filled), RUN_DTYPE)
    for name, values, at in zip(("mode", "N", "scheme", "beta"),
                                ([mode.value for mode in modes], n_grid,
                                 [scheme.value for scheme in schemes], beta_set),
                                np.unravel_index(filled, all_sizes.shape)):
        runs[name] = np.array(values, RUN_DTYPE[name])[at]
    runs["start"], runs["stop"] = starts.flat[filled], stops.flat[filled]

    rows = np.empty(int(stops.flat[-1]) if stops.size else 0, ROW_DTYPE)
    n_values = np.array(n_grid, np.int64)
    for m, mode in enumerate(modes):
        for j, scheme in enumerate(schemes):
            for b, beta in enumerate(beta_set):
                # the feasible (N, K) of this (mode, scheme, beta), numbered
                # N by N: those of n_grid[i] are [ends[i] - size[i], ends[i])
                size = sizes[:, j, b]
                ends, total = np.cumsum(size), int(size.sum())
                for lo in range(0, total, _SPAN_ROWS):
                    point = np.arange(lo, min(lo + _SPAN_ROWS, total))
                    # each point's N, and its place within the run of that N
                    i = np.searchsorted(ends, point, "right")
                    pos = point - (ends - size)[i]
                    k = k_grid[pos]
                    sinr = from_sums[scheme](sums[mode][beta], n_values[i], k, inv_snr)
                    se = se_from_sinr(sinr, k, beta * k, t_block).se_per_cell
                    dest = starts[m, i, j, b] + pos
                    rows["sinr"][dest], rows["se"][dest] = sinr, se

    optima, n_skipped = {}, {}  # filled below; the argmax reads K through `result`
    result = SweepResult(rows=rows, runs=runs, k_grid=k_grid, optima=optima,
                         n_skipped=n_skipped)
    for m, mode in enumerate(modes):
        for i, n in enumerate(n_grid):
            for j, scheme in enumerate(schemes):
                key = (n, scheme, mode)
                n_skipped[key] = skipped[n, scheme]
                first, stop = int(starts[m, i, j, 0]), int(stops[m, i, j, -1])
                # the best row of each piece of the slice, then the best of those
                best = [_argmax(result, np.arange(lo, min(lo + _SPAN_ROWS, stop)))
                        for lo in range(first, stop, _SPAN_ROWS)]
                optima[key] = _argmax(result, np.array(best))
    return result


def optimal_schedule(result: SweepResult, n_antennas: int, scheme: Scheme,
                     mode: InterferenceMode) -> tuple[int, int, float]:
    """(K*, beta*, SE*) of the argmax row for one (N, scheme, mode) slice."""
    key = (n_antennas, scheme, mode)
    if key not in result.optima:
        raise KeyError(f"no sweep slice for N={n_antennas}, "
                       f"scheme={scheme.value}, mode={mode.value}")
    row = result.optima[key]
    return (int(result.n_users(row)), int(result.runs["beta"][_run_of(result, row)]),
            float(result.rows["se"][row]))


def _padded(texts: list[bytes]) -> np.ndarray:
    """One 0x00-padded row of bytes per text."""
    return np.array(texts, np.bytes_).view(np.uint8).reshape(len(texts), -1)


def _format_runs(result: SweepResult, runs: np.ndarray) -> bytes:
    """The sweep.csv lines of `runs`, consecutive records of `result.runs`,
    each the same bytes as `"%d,%d,%d,%s,%s,%r,%r\\n" % (N, K, beta, scheme,
    mode, sinr, se)`.  The lines are laid out as one 0x00-padded byte
    matrix; the padding is stripped at the end (no field holds 0x00)."""
    first, stop = int(runs["start"][0]), int(runs["stop"][-1])
    part, n = result.rows[first:stop], stop - first
    run_of = np.repeat(np.arange(len(runs)), runs["stop"] - runs["start"])
    floats = float_reprs(np.concatenate((part["sinr"], part["se"])))
    fields = [_padded([b"%d," % v for v in runs["N"].tolist()])[run_of],
              int_digits(result.n_users(np.arange(first, stop))),
              _padded([f",{beta},{scheme},{mode},".encode()
                       for mode, _, scheme, beta, _, _ in runs.tolist()])[run_of],
              floats[:n], np.full((n, 1), ord(","), np.uint8), floats[n:],
              np.full((n, 1), ord("\n"), np.uint8)]
    return np.concatenate(fields, axis=1).tobytes().translate(None, b"\0")


def _write_lines(path, texts) -> None:
    with open(path, "wb") as fh:
        fh.write(b"N,K,beta,scheme,mode,sinr,se\n")
        fh.writelines(texts)


def write_sweep_csv(result: SweepResult, path) -> None:
    """One CSV row per evaluated grid point (floats at full precision)."""
    n_rows, runs = len(result.rows), result.runs
    n_spans = -(-n_rows // _SPAN_ROWS)
    # each span ends at the first run boundary at or past its equal share of rows
    shares = [n_rows * i // n_spans for i in range(1, n_spans)]
    cuts = [0, *np.searchsorted(runs["start"], shares).tolist(), len(runs)]
    _write_lines(path, (_format_runs(result, runs[lo:hi])
                        for lo, hi in zip(cuts[:-1], cuts[1:]) if lo < hi))


def write_optima_csv(result: SweepResult, path) -> None:
    """One CSV row per (N, scheme, mode) slice with its argmax schedule,
    sorted by (mode, N, scheme)."""
    best = np.array(list(result.optima.values()), np.int64)
    runs = result.runs[_run_of(result, best)]
    order = np.lexsort((runs["scheme"], runs["N"], runs["mode"]))
    best = best[order]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("N,scheme,mode,K_star,beta_star,sinr,se\n")
        fh.writelines(f"{n},{scheme},{mode},{k},{beta},{sinr!r},{se!r}\n"
                      for (mode, n, scheme, beta, _, _), k, (sinr, se)
                      in zip(runs[order].tolist(), result.n_users(best).tolist(),
                             result.rows[best].tolist()))
