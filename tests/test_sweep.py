import math
import tracemalloc
import types

import numpy as np
import pytest

import hexmimo.sweep as sweep_module
from hexmimo.config import InterferenceMode, NetworkConfig
from hexmimo.errors import EmptyFeasibleSet
from hexmimo.pilots import Schedule
from hexmimo.spectral import (CopilotSums, Scheme, SinrInputs, asymptotic_sinr,
                              kstar_asymptotic, mrc_sinr_from_sums, pzfc_sinr_from_sums,
                              se_from_sinr, sinr)
from hexmimo.sweep import (ROW_DTYPE, RUN_DTYPE, _argmax, default_k_grid,
                           default_n_grid, optimal_schedule, sweep,
                           write_optima_csv, write_sweep_csv)
from test_floatrepr import REPR_EDGES

AVG = InterferenceMode.AVERAGE
WORST = InterferenceMode.WORST_CASE


def template(t_block=1000):
    return NetworkConfig(coherence_block=t_block, snr_linear=10.0)


@pytest.fixture(scope="module")
def small_sweep(avg_table, worst_table):
    tables = {AVG: avg_table, WORST: worst_table}
    return sweep(template(), [16, 64, 256, 1024], range(1, 13), [1, 3],
                 [Scheme.MRC, Scheme.PZFC], [AVG, WORST], tables)


@pytest.fixture(scope="module")
def edge_args(avg_table, worst_table):
    # T = 21: (K, beta) = (21, 1), (7, 3) and (3, 7) fill the block with
    # pilots (SE = 0), and PZFC skips every beta * K >= N at N = 4, 8, 30
    tables = {AVG: avg_table, WORST: worst_table}
    return (template(21), [4, 8, 30, 1000], range(1, 22), [1, 3, 7],
            [Scheme.MRC, Scheme.PZFC], [AVG, WORST], tables)


@pytest.fixture(scope="module")
def large_args(avg_table, worst_table):
    # the benchmark's large grid (T = 2000, 60 antenna counts): 417,152
    # points, and up to 60,000 in one (mode, scheme, beta)
    tables = {AVG: avg_table, WORST: worst_table}
    return (template(2000), default_n_grid(n_points=60), default_k_grid(2000),
            [1, 3, 4, 7], [Scheme.MRC, Scheme.PZFC], [AVG, WORST], tables)


# one record per evaluated point, every field of sweep.csv
POINT_DTYPE = np.dtype([("N", np.int64), ("K", np.int64), ("beta", np.int64),
                        ("scheme", "U4"), ("mode", "U5"),
                        ("sinr", np.float64), ("se", np.float64)])


def expanded(result) -> np.ndarray:
    """`rows` with each row's K and its run's constant fields."""
    lengths = result.runs["stop"] - result.runs["start"]
    points = np.empty(len(result.rows), POINT_DTYPE)
    points["K"] = result.n_users(np.arange(len(result.rows)))
    for name in ("N", "beta", "scheme", "mode", *ROW_DTYPE.names):
        points[name] = (result.rows[name] if name in ROW_DTYPE.names
                        else np.repeat(result.runs[name], lengths))
    return points


def reference_sweep_csv(points) -> bytes:
    """The per-row formatter the writer replaced, over (N, K, beta, scheme,
    mode, sinr, se) tuples: the expected bytes."""
    lines = ["N,K,beta,scheme,mode,sinr,se\n"]
    lines += ["%d,%d,%d,%s,%s,%r,%r\n" % point for point in points]
    return "".join(lines).encode("utf-8")


def reference_optima_csv(optima) -> bytes:
    """optima.csv from the (N, K, beta, scheme, mode, sinr, se) tuple of each
    slice's argmax, sorted by (mode, N, scheme)."""
    lines = ["N,scheme,mode,K_star,beta_star,sinr,se\n"]
    lines += [f"{n},{scheme},{mode},{k},{beta},{sinr!r},{se!r}\n"
              for n, k, beta, scheme, mode, sinr, se
              in sorted(optima.values(), key=lambda p: (p[4], p[0], p[3]))]
    return "".join(lines).encode("utf-8")


def scalar_sweep(config, n_grid, k_grid, betas, schemes, modes, tables):
    """The literal per-point loop: scalar sinr/se_from_sinr, max with the
    tie-break key.  (points, optima, skipped) in the caller's order."""
    t_block = config.coherence_block
    points, optima, skipped = [], {}, {}
    for mode in modes:
        for n in n_grid:
            for scheme in schemes:
                key = (n, scheme, mode)
                first, skipped[key] = len(points), 0
                for beta in betas:
                    for k in k_grid:
                        if beta * k > t_block:
                            continue
                        if scheme is Scheme.PZFC and n <= beta * k:
                            skipped[key] += 1
                            continue
                        value = sinr(SinrInputs(config, tables[mode],
                                                Schedule(n, k, beta),
                                                scheme=scheme))
                        se = se_from_sinr(value, k, beta * k, t_block).se_per_cell
                        points.append((n, k, beta, scheme.value, mode.value,
                                       value, se))
                optima[key] = max(points[first:],
                                  key=lambda p: (p[6], -p[1], -p[2]))
    return points, optima, skipped


def hand_built_result():
    # runs of (mode, N, scheme, beta) of length 1 next to longer ones, floats
    # whose repr takes every form and the edges of float_reprs' numpy path,
    # and K of 1 to 13 digits and of 19 (each run's K: a prefix of k_grid)
    runs = np.zeros(6, RUN_DTYPE)
    runs["mode"] = ["avg", "avg", "avg", "avg", "worst", "worst"]
    runs["N"] = [10, 10, 11, 11, 10, 10 ** 18]
    runs["scheme"] = ["mrc", "mrc", "mrc", "pzfc", "pzfc", "pzfc"]
    runs["beta"] = [1, 3, 3, 3, 3, 7]
    runs["start"] = [0, 2, 3, 4, 5, 8]
    runs["stop"] = [2, 3, 4, 5, 8, 8 + len(REPR_EDGES)]
    k_grid = np.array([10 ** i - 1 for i in range(1, len(REPR_EDGES))] + [2 ** 63 - 1])
    rows = np.zeros(8 + len(REPR_EDGES), ROW_DTYPE)
    rows["sinr"] = [0.0, math.inf, 1e-05, 1e16, 5e-324, 0.1 + 0.2, 2.5, 1e-300] + REPR_EDGES
    rows["se"] = [0.0, 1e16, 0.1 + 0.2, 5e-324, 1e-05, math.inf, 0.0, 123.456] + REPR_EDGES[::-1]
    return sweep_module.SweepResult(rows=rows, runs=runs, k_grid=k_grid,
                                    optima={}, n_skipped={})


@pytest.mark.parametrize("span_rows", [sweep_module._SPAN_ROWS, 2])
@pytest.mark.parametrize("rows", ["sweep", "hand-built", "empty"])
def test_sweep_csv_bytes_equal_the_per_row_formatter(tmp_path, monkeypatch,
                                                    edge_args, rows, span_rows):
    # at 2 rows a span the equal shares fall inside runs, the cuts move to
    # run boundaries and some spans are empty: the bytes do not depend on it
    if rows == "sweep":
        result = sweep(*edge_args)
        assert any(result.n_skipped.values()) and np.any(result.rows["se"] == 0.0)
    elif rows == "hand-built":
        result = hand_built_result()
    else:
        result = sweep_module.SweepResult(rows=np.empty(0, ROW_DTYPE),
                                          runs=np.empty(0, RUN_DTYPE),
                                          k_grid=np.empty(0, np.int64),
                                          optima={}, n_skipped={})
    monkeypatch.setattr(sweep_module, "_SPAN_ROWS", span_rows)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(result, path)
    assert path.read_bytes() == reference_sweep_csv(expanded(result).tolist())


def test_package_attribute_is_the_sweep_module():
    # `import hexmimo.sweep as m` binds the package attribute, which the
    # function `sweep` must not shadow
    assert isinstance(sweep_module, types.ModuleType)
    assert sweep_module.sweep is sweep


def test_one_shot_iterators_give_the_same_sweep(edge_args):
    # the sweep walks the grid twice (count, then fill): it must not consume
    # an iterator in the first pass
    *grids, tables = edge_args[1:]
    listed = sweep(edge_args[0], *grids, tables)
    once = sweep(edge_args[0], *((v for v in grid) for grid in grids), tables)
    assert once.rows.tolist() == listed.rows.tolist()
    assert once.k_grid.tolist() == listed.k_grid.tolist()
    assert once.runs.tolist() == listed.runs.tolist()
    assert once.optima == listed.optima
    assert once.n_skipped == listed.n_skipped


def test_default_grids():
    grid = default_n_grid()
    assert grid[0] == 10 and grid[-1] == 10 ** 4
    assert grid == sorted(set(grid))
    assert 25 <= len(grid) <= 30
    assert default_k_grid(1000) == range(1, 501)
    # a cap slices the counts without listing all T/2 of them
    assert default_k_grid(10 ** 12)[:3] == range(1, 4)


def test_every_row_is_feasible(small_sweep):
    rows = expanded(small_sweep)
    pilots = rows["beta"] * rows["K"]
    assert np.all(pilots <= 1000)
    zf = rows["scheme"] == Scheme.PZFC.value
    assert np.all(rows["N"][zf] > pilots[zf])
    assert np.all(rows["se"] >= 0.0)


def test_optima_are_slice_maxima(small_sweep):
    rows = expanded(small_sweep)
    for (n, scheme, mode), best in small_sweep.optima.items():
        in_slice = ((rows["N"] == n) & (rows["scheme"] == scheme.value)
                    & (rows["mode"] == mode.value))
        assert in_slice[best]
        assert rows["se"][best] == rows["se"][in_slice].max()


def test_se_rows_increase_with_n(small_sweep):
    # for a fixed feasible (K, beta, scheme, mode), SE grows with N
    point = ["mode", "scheme", "beta", "K"]
    rows = np.sort(expanded(small_sweep), order=point + ["N"])
    same_point = np.ones(len(rows) - 1, dtype=bool)
    for field in point:
        same_point &= rows[field][1:] == rows[field][:-1]
    assert np.all(rows["se"][1:][same_point] > rows["se"][:-1][same_point])
    assert same_point.sum() > 50


def test_determinism(avg_table):
    tables = {AVG: avg_table}
    args = (template(), [32, 128], range(1, 9), [1, 3], [Scheme.MRC], [AVG], tables)
    first, second = sweep(*args), sweep(*args)
    assert np.array_equal(first.rows, second.rows)
    assert np.array_equal(first.runs, second.runs)


def test_optimal_schedule_lookup(small_sweep):
    k, beta, se = optimal_schedule(small_sweep, 256, Scheme.MRC, AVG)
    assert beta in (1, 3) and 1 <= k <= 12 and se > 0
    with pytest.raises(KeyError):
        optimal_schedule(small_sweep, 17, Scheme.MRC, AVG)


def test_empty_feasible_set(avg_table):
    # PZFC at N=2 with K >= 5 has no feasible point
    with pytest.raises(EmptyFeasibleSet):
        sweep(template(), [2], [5, 6], [1], [Scheme.PZFC], [AVG], {AVG: avg_table})


def test_skipped_points_are_counted(small_sweep):
    # at N=16 with K up to 12, PZFC skips every (K, beta) with beta*K >= 16
    assert small_sweep.n_skipped[(16, Scheme.PZFC, AVG)] > 0
    assert small_sweep.n_skipped[(1024, Scheme.PZFC, AVG)] == 0
    assert small_sweep.n_skipped[(16, Scheme.MRC, AVG)] == 0


def test_tie_break_prefers_fewer_users_then_lower_reuse():
    def pick(*candidates):  # (K, beta, SE) triples, each the last row of a run
        k, beta, se = map(np.array, zip(*candidates))
        runs = np.zeros(len(candidates), RUN_DTYPE)
        runs["beta"], runs["start"], runs["stop"] = beta, np.cumsum(k) - k, np.cumsum(k)
        rows = np.zeros(runs["stop"][-1], ROW_DTYPE)
        last = runs["stop"] - 1
        rows["se"][last] = se
        result = sweep_module.SweepResult(rows=rows, runs=runs,
                                          k_grid=np.arange(1, k.max() + 1),
                                          optima={}, n_skipped={})
        return candidates[last.tolist().index(_argmax(result, last))]

    assert pick((4, 1, 5.0), (3, 1, 5.0)) == (3, 1, 5.0)
    assert pick((3, 1, 5.0), (4, 1, 5.0)) == (3, 1, 5.0)
    assert pick((3, 3, 5.0), (3, 1, 5.0)) == (3, 1, 5.0)
    assert pick((3, 1, 5.0), (9, 7, 6.0)) == (9, 7, 6.0)
    assert pick((4, 1, 5.0), (3, 7, 5.0)) == (3, 7, 5.0)
    assert pick((7, 3, 0.0), (3, 7, 0.0)) == (3, 7, 0.0)  # B = T = 21: no data


def test_tie_break_in_full_sweep(avg_table):
    # T = 21 with K = 7: beta = 3 gives B = T, hence SE = 0, and beta = 7 is
    # infeasible (B = 49 > T); a slice whose only point has SE = 0 still has
    # that point as its optimum.  Ties at SE = 0 are picked in
    # test_tie_break_prefers_fewer_users_then_lower_reuse.
    result = sweep(template(t_block=21), [64], [7], [3, 7], [Scheme.MRC], [AVG],
                   {AVG: avg_table})
    k, beta, se = optimal_schedule(result, 64, Scheme.MRC, AVG)
    assert (k, beta, se) == (7, 3, 0.0)


def test_csv_outputs(tmp_path, small_sweep):
    sweep_path = tmp_path / "sweep.csv"
    optima_path = tmp_path / "optima.csv"
    write_sweep_csv(small_sweep, sweep_path)
    write_optima_csv(small_sweep, optima_path)

    lines = sweep_path.read_text().splitlines()
    assert lines[0] == "N,K,beta,scheme,mode,sinr,se"
    assert len(lines) == len(small_sweep.rows) + 1
    n, k, beta, scheme, mode, sinr, se = lines[1].split(",")
    assert scheme in ("mrc", "pzfc") and mode in ("avg", "worst")
    row = small_sweep.rows[0]
    assert float(sinr) == row["sinr"] and float(se) == row["se"]  # full precision

    lines = optima_path.read_text().splitlines()
    assert lines[0] == "N,scheme,mode,K_star,beta_star,sinr,se"
    assert len(lines) == len(small_sweep.optima) + 1


def test_optimum_stays_below_asymptotic_ceiling(small_sweep, avg_table):
    # finite-N SE at the optimum never exceeds the large-N SE of the same
    # (K, beta) schedule
    from hexmimo.spectral import asymptotic_se

    for scheme in (Scheme.MRC, Scheme.PZFC):
        k, beta, se = optimal_schedule(small_sweep, 1024, scheme, AVG)
        ceiling = asymptotic_se(avg_table, k, beta, 1000).se_per_cell
        assert se < ceiling


def test_sweep_reaches_the_large_n_schedule(avg_table, worst_table):
    # at N = 1e9 only pilot contamination limits the SINR: every slice's
    # optimum is the asymptotic schedule K* ~ T / (2 beta) at the beta whose
    # contamination-limited SE T / (4 beta) log2(1 + SINR_lim) is largest
    # ((167, 3) in average mode, (125, 4) in worst-case mode), and its SE
    # is that limit to within 0.1 %
    t_block, betas = 1000, [1, 3, 4, 7]
    tables = {AVG: avg_table, WORST: worst_table}
    n_grid = default_n_grid(10, 10 ** 9)
    result = sweep(template(t_block), n_grid, default_k_grid(t_block), betas,
                   [Scheme.MRC, Scheme.PZFC], [AVG, WORST], tables)
    for mode, table in tables.items():
        se_limit = {beta: t_block / (4 * beta)
                    * math.log2(1 + asymptotic_sinr(table, beta)) for beta in betas}
        beta_lim = max(se_limit, key=se_limit.get)
        for scheme in (Scheme.MRC, Scheme.PZFC):
            k, beta, se = optimal_schedule(result, n_grid[-1], scheme, mode)
            assert beta == beta_lim and k in kstar_asymptotic(t_block, beta_lim)
            assert (1 - 1e-3) * se_limit[beta_lim] < se <= se_limit[beta_lim]


def test_mrc_schedules_at_least_as_many_users(avg_table):
    # passive combining compensates low per-user SE with many users; the
    # ordering holds up to the near-asymptotic regime where both approach T/2
    result = sweep(template(), [64, 256, 1024], range(1, 201), [1, 3],
                   [Scheme.MRC, Scheme.PZFC], [AVG], {AVG: avg_table})
    for n in (64, 256, 1024):
        k_m, _, _ = optimal_schedule(result, n, Scheme.MRC, AVG)
        k_z, _, _ = optimal_schedule(result, n, Scheme.PZFC, AVG)
        assert k_m >= k_z


def test_rows_cover_declared_grid(small_sweep):
    runs = small_sweep.runs
    assert set(runs["N"].tolist()) == {16, 64, 256, 1024}
    assert set(runs["mode"].tolist()) == {AVG.value, WORST.value}
    assert set(runs["scheme"].tolist()) == {Scheme.MRC.value, Scheme.PZFC.value}
    assert set(runs["beta"].tolist()) == {1, 3}


def test_columnar_sweep_equals_scalar_loop(edge_args):
    # every value of the columnar sweep, expanded through its runs, must
    # match the literal per-point loop exactly
    result = sweep(*edge_args)
    points, optima, skipped = scalar_sweep(*edge_args)
    rows = expanded(result).tolist()
    assert rows == points
    assert {key: rows[i] for key, i in result.optima.items()} == optima
    assert result.n_skipped == skipped
    assert sum(p[6] == 0.0 for p in points) > 1 and sum(skipped.values()) > 0
    assert all(type(p[5]) is float and type(p[6]) is float for p in points)


def test_run_table_tiles_the_rows(edge_args, small_sweep):
    assert ROW_DTYPE.itemsize == 16  # SINR and SE; K is implied by the run
    schemes, modes = edge_args[4:6]
    cases = [(sweep(*edge_args), modes, schemes),
             (small_sweep, [AVG, WORST], [Scheme.MRC, Scheme.PZFC])]
    for result, modes, schemes in cases:
        runs = result.runs
        # sweep order: mode, N, scheme, beta; modes and schemes as the caller gave them
        order = [(modes.index(InterferenceMode(m)), n, schemes.index(Scheme(s)), b)
                 for m, n, s, b, _, _ in runs.tolist()]
        assert order == sorted(set(order))
        assert np.all(runs["stop"] > runs["start"])
        assert runs["start"][0] == 0 and runs["stop"][-1] == len(result.rows)
        assert np.array_equal(runs["start"][1:], runs["stop"][:-1])
        assert np.all(np.diff(result.k_grid) > 0)
        # a run's K: the prefix of k_grid of its length
        for start, stop in runs[["start", "stop"]].tolist():
            assert np.array_equal(result.n_users(np.arange(start, stop)),
                                  result.k_grid[:stop - start])


@pytest.mark.parametrize("grid, span_rows", [("large", None), ("edge", 7)])
def test_point_calls_take_at_most_a_span(monkeypatch, large_args, edge_args,
                                         grid, span_rows):
    # every SINR and SE call gets at most _SPAN_ROWS points, and the calls of
    # each (mode, scheme, beta) cover its rows once, in row order; at 7 rows
    # a span the pieces cut across antenna counts and runs
    args = large_args if grid == "large" else edge_args
    if span_rows is not None:
        monkeypatch.setattr(sweep_module, "_SPAN_ROWS", span_rows)
    span = sweep_module._SPAN_ROWS
    point_calls, se_sizes = [], []

    def recording(scheme, from_sums):
        def wrapper(sums, n, k, inv_snr):
            value = from_sums(sums, n, k, inv_snr)
            point_calls.append((scheme, sums, n, k, value))
            return value
        return wrapper

    def se_recording(sinr, *rest):
        se_sizes.append(np.size(sinr))
        return se_from_sinr(sinr, *rest)

    monkeypatch.setattr(sweep_module, "mrc_sinr_from_sums",
                        recording(Scheme.MRC, mrc_sinr_from_sums))
    monkeypatch.setattr(sweep_module, "pzfc_sinr_from_sums",
                        recording(Scheme.PZFC, pzfc_sinr_from_sums))
    monkeypatch.setattr(sweep_module, "se_from_sinr", se_recording)
    result = sweep(*args)

    assert max(se_sizes) <= span and sum(se_sizes) == len(result.rows)
    assert max(np.size(call[2]) for call in point_calls) <= span
    if grid == "large":
        assert len(result.rows) == 417152
    *_, betas, schemes, modes, tables = args
    mode_beta = {CopilotSums.from_table(tables[mode], beta): (mode, beta)
                 for mode in modes for beta in betas}
    points = expanded(result)
    for mode in modes:
        for scheme in schemes:
            for beta in betas:
                calls = [call[2:] for call in point_calls
                         if (call[0], *mode_beta[call[1]]) == (scheme, mode, beta)]
                assert calls
                mine = ((points["mode"] == mode.value) & (points["scheme"] == scheme.value)
                        & (points["beta"] == beta))
                for name, values in zip(("N", "K", "sinr"), zip(*calls)):
                    assert np.array_equal(np.concatenate(values), points[name][mine])


def test_sweep_temporaries_stay_within_a_span(monkeypatch, large_args):
    # at 2^10 points a piece the sweep allocates little besides its two
    # tables, whatever the grid (evaluating each (mode, scheme, beta) whole,
    # up to 60,000 points at once, took 5.4 MB more on this grid)
    monkeypatch.setattr(sweep_module, "_SPAN_ROWS", 1 << 10)
    tracemalloc.start()
    try:
        result = sweep(*large_args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= result.rows.nbytes + result.runs.nbytes + (1 << 20)


def test_sweep_and_optima_follow_the_order_contract(tmp_path, edge_args):
    # sweep.csv follows the caller's mode and scheme order; optima.csv is
    # sorted by (mode, N, scheme) whatever that order
    config, n_grid, k_grid, betas, _, _, tables = edge_args
    args = (config, n_grid, k_grid, betas, [Scheme.PZFC, Scheme.MRC], [WORST, AVG], tables)
    points, optima, _ = scalar_sweep(*args)
    result = sweep(*args)
    write_sweep_csv(result, tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_bytes() == reference_sweep_csv(points)
    write_optima_csv(result, tmp_path / "optima.csv")
    assert (tmp_path / "optima.csv").read_bytes() == reference_optima_csv(optima)
    assert points[0][3:5] == ("pzfc", "worst")


def test_se_from_sinr_is_math_log2_bit_for_bit(avg_table):
    # with K = 1 and no pilots, the SE is log2(1 + SINR) itself: it must be
    # math.log2's value on every element of a real sweep column; np.log2
    # differs from it in the last bit on some of these SINRs where numpy
    # uses a vectorized log2 (AVX-512 builds)
    result = sweep(template(2000), default_n_grid(n_points=60), default_k_grid(2000),
                   [1, 3, 4, 7], [Scheme.MRC, Scheme.PZFC], [AVG], {AVG: avg_table})
    sinrs = result.rows["sinr"]
    assert len(sinrs) > 10 ** 5
    se = se_from_sinr(sinrs, 1, 0, 2000).se_per_cell
    assert se.tolist() == [math.log2(1.0 + x) for x in sinrs.tolist()]
    # a 2-D call keeps each value in its place
    grid = sinrs[-8202:].reshape(2, -1)
    assert se_from_sinr(grid, 1, 0, 2000).se_per_cell.tolist() == [
        [math.log2(1.0 + x) for x in row] for row in grid.tolist()]
