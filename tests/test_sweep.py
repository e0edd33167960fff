import math
import os
import types
from dataclasses import replace

import numpy as np
import pytest

import hexmimo.spectral as spectral_module
import hexmimo.sweep as sweep_module
from hexmimo.config import InterferenceMode, NetworkConfig
from hexmimo.errors import EmptyFeasibleSet
from hexmimo.pilots import PilotPlan
from hexmimo.spectral import Scheme, SinrInputs, se_from_sinr, sinr
from hexmimo.sweep import (ROW_DTYPE, RUN_DTYPE, _argmax, default_k_grid,
                           default_n_grid, optimal_schedule, sweep,
                           write_optima_csv, write_sweep_csv)
from test_floatrepr import REPR_EDGES

AVG = InterferenceMode.AVERAGE
WORST = InterferenceMode.WORST_CASE


def template(t_block=1000):
    return NetworkConfig(n_antennas=100, n_users=10, coherence_block=t_block,
                         reuse_factor=1, snr_linear=10.0)


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


# one record per evaluated point, every field of sweep.csv
POINT_DTYPE = np.dtype([("N", np.int64), ("K", np.int64), ("beta", np.int64),
                        ("scheme", "U4"), ("mode", "U5"),
                        ("sinr", np.float64), ("se", np.float64)])


def expanded(result) -> np.ndarray:
    """`rows` with each run's constant fields repeated onto its rows."""
    lengths = result.runs["stop"] - result.runs["start"]
    points = np.empty(len(result.rows), POINT_DTYPE)
    for name in POINT_DTYPE.names:
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
                        cfg = replace(config, n_antennas=n, n_users=k,
                                      reuse_factor=beta)
                        value = sinr(SinrInputs(cfg, tables[mode],
                                                PilotPlan(k, beta),
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
    # and K from 1 to 19 digits
    runs = np.zeros(6, RUN_DTYPE)
    runs["mode"] = ["avg", "avg", "avg", "avg", "worst", "worst"]
    runs["N"] = [10, 10, 11, 11, 10, 10 ** 18]
    runs["scheme"] = ["mrc", "mrc", "mrc", "pzfc", "pzfc", "pzfc"]
    runs["beta"] = [1, 3, 3, 3, 3, 7]
    runs["start"] = [0, 2, 3, 4, 5, 8]
    runs["stop"] = [2, 3, 4, 5, 8, 8 + len(REPR_EDGES)]
    rows = np.zeros(8 + len(REPR_EDGES), ROW_DTYPE)
    rows["K"] = ([1, 2, 3, 1, 1, 1, 2, 3]
                 + [10 ** i - 1 for i in range(1, len(REPR_EDGES))] + [2 ** 63 - 1])
    rows["sinr"] = [0.0, math.inf, 1e-05, 1e16, 5e-324, 0.1 + 0.2, 2.5, 1e-300] + REPR_EDGES
    rows["se"] = [0.0, 1e16, 0.1 + 0.2, 5e-324, 1e-05, math.inf, 0.0, 123.456] + REPR_EDGES[::-1]
    return sweep_module.SweepResult(rows=rows, runs=runs, optima={}, n_skipped={})


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("rows", ["sweep", "hand-built", "empty"])
def test_sweep_csv_bytes_equal_the_per_row_formatter(tmp_path, monkeypatch,
                                                    edge_args, rows, cpus):
    # cpus = 1 formats in process; cpus = 4 on a pool of forked workers
    if rows == "sweep":
        result = sweep(*edge_args)
        assert any(result.n_skipped.values()) and np.any(result.rows["se"] == 0.0)
    elif rows == "hand-built":
        result = hand_built_result()
    else:
        result = sweep_module.SweepResult(rows=np.empty(0, ROW_DTYPE),
                                          runs=np.empty(0, RUN_DTYPE),
                                          optima={}, n_skipped={})
    monkeypatch.setattr(sweep_module, "_POOL_MIN_ROWS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
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
    def pick(*candidates):  # (K, beta, SE) triples
        rows = np.zeros(len(candidates), ROW_DTYPE)
        rows["K"], beta, rows["se"] = zip(*candidates)
        return candidates[_argmax(rows, np.array(beta))]

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
    from hexmimo.pilots import PilotPlan

    for scheme in (Scheme.MRC, Scheme.PZFC):
        k, beta, se = optimal_schedule(small_sweep, 1024, scheme, AVG)
        ceiling = asymptotic_se(avg_table, PilotPlan(k, beta), 1000).se_per_cell
        assert se < ceiling


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
    assert ROW_DTYPE.itemsize == 24
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
        for start, stop in runs[["start", "stop"]].tolist():  # K ascends within a run
            assert np.all(np.diff(result.rows["K"][start:stop]) > 0)


def test_sweep_and_optima_follow_the_order_contract(tmp_path, monkeypatch, edge_args):
    # sweep.csv follows the caller's mode and scheme order; optima.csv is
    # sorted by (mode, N, scheme) whatever that order
    config, n_grid, k_grid, betas, _, _, tables = edge_args
    args = (config, n_grid, k_grid, betas, [Scheme.PZFC, Scheme.MRC], [WORST, AVG], tables)
    points, optima, _ = scalar_sweep(*args)
    result = sweep(*args)
    for cpus in (1, 4):
        monkeypatch.setattr(sweep_module, "_POOL_MIN_ROWS", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
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
    assert len(sinrs) > 10 ** 5 > 10 * spectral_module._LOG2_CHUNK
    se = se_from_sinr(sinrs, 1, 0, 2000).se_per_cell
    assert se.tolist() == [math.log2(1.0 + x) for x in sinrs.tolist()]
    # a 2-D call whose last chunk is partial keeps each value in its place
    grid = sinrs[-2 * (spectral_module._LOG2_CHUNK + 5):].reshape(2, -1)
    assert se_from_sinr(grid, 1, 0, 2000).se_per_cell.tolist() == [
        [math.log2(1.0 + x) for x in row] for row in grid.tolist()]
