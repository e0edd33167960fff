import numpy as np
import pytest

from hexmimo.config import InterferenceMode, NetworkConfig
from hexmimo.errors import EmptyFeasibleSet
from hexmimo.pilots import PilotPlan
from hexmimo.spectral import Scheme, SinrInputs, se_from_sinr, sinr
from hexmimo.sweep import (ROW_DTYPE, _argmax, default_k_grid, default_n_grid,
                           optimal_schedule, sweep, write_optima_csv,
                           write_sweep_csv)

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


def test_default_grids():
    grid = default_n_grid()
    assert grid[0] == 10 and grid[-1] == 10 ** 4
    assert grid == sorted(set(grid))
    assert 25 <= len(grid) <= 30
    assert default_k_grid(1000) == list(range(1, 501))


def test_every_row_is_feasible(small_sweep):
    rows = small_sweep.rows
    pilots = rows["beta"] * rows["K"]
    assert np.all(pilots <= 1000)
    zf = rows["scheme"] == Scheme.PZFC.value
    assert np.all(rows["N"][zf] > pilots[zf])
    assert np.all(rows["se"] >= 0.0)


def test_optima_are_slice_maxima(small_sweep):
    rows = small_sweep.rows
    for (n, scheme, mode), best in small_sweep.optima.items():
        in_slice = ((rows["N"] == n) & (rows["scheme"] == scheme.value)
                    & (rows["mode"] == mode.value))
        assert in_slice[best]
        assert rows["se"][best] == rows["se"][in_slice].max()


def test_se_rows_increase_with_n(small_sweep):
    # for a fixed feasible (K, beta, scheme, mode), SE grows with N
    point = ["mode", "scheme", "beta", "K"]
    rows = np.sort(small_sweep.rows, order=point + ["N"])
    same_point = np.ones(len(rows) - 1, dtype=bool)
    for field in point:
        same_point &= rows[field][1:] == rows[field][:-1]
    assert np.all(rows["se"][1:][same_point] > rows["se"][:-1][same_point])
    assert same_point.sum() > 50


def test_determinism(avg_table):
    tables = {AVG: avg_table}
    args = (template(), [32, 128], range(1, 9), [1, 3], [Scheme.MRC], [AVG], tables)
    assert np.array_equal(sweep(*args).rows, sweep(*args).rows)


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
        rows["K"], rows["beta"], rows["se"] = zip(*candidates)
        return candidates[_argmax(rows)]

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
    rows = small_sweep.rows
    assert set(rows["N"].tolist()) == {16, 64, 256, 1024}
    assert set(rows["mode"].tolist()) == {AVG.value, WORST.value}
    assert set(rows["scheme"].tolist()) == {Scheme.MRC.value, Scheme.PZFC.value}


def test_columnar_sweep_equals_scalar_loop(avg_table, worst_table):
    # the literal per-point loop: scalar sinr/se_from_sinr, max with the
    # tie-break key; every value must match the columnar sweep exactly.
    # At T = 21, (K, beta) = (21, 1), (7, 3) and (3, 7) fill the block with
    # pilots (SE = 0), and PZFC skips every beta * K >= N at N = 4, 8, 30.
    t_block, n_grid, k_grid, betas = 21, [4, 8, 30, 1000], range(1, 22), [1, 3, 7]
    tables = {AVG: avg_table, WORST: worst_table}
    schemes = [Scheme.MRC, Scheme.PZFC]
    result = sweep(template(t_block), n_grid, k_grid, betas, schemes,
                   [AVG, WORST], tables)
    rows, optima, skipped = [], {}, {}
    for mode in (AVG, WORST):
        for n in n_grid:
            for scheme in schemes:
                key = (n, scheme, mode)
                first, skipped[key] = len(rows), 0
                for beta in betas:
                    for k in k_grid:
                        if beta * k > t_block:
                            continue
                        if scheme is Scheme.PZFC and n <= beta * k:
                            skipped[key] += 1
                            continue
                        cfg = template(t_block).with_schedule(
                            n_antennas=n, n_users=k, reuse_factor=beta)
                        value = sinr(SinrInputs(cfg, tables[mode],
                                                PilotPlan(k, beta),
                                                scheme=scheme))
                        se = se_from_sinr(value, k, beta * k, t_block).se_per_cell
                        rows.append((n, k, beta, scheme.value, mode.value,
                                     value, se))
                optima[key] = max(rows[first:],
                                  key=lambda r: (r[6], -r[1], -r[2]))
    assert result.rows.tolist() == rows
    assert {key: result.rows[i].item() for key, i in result.optima.items()} == optima
    assert result.n_skipped == skipped
    assert sum(r[6] == 0.0 for r in rows) > 1 and sum(skipped.values()) > 0
    assert all(type(r[5]) is float and type(r[6]) is float for r in rows)
