import math

import numpy as np
import pytest

from hexmimo.config import InterferenceMode, NetworkConfig
from hexmimo.errors import DomainError, InsufficientAntennas, PilotOverflow
from hexmimo.hexgrid import CellIndex
from hexmimo.linklevel import measure_sinr
from hexmimo.moments import MomentEntry, MomentTable
from hexmimo.pilots import Schedule
from hexmimo.spectral import (CopilotSums, Scheme, SinrInputs, asymptotic_se,
                              asymptotic_sinr, kstar_asymptotic,
                              mrc_sinr_from_sums, pzfc_sinr_from_sums,
                              se_from_sinr, se_per_cell, sinr)

from reference import (asymptotic_sinr_generic, cells_within_tier,
                       sinr_mrc_generic, sinr_pzfc_generic)


def synthetic_table(entries):
    return MomentTable(mode=InterferenceMode.AVERAGE, kappa=3.5, min_frac=0.14,
                       entries={CellIndex(*c): MomentEntry(*e)
                                for c, e in entries.items()})


SINGLE_CELL = synthetic_table({(0, 0): (1.0, 1.0)})


def make_inputs(table, n, k, beta, scheme=Scheme.MRC, snr=10.0):
    cfg = NetworkConfig(coherence_block=1000, snr_linear=snr)
    return SinrInputs(config=cfg, moments=table, schedule=Schedule(n, k, beta),
                      scheme=scheme)


def test_single_cell_mrc_closed_form():
    # isolated cell, K = B = 1: SINR = N / (1 + 1/snr)^2
    for n, snr in [(10, 10.0), (50, 10.0), (100, 1.0)]:
        inp = make_inputs(SINGLE_CELL, n, 1, 1, snr=snr)
        expected = n / (1.0 + 1.0 / snr) ** 2
        assert math.isclose(sinr(inp), expected, rel_tol=1e-12)


def test_single_cell_mrc_general_k():
    # isolated cell, K users on B = K pilots: N*B / ((K + 1/snr)(B + 1/snr))
    inp = make_inputs(SINGLE_CELL, 200, 5, 1)
    expected = 200 * 5 / ((5 + 0.1) * (5 + 0.1))
    assert math.isclose(sinr(inp), expected, rel_tol=1e-12)


def test_single_cell_pzfc_grows_linearly_in_array_margin():
    # K = B = 1 reduces to B(N - B) / ((1/snr)(K + B + 1/snr))
    vals = {}
    for n in (2, 11, 101):
        inp = make_inputs(SINGLE_CELL, n, 1, 1, scheme=Scheme.PZFC)
        expected = (n - 1) / (0.1 * (1 + 1 + 0.1))
        vals[n] = sinr(inp)
        assert math.isclose(vals[n], expected, rel_tol=1e-12)
    assert math.isclose((vals[101] - vals[11]) / (vals[11] - vals[2]), 10.0,
                        rel_tol=1e-12)


def test_pzfc_requires_antenna_margin():
    with pytest.raises(InsufficientAntennas):
        make_inputs(SINGLE_CELL, 4, 4, 1, scheme=Scheme.PZFC)


@pytest.mark.parametrize("from_sums", [mrc_sinr_from_sums, pzfc_sinr_from_sums])
def test_from_sums_is_elementwise_over_broadcast_n_and_k(avg_table, from_sums):
    sums = CopilotSums.from_table(avg_table, 3)
    n, k = np.array([[32], [100], [5000]]), np.array([1, 2, 7, 10])
    grid = from_sums(sums, n, k, 0.1)
    assert grid.tolist() == [[from_sums(sums, int(nn), int(kk), 0.1) for kk in k]
                             for nn in n[:, 0]]
    # paired (N, K) arrays, as the sweep passes them
    assert from_sums(sums, n[:, 0], k[:3], 0.1).tolist() == grid.diagonal().tolist()


def test_pzfc_from_sums_names_the_first_short_pair(avg_table):
    sums = CopilotSums.from_table(avg_table, 3)
    with pytest.raises(InsufficientAntennas, match=r"got N=12, B=12$"):
        pzfc_sinr_from_sums(sums, np.array([100, 12, 10]), np.array([5, 4, 4]), 0.1)


def test_zero_interference_reduces_to_single_cell():
    # cross-cell moments forced to ~0: multi-cell MRC collapses to the
    # isolated-cell closed form
    tiny = 1e-300
    table = synthetic_table({(0, 0): (1.0, 1.0),
                             (1, 0): (tiny, tiny),
                             (0, 1): (tiny, tiny)})
    inp = make_inputs(table, 64, 3, 1)
    expected = 64 * 3 / ((3 + 0.1) * (3 + 0.1))
    assert math.isclose(sinr(inp), expected, rel_tol=1e-9)


@pytest.mark.parametrize("beta", [1, 3, 4, 7])
@pytest.mark.parametrize("scheme", [Scheme.MRC, Scheme.PZFC])
def test_finite_n_converges_to_common_limit(avg_table, beta, scheme):
    # convergence is slower the weaker the contamination (large beta), so the
    # 1 %-at-1e6 check applies to the strongly contaminated reuse factors only
    k = 3
    limit = asymptotic_sinr(avg_table, beta)
    if beta <= 3:
        assert abs(sinr(make_inputs(avg_table, 10 ** 6, k, beta, scheme=scheme))
                   - limit) / limit < 1e-2
    assert abs(sinr(make_inputs(avg_table, 10 ** 9, k, beta, scheme=scheme))
               - limit) / limit < 1e-3


def test_mrc_and_pzfc_limits_agree(avg_table, worst_table):
    for table in (avg_table, worst_table):
        for beta in (1, 3):
            m = sinr(make_inputs(table, 10 ** 9, 4, beta))
            z = sinr(make_inputs(table, 10 ** 9, 4, beta, scheme=Scheme.PZFC))
            assert abs(m - z) / m < 1e-3


@pytest.mark.parametrize("beta,k", [(1, 1), (1, 3), (3, 2), (4, 2), (7, 1)])
def test_generic_equals_collapsed(avg_table, beta, k):
    table = avg_table.restricted(cells_within_tier(2))
    for n in (max(beta * k + 1, 8), 199):
        inp_m = make_inputs(table, n, k, beta)
        inp_z = make_inputs(table, n, k, beta, scheme=Scheme.PZFC)
        assert math.isclose(sinr(inp_m), sinr_mrc_generic(inp_m),
                            rel_tol=1e-12)
        assert math.isclose(sinr(inp_z), sinr_pzfc_generic(inp_z),
                            rel_tol=1e-12)
        assert math.isclose(asymptotic_sinr(table, beta),
                            asymptotic_sinr_generic(inp_m), rel_tol=1e-12)


def test_generic_sinr_is_user_independent(avg_table):
    inp = make_inputs(avg_table.restricted(cells_within_tier(1)), 64, 3, 3)
    values = {sinr_mrc_generic(inp, user=u) for u in (1, 2, 3)}
    assert len(values) == 1


def test_sinr_strictly_increasing_in_n(avg_table):
    for scheme in (Scheme.MRC, Scheme.PZFC):
        grid = [12, 30, 100, 316, 1000, 3162, 10000]
        vals = [sinr(make_inputs(avg_table, n, 2, 1, scheme=scheme)) for n in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_sinr_strictly_increasing_in_snr(avg_table):
    for scheme in (Scheme.MRC, Scheme.PZFC):
        vals = [sinr(make_inputs(avg_table, 128, 2, 1, scheme=scheme, snr=snr))
                for snr in (0.1, 1.0, 10.0, 100.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_active_rejection_wins_under_strong_interference(worst_table):
    # worst-case coupling, mid-size array: zero-forcing beats passive combining
    for k in (2, 10, 30):
        m = sinr(make_inputs(worst_table, 500, k, 1))
        z = sinr(make_inputs(worst_table, 500, k, 1, scheme=Scheme.PZFC))
        assert z > m


def test_asymptotic_se_argmax_is_kstar(avg_table):
    # the large-N SINR does not depend on K, so sweeping K through the
    # asymptotic SE must peak exactly at the closed-form schedule
    t_block = 1000
    for beta in (1, 3, 4, 7):
        best_k, best_se = None, -1.0
        for k in range(1, t_block // beta + 1):
            se = asymptotic_se(avg_table, k, beta, t_block).se_per_cell
            if se > best_se:
                best_k, best_se = k, se
        assert best_k in kstar_asymptotic(t_block, beta)


def test_asymptotic_sinr_isolated_cell_is_infinite():
    assert asymptotic_sinr(SINGLE_CELL, 1) == math.inf


def test_asymptotic_sinr_two_copilot_cells():
    table = synthetic_table({(0, 0): (1.0, 1.0),
                             (1, 0): (0.4, 0.25),
                             (0, 1): (0.4, 0.25)})
    assert math.isclose(asymptotic_sinr(table, 1), 2.0,
                        rel_tol=1e-12)


def test_se_per_cell_arithmetic():
    res = se_from_sinr(1.0, 1, 2, 1000)
    assert math.isclose(res.se_per_cell, 0.998, rel_tol=1e-12)
    assert math.isclose(res.prelog, 0.998, rel_tol=1e-12)


def test_se_from_sinr_on_arrays_equals_the_scalar_formula():
    # elementwise over arrays, bit for bit what math.log2 gives per point
    rng = np.random.default_rng(3)
    sinr = rng.exponential(5.0, 4000)
    k = rng.integers(1, 200, 4000)
    pilots = k * rng.choice([1, 3, 4, 7], 4000)
    res = se_from_sinr(sinr, k, pilots, 1000)
    expected = [0.0 if b >= 1000 else kk * (1.0 - b / 1000) * math.log2(1.0 + s)
                for s, kk, b in zip(sinr.tolist(), k.tolist(), pilots.tolist())]
    assert res.se_per_cell.tolist() == expected
    assert res.prelog.tolist() == [max(1.0 - b / 1000, 0.0) for b in pilots.tolist()]


def test_se_zero_when_block_is_all_pilots():
    res = se_from_sinr(37.5, 10, 1000, 1000)
    assert res.se_per_cell == 0.0 and res.prelog == 0.0


def test_se_propagates_infinite_sinr():
    res = se_from_sinr(math.inf, 2, 2, 1000)
    assert res.se_per_cell == math.inf


def test_se_per_cell_consistent_with_sinr(avg_table):
    inp = make_inputs(avg_table, 128, 4, 3)
    res = se_per_cell(inp)
    assert math.isclose(res.se_per_cell,
                        4 * (1 - 12 / 1000) * math.log2(1 + res.sinr),
                        rel_tol=1e-12)


def test_asymptotic_se_closed_form_structure(avg_table):
    k, beta, t_block = 166, 3, 1000
    res = asymptotic_se(avg_table, k, beta, t_block)
    sums = CopilotSums.from_table(avg_table, beta)
    expected = k * (1 - k * beta / t_block) * math.log2(1 + 1 / sums.mu2_others)
    assert math.isclose(res.se_per_cell, expected, rel_tol=1e-12)
    for bad_k in (0, -3):  # no K users to schedule
        with pytest.raises(DomainError):
            asymptotic_se(avg_table, bad_k, beta, t_block)


def test_kstar_examples():
    assert kstar_asymptotic(1000, 1) == {500}
    assert kstar_asymptotic(1000, 3) == {167}
    assert kstar_asymptotic(1000, 3) <= {166, 167}
    assert kstar_asymptotic(4, 2) == {1}


def test_kstar_matches_exhaustive_argmax():
    rng = np.random.default_rng(17)
    for _ in range(60):
        beta = int(rng.integers(1, 9))
        t_block = int(rng.integers(2 * beta, 3000))
        scores = {k: k * (t_block - k * beta)
                  for k in range(1, t_block // beta + 1)}
        best = max(scores.values())
        argmax = {k for k, s in scores.items() if s == best}
        assert kstar_asymptotic(t_block, beta) == argmax


def test_kstar_discrete_concavity():
    for t_block, beta in [(1000, 1), (1000, 3), (500, 7), (77, 4)]:
        for k in kstar_asymptotic(t_block, beta):
            f = lambda kk: kk * (1 - kk * beta / t_block)
            assert f(k) >= f(k - 1) and f(k) >= f(k + 1)


def test_kstar_domain_error():
    with pytest.raises(DomainError):
        kstar_asymptotic(5, 3)


def test_inputs_validation_errors(avg_table):
    cfg = NetworkConfig(1000, 10.0)
    with pytest.raises(PilotOverflow):
        SinrInputs(NetworkConfig(8, 10.0), avg_table, Schedule(64, 3, 3))  # B > T
    with pytest.raises(InsufficientAntennas):
        SinrInputs(cfg, avg_table, Schedule(9, 3, 3), scheme=Scheme.PZFC)  # N <= B
    with pytest.raises(DomainError, match="own cell"):
        avg_table.restricted(((1, 0),))  # own cell missing
    with pytest.raises(DomainError, match="does not cover"):
        avg_table.restricted(((0, 0), (40, 40)))  # not covered


def test_scheme_must_be_a_scheme(avg_table):
    # a string is not read as the member of that name (nor, as it once was,
    # as MRC), and a call that still passes a tier set before the scheme
    # puts the tier set where the scheme is
    cfg = NetworkConfig(1000, 10.0)
    for scheme in ("pzfc", "mrc", tuple(cells_within_tier(1))):
        with pytest.raises(DomainError, match="scheme must be a Scheme"):
            SinrInputs(cfg, avg_table, Schedule(64, 3, 3), scheme)


def test_repeated_cell_in_tier_set_is_rejected_everywhere(avg_table):
    # a repeated cell would be counted twice by the moment sums
    cfg = NetworkConfig(1000, 10.0)
    # (a subset of cells reaches the closed forms only as a restricted table)
    repeated = ((0, 0), (1, 0), (1, 0))
    with pytest.raises(DomainError, match="duplicate"):
        avg_table.restricted(repeated)
    with pytest.raises(DomainError, match="duplicate"):
        measure_sinr(cfg, Schedule(64, 3, 3), repeated, InterferenceMode.AVERAGE,
                     Scheme.MRC, 2, np.random.default_rng(0))


@pytest.mark.parametrize("beta", [1, 3, 4, 7])
@pytest.mark.parametrize("scheme", [Scheme.MRC, Scheme.PZFC])
def test_sinr_does_not_depend_on_tier_set_order(avg_table, beta, scheme):
    # the moment sums run in (tier, index) order whatever order the caller
    # lists the cells in, so a shuffled tier set gives the same bits
    cells = cells_within_tier(3)
    expected = sinr(make_inputs(avg_table.restricted(cells), 256, 5, beta, scheme))
    rng = np.random.default_rng(5)
    for _ in range(20):
        shuffled = [cells[i] for i in rng.permutation(len(cells))]
        assert sinr(make_inputs(avg_table.restricted(shuffled), 256, 5, beta,
                                scheme)) == expected
