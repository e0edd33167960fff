import dataclasses
import math

import numpy as np
import pytest

from hexmimo.config import InterferenceMode, NetworkConfig, Schedule, db_to_linear
from hexmimo.errors import DomainError, PilotOverflow
from hexmimo.hexgrid import (CellIndex, bs_position, reuse_group, sorted_tier_set,
                             worst_case_positions)
from hexmimo import linklevel
from hexmimo.cli import _validation_fixtures
from hexmimo.linklevel import _layout, _pilot_sums, measure_sinr
from hexmimo.moments import build_table
from hexmimo.spectral import Scheme, SinrInputs, sinr
from hexmimo.sweep import default_k_grid, optimal_schedule, sweep
from scipy import stats

from reference import (N_BATCHES, RankDeficient, Realization, _complex_normal,
                       _distance_fields, _draw_positions, _pinned_positions,
                       _psi, _user_layout, batched_measure, cells_within_tier,
                       combine, dft_pilot_matrix, estimate_book,
                       estimation_error_scale, generate, lmmse_estimate,
                       lmmse_estimate_kron, measure_estimation_mse,
                       sampled_measured, xi_measure_sinr)

AVG = InterferenceMode.AVERAGE
WORST = InterferenceMode.WORST_CASE
TIER1 = tuple(cells_within_tier(1))


def make_config(snr=10.0):
    return NetworkConfig(coherence_block=1000, snr_linear=snr)


@pytest.mark.parametrize("b", [1, 2, 4, 6])
def test_pilot_matrix_orthogonality(b):
    v = dft_pilot_matrix(b)
    assert np.allclose(np.abs(v), 1.0, atol=1e-12)
    assert np.allclose(v.conj().T @ v, b * np.eye(b), atol=1e-10)


def test_effective_channel_gain_is_n_rho():
    # statistics-inverting power control: E{p ||h||^2} = N * rho for every UE
    cfg = make_config()
    schedule = Schedule(8, 2, 1)
    rng = np.random.default_rng(3)
    gains = []
    for _ in range(3000):
        real = generate(cfg, schedule, TIER1, AVG, rng)
        u = real.user_index(CellIndex(0, 0), 1)
        gains.append(real.tx_power[u] * np.sum(np.abs(real.channel[:, u]) ** 2))
    gains = np.asarray(gains)
    se = gains.std(ddof=1) / math.sqrt(len(gains))
    assert abs(gains.mean() - 8 * 10.0) < 3 * se


def test_noise_variance_matches_model():
    cfg = make_config()
    schedule = Schedule(16, 2, 1)
    rng = np.random.default_rng(4)
    samples = []
    for _ in range(300):
        real = generate(cfg, schedule, TIER1, AVG, rng)
        pilot_rows = real.pilot_matrix.conj().T[real.pilot_col]
        noise = real.y_pilot - real.h_eff @ pilot_rows
        samples.append(np.abs(noise) ** 2)
    samples = np.concatenate([s.ravel() for s in samples])
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - 1.0) < 3 * se  # sigma^2 normalized to 1


def test_generate_realization_layout():
    cfg = make_config()
    schedule = Schedule(4, 3, 3)
    real = generate(cfg, schedule, TIER1, AVG, np.random.default_rng(0))
    assert real.cells[0] == CellIndex(0, 0)
    assert real.h_eff.shape == (4, 7 * 3)
    assert real.psi.shape == (9,)
    # own-cell users have unit variance ratio exactly
    for k in range(1, 4):
        assert real.d_ratio[real.user_index(CellIndex(0, 0), k)] == 1.0
    # pilot columns within one cell are distinct (intra-cell orthogonality)
    for ci in range(7):
        cols = real.pilot_col[ci * 3:(ci + 1) * 3]
        assert len(set(cols.tolist())) == 3


@pytest.mark.parametrize("beta", [1, 3, 4, 7])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_layout_is_the_per_user_rule(worst_table, beta, k):
    # the oracle works on a (cell, user) grid: one center and one reuse group
    # per cell, and the pilot sums are one sum over the cells of each group.
    # They equal the per-user rule, each user summed into its own pilot
    # column, on the tier-1 cells, the sweep's worst-case tier set, a set
    # with gaps and the own cell alone (at beta > 1 a group has no cell)
    schedule = Schedule(64, k, beta)
    rng = np.random.default_rng(100 * beta + k)
    for cells in (TIER1, worst_table.offsets,
                  sorted_tier_set([(0, 0), (2, -1), (-3, 1), (1, 2)]),
                  sorted_tier_set([(0, 0)])):
        centers, groups = _layout(cells, beta)
        np.testing.assert_array_equal(centers, [bs_position(c, 1.0) for c in cells])
        np.testing.assert_array_equal(groups, [reuse_group(c, beta) for c in cells])
        assert groups.dtype == np.intp
        d = rng.uniform(0.01, 2.0, (3, len(cells), k))
        _, cols = _user_layout(schedule, cells)
        per_user = np.zeros((3, schedule.pilot_len))
        for u, col in enumerate(cols):
            per_user[:, col] += d.reshape(3, -1)[:, u]
        # positive terms in another order: at most C - 1 roundings apart
        np.testing.assert_allclose(
            _pilot_sums(d, groups, beta).reshape(3, -1), per_user,
            rtol=len(cells) * np.finfo(float).eps, atol=0)


def test_generate_rejects_inconsistent_inputs():
    cfg = make_config()
    with pytest.raises(PilotOverflow):  # B = 1200 > T = 1000
        generate(cfg, Schedule(4, 400, 3), TIER1, AVG, np.random.default_rng(0))
    for cells in ([(1, 0), (0, 1)], []):  # no victim cell (0, 0)
        with pytest.raises(DomainError):
            generate(cfg, Schedule(4, 2, 1), cells, AVG, np.random.default_rng(0))
    with pytest.raises(DomainError):
        measure_sinr(cfg, Schedule(4, 2, 1), [], AVG, Scheme.MRC, 2,
                     np.random.default_rng(0))
    with pytest.raises(DomainError, match="a standard error needs two realizations"):
        measure_sinr(cfg, Schedule(4, 2, 1), TIER1, AVG, Scheme.MRC, 1,
                     np.random.default_rng(0))


def test_worst_mode_pins_interferers_to_cell_edge():
    cfg = make_config()
    schedule = Schedule(4, 2, 1)
    real = generate(cfg, schedule, TIER1, WORST, np.random.default_rng(1))
    others = [cell for cell in TIER1 if cell != (0, 0)]
    for cell, expected in zip(others, worst_case_positions(others)):
        for k in (1, 2):
            u = real.user_index(cell, k)
            assert np.allclose(real.positions[u], expected, atol=1e-12)


def test_kron_form_equals_scalar_form():
    # N=4, B=2 (real pilots) and B=4 (complex pilots, exercises conjugation)
    for k, beta in [(2, 1), (1, 4)]:
        cfg = make_config()
        schedule = Schedule(4, k, beta)
        real = generate(cfg, schedule, TIER1, AVG, np.random.default_rng(8))
        for cell in real.cells[:2]:
            for user in range(1, k + 1):
                a = lmmse_estimate(real, cell, user)
                b = lmmse_estimate_kron(real, cell, user)
                assert np.allclose(a, b, atol=1e-12 * np.linalg.norm(a))


def test_estimate_book_spans_the_estimates():
    cfg = make_config()
    schedule = Schedule(8, 2, 3)
    real = generate(cfg, schedule, TIER1, AVG, np.random.default_rng(9))
    book = estimate_book(real)
    for cell in real.cells:
        for user in (1, 2):
            u = real.user_index(cell, user)
            expected = real.d_ratio[u] * book[:, real.pilot_col[u]]
            assert np.allclose(lmmse_estimate(real, cell, user), expected,
                               atol=1e-14)


def test_copilot_estimates_exactly_proportional():
    # two UEs sharing a pilot differ only by the deterministic variance ratio
    cfg = make_config()
    schedule = Schedule(8, 2, 1)
    real = generate(cfg, schedule, TIER1, AVG, np.random.default_rng(10))
    own = lmmse_estimate(real, CellIndex(0, 0), 1)
    for cell in real.cells[1:]:
        u = real.user_index(cell, 1)
        other = lmmse_estimate(real, cell, 1)
        np.testing.assert_array_equal(other, real.d_ratio[u] * own)


def test_estimator_linearity():
    cfg = make_config()
    schedule = Schedule(8, 2, 1)
    real = generate(cfg, schedule, TIER1, AVG, np.random.default_rng(11))
    scale = 2.0 - 3.0j
    scaled = dataclasses.replace(real, y_pilot=scale * real.y_pilot)
    a = lmmse_estimate(real, CellIndex(1, 0), 2)
    b = lmmse_estimate(scaled, CellIndex(1, 0), 2)
    np.testing.assert_allclose(b, scale * a, rtol=1e-13)


def test_noiseless_single_user_estimate_is_exact():
    cfg = make_config(snr=1e12)
    schedule = Schedule(16, 1, 1)
    real = generate(cfg, schedule, [(0, 0)], AVG, np.random.default_rng(12))
    pilot_rows = real.pilot_matrix.conj().T[real.pilot_col]
    clean = dataclasses.replace(real, y_pilot=real.h_eff @ pilot_rows,
                                psi=real.psi)
    est = lmmse_estimate(clean, CellIndex(0, 0), 1)
    np.testing.assert_allclose(est, real.h_eff[:, 0], rtol=1e-10)


def test_empirical_mse_matches_error_covariance():
    # fixed positions, 4000 channel/noise redraws per fixture
    rng = np.random.default_rng(13)
    for k, beta, n in [(2, 1, 8), (1, 3, 12)]:
        cfg = make_config()
        schedule = Schedule(n, k, beta)
        real = generate(cfg, schedule, TIER1, AVG, rng)
        for cell in (CellIndex(0, 0), CellIndex(1, 0)):
            mse, se = measure_estimation_mse(real, 4000, rng, cell, 1)
            predicted = n * estimation_error_scale(real, cell, 1)
            assert abs(mse - predicted) < 3 * se


def test_lmmse_orthogonality_principle():
    cfg = make_config()
    schedule = Schedule(8, 2, 1)
    rng = np.random.default_rng(14)
    real0 = generate(cfg, schedule, TIER1, AVG, rng)
    inner = []
    norms = []
    for _ in range(4000):
        real = generate_fixed(real0, rng)  # same positions, fresh channels
        est = lmmse_estimate(real, CellIndex(0, 0), 1)
        err = real.h_eff[:, 0] - est
        inner.append(np.vdot(est, err))
        norms.append(np.vdot(est, est).real)
    inner = np.asarray(inner)
    se = inner.std(ddof=1) / math.sqrt(len(inner))
    assert abs(inner.mean()) < 4 * se
    assert abs(inner.mean()) < 0.01 * np.mean(norms)


def generate_fixed(template: Realization, rng) -> Realization:
    """Redraw channels and noise keeping the template's positions."""
    cfg = template.config
    n = template.schedule.n_antennas
    n_users = len(template.pilot_col)
    b = template.schedule.pilot_len
    var = cfg.snr_linear * template.d_ratio
    h_eff = np.sqrt(var / 2.0) * (rng.standard_normal((n, n_users))
                                  + 1j * rng.standard_normal((n, n_users)))
    noise = math.sqrt(0.5) * (rng.standard_normal((n, b))
                              + 1j * rng.standard_normal((n, b)))
    pilot_rows = template.pilot_matrix.conj().T[template.pilot_col]
    return dataclasses.replace(template, h_eff=h_eff,
                               channel=h_eff / np.sqrt(template.tx_power),
                               y_pilot=h_eff @ pilot_rows + noise)


def test_pzfc_unit_response_and_suppression():
    cfg = make_config()
    schedule = Schedule(32, 2, 1)
    real = generate(cfg, schedule, TIER1, AVG, np.random.default_rng(15))
    book = estimate_book(real)
    i = real.pilot_col[real.user_index(CellIndex(0, 0), 1)]
    g = combine(real, Scheme.PZFC, 1)
    response = book.conj().T @ g
    expected = np.zeros(schedule.pilot_len)
    expected[i] = 1.0
    assert np.linalg.cond(book.conj().T @ book) < 1e8
    np.testing.assert_allclose(response, expected, atol=1e-10)


def test_mrc_with_single_pilot_is_estimated_channel():
    cfg = make_config()
    schedule = Schedule(16, 1, 1)
    real = generate(cfg, schedule, [(0, 0)], AVG, np.random.default_rng(16))
    g = combine(real, Scheme.MRC, 1)
    np.testing.assert_allclose(g, lmmse_estimate(real, CellIndex(0, 0), 1),
                               atol=1e-14)


def test_combine_rank_deficient():
    cfg = make_config()
    schedule = Schedule(4, 2, 1)
    real = generate(cfg, schedule, [(0, 0)], AVG, np.random.default_rng(17))
    # identical columns, and an all-zero book (undefined condition number)
    for degenerate in (np.ones((4, 2), dtype=complex),
                       np.zeros((4, 2), dtype=complex)):
        broken = dataclasses.replace(real, y_pilot=degenerate,
                                     pilot_matrix=np.eye(2, dtype=complex),
                                     psi=np.ones(2))
        with pytest.raises(RankDeficient):
            combine(broken, Scheme.PZFC, 1)


def test_measured_sinr_matches_closed_form_single_cell():
    # one cell: no position is drawn, so the estimate is the closed form
    from hexmimo.moments import MomentEntry, MomentTable

    cfg = make_config()
    schedule = Schedule(50, 1, 1)
    table = MomentTable(mode=AVG, kappa=3.5, min_frac=0.14,
                        entries={CellIndex(0, 0): MomentEntry(1., 1.)})
    analytic = sinr(SinrInputs(cfg, table.restricted(((0, 0),)), schedule))
    measured = measure_sinr(cfg, schedule, [(0, 0)], AVG, Scheme.MRC, 10000,
                            np.random.default_rng(18))
    assert measured.sinr == pytest.approx(analytic, rel=1e-12, abs=0)
    assert measured.std_error == 0.0
    assert set(measured.terms) == {"signal", "estimation_gap", "intra_cell",
                                   "inter_cell", "noise", "denominator"}
    assert measured.terms["intra_cell"] == 0.0  # single user


def test_measured_sinr_seven_cell_mrc(avg_table):
    cfg = make_config()
    schedule = Schedule(64, 2, 1)
    analytic = sinr(SinrInputs(cfg, avg_table.restricted(TIER1), schedule))
    measured = measure_sinr(cfg, schedule, TIER1, AVG, Scheme.MRC, 20000,
                            np.random.default_rng(19))
    assert abs(measured.sinr / analytic - 1.0) < 0.05


def test_measured_sinr_mrc_with_more_users_than_antennas(avg_table):
    # MRC needs no N > beta K: at N = 10 the sweep's average-mode MRC optimum
    # is K = 28, beta = 3 (84 pilots), and the closed form must hold there
    cfg = make_config()
    schedule = Schedule(10, 28, 3)
    analytic = sinr(SinrInputs(cfg, avg_table.restricted(TIER1), schedule))
    measured = measure_sinr(cfg, schedule, TIER1, AVG, Scheme.MRC, 4000,
                            np.random.default_rng(20))
    assert abs(measured.sinr - analytic) < 3 * measured.std_error


def test_measured_and_analytic_approach_limit_together(avg_table):
    # growing the array moves both the measurement and the closed form toward
    # the contamination limit, with their ratio staying at 1
    from hexmimo.spectral import asymptotic_sinr

    limit = asymptotic_sinr(avg_table.restricted(TIER1), 1)
    gaps = {}
    cfg = make_config()
    for n, n_real, seed in ((64, 12000, 22), (256, 8000, 23)):
        schedule = Schedule(n, 2, 1)
        analytic = sinr(SinrInputs(cfg, avg_table.restricted(TIER1), schedule))
        measured = measure_sinr(cfg, schedule, TIER1, AVG, Scheme.MRC, n_real,
                                np.random.default_rng(seed))
        assert abs(measured.sinr - analytic) < 4 * measured.std_error
        gaps[n] = limit - analytic
    assert 0 < gaps[256] < gaps[64]


def test_realization_scale_invariance_of_ratios():
    schedule = Schedule(4, 2, 1)
    ra = generate(make_config(), schedule, TIER1, AVG, np.random.default_rng(21))
    rb = generate(make_config(), schedule, TIER1, AVG, np.random.default_rng(21),
                  radius=250.0, pathloss_ref=7.3)
    np.testing.assert_allclose(ra.d_ratio, rb.d_ratio, rtol=1e-12)
    np.testing.assert_allclose(ra.positions * 250.0, rb.positions, rtol=1e-12)


def _gram_statistics(gram, n):
    """Per-sample statistics whose means are known for CN(0, I_n) columns:
    G_jj (mean n), (G_jj - n)^2 (mean n), Re/Im G_jk (mean 0) and |G_jk|^2
    (mean n) for j < k; plus the smallest eigenvalue, only compared."""
    j, k = np.triu_indices(gram.shape[-1], 1)
    diag = np.einsum("rjj->rj", gram).real
    off = gram[:, j, k]
    return {"diag": diag, "diag_var": (diag - n) ** 2, "off_re": off.real,
            "off_im": off.imag, "off_pow": np.abs(off) ** 2,
            "eig_min": np.linalg.eigvalsh(gram)[:, 0]}


def _span_coords(rng, n, out):
    """Fill `out`, of shape (m, d, p) with d = min(n, p), with the coordinates
    of p i.i.d. CN(0, I_n) vectors in an orthonormal basis of their span: the
    upper-trapezoidal Bartlett factor, sqrt(Gamma(n - j, 1)) on the 0-based
    diagonal j and CN(0, 1) above it.  Entries below the diagonal are never
    written, so `out` must hold zeros there.  Returns `out`."""
    m, d, p = out.shape
    for j in range(d):  # strictly upper entries only, row by row
        pairs = rng.standard_normal((m, p - j - 1, 2))
        pairs *= math.sqrt(0.5)
        out[:, j, j + 1:] = pairs.view(complex)[..., 0]
    diag = np.arange(d)
    out[:, diag, diag] = np.sqrt(rng.standard_gamma(n - diag, size=(m, d)))
    return out


def _assert_wishart_moments(coords, n, rng):
    """R^H R from Bartlett coordinates (m, d, p) against the same Gram from
    explicit N-dim CN(0, I_N) draws, and both against the known means."""
    m, _, p = coords.shape
    z = math.sqrt(0.5) * (rng.standard_normal((m, n, p))
                          + 1j * rng.standard_normal((m, n, p)))
    span = _gram_statistics(np.einsum("rdj,rdk->rjk", coords.conj(), coords), n)
    full = _gram_statistics(np.einsum("rdj,rdk->rjk", z.conj(), z), n)
    expected = {"diag": n, "diag_var": n, "off_re": 0.0, "off_im": 0.0,
                "off_pow": n}
    for name in span:
        mean_s, mean_f = span[name].mean(axis=0), full[name].mean(axis=0)
        se_s = span[name].std(axis=0, ddof=1) / math.sqrt(m)
        se_f = full[name].std(axis=0, ddof=1) / math.sqrt(m)
        assert np.all(np.abs(mean_s - mean_f) < 4 * np.hypot(se_s, se_f)), name
        if name in expected:
            assert np.all(np.abs(mean_s - expected[name]) < 4 * se_s), name
            assert np.all(np.abs(mean_f - expected[name]) < 4 * se_f), name


@pytest.mark.parametrize("n, p", [(8, 5), (3, 6)])
def test_span_coordinates_have_the_wishart_moments(n, p):
    # the test references' span draw, d = min(N, p) rows
    m = 40000
    rng = np.random.default_rng(30)
    coords = _span_coords(rng, n, np.zeros((m, min(n, p), p), dtype=complex))
    assert coords.shape == (m, min(n, p), p)
    assert not np.tril(coords, -1).any()
    _assert_wishart_moments(coords, n, rng)


def _bartlett_block(rng, n, m, q):
    """(m, q, q) upper-triangular complex Bartlett factors of q x q Wishart
    matrices with n >= q degrees of freedom: sqrt(Gamma(n - j, 1)) on the
    0-based diagonal j and CN(0, 1) above it."""
    out = np.zeros((m, q, q), dtype=complex)
    rows, cols = np.triu_indices(q, 1)
    out[:, rows, cols] = _complex_normal(rng, (m, rows.size))
    diag = np.arange(q)
    out[:, diag, diag] = np.sqrt(rng.standard_gamma(n - diag, size=(m, q)))
    return out


@pytest.mark.parametrize("n, q", [(8, 5), (6, 6), (9, 1)])
def test_bartlett_block_has_the_wishart_moments(n, q):
    # the q x q block of the Gram/solve reference, N >= q; q = 1 is MRC's
    # sqrt(Gamma(N, 1))
    rng = np.random.default_rng(33)
    block = _bartlett_block(rng, n, 40000, q)
    assert block.shape == (40000, q, q)
    assert not np.tril(block, -1).any()
    _assert_wishart_moments(block, n, rng)


def _explicit_samples(cfg, schedule, cells, mode, scheme, n_real, rng, **units):
    """Per-realization g^H h_own, sum_u |g^H h_u|^2 and ||g||^2 from explicit
    N-dim `generate` (`units`: its radius and pathloss_ref) + `combine`, with
    measure_sinr's combiner scale convention (MRC: the raw pilot
    correlation, psi times the estimate)."""
    s1 = np.empty(n_real, dtype=complex)
    power = np.empty(n_real)
    g_norm = np.empty(n_real)
    for r in range(n_real):
        real = generate(cfg, schedule, cells, mode, rng, **units)
        g = combine(real, scheme, 1)
        if scheme is Scheme.MRC:
            g = g * real.psi[real.pilot_col[0]]
        cross = g.conj() @ real.h_eff
        s1[r] = cross[0]
        power[r] = np.sum(np.abs(cross) ** 2)
        g_norm[r] = np.vdot(g, g).real
    return s1, power, g_norm


@pytest.mark.parametrize("scheme, snr, units", [
    pytest.param(Scheme.MRC, 10.0, {}, id="Scheme.MRC"),
    pytest.param(Scheme.PZFC, 10.0, {}, id="Scheme.PZFC"),
    # pilot noise dominates the estimate: a wrong noise variance shows here
    pytest.param(Scheme.MRC, 0.1, {}, id="Scheme.MRC-low_snr"),
    # the unit-radius shortcut against the physics in absolute units
    pytest.param(Scheme.PZFC, 10.0, {"radius": 250.0, "pathloss_ref": 7.3},
                 id="Scheme.PZFC-absolute_units"),
])
def test_span_shortcut_matches_explicit_path(scheme, snr, units):
    cfg = make_config(snr=snr)
    schedule = Schedule(8, 2, 1)
    n_measured, n_explicit = 20000, 4000
    measured = measure_sinr(cfg, schedule, TIER1, AVG, scheme, n_measured,
                            np.random.default_rng(31))
    s1, power, g_norm = _explicit_samples(cfg, schedule, TIER1, AVG, scheme,
                                          n_explicit, np.random.default_rng(32),
                                          **units)

    # the sample bound of the explicit draws, all users' power in one column
    explicit = sampled_measured(
        [n_explicit // N_BATCHES] * N_BATCHES,
        *(a.reshape(N_BATCHES, -1, *a.shape[1:]).sum(axis=1)
          for a in (s1, power[:, None], g_norm)), 1)
    assert abs(measured.sinr - explicit.sinr) < 3 * math.hypot(measured.std_error,
                                                               explicit.std_error)

    # the scale-sensitive moments behind the ratio agree too; both sides
    # estimate the same per-realization spread, the shortcut from more draws
    terms = measured.terms
    widen = math.sqrt(1 + n_explicit / n_measured)
    for value, samples in (
            (math.sqrt(terms["signal"]), s1.real),
            (terms["denominator"] + terms["signal"] - terms["noise"], power),
            (terms["noise"], g_norm)):
        se = samples.std(ddof=1) / math.sqrt(n_explicit)
        assert abs(value - samples.mean()) < 4 * widen * se


def _pilot_block_measure_sinr(config, schedule, cells, mode, scheme, n_realizations,
                              rng):
    """measure_sinr's chunk loop as it was before it moved onto pilot
    coefficients of R (`_bartlett_measure_sinr`): every chunk forms the
    effective channels h_eff (m x d x U) and the received pilot block y_pilot
    (m x d x B) from freshly allocated span coordinates.  Same draws in the
    same order."""
    cells = sorted_tier_set(cells)
    centers, cols = _user_layout(schedule, cells)
    pinned = _pinned_positions(cells, mode)
    n, b = schedule.n_antennas, schedule.pilot_len
    n_users_total = len(cols)
    i_target = cols[0]
    vmat = dft_pilot_matrix(b)
    pilot_rows = vmat.conj().T[cols]
    rhs = np.zeros(b)
    rhs[i_target] = 1.0
    dim = min(n, n_users_total + b)

    def chunk_sums(n_chunk):
        positions = _draw_positions(config, schedule.n_users, cells, pinned,
                                    rng, n_chunk)
        d_ratio, _, _ = _distance_fields(config, centers, positions)
        coords = _span_coords(rng, n, np.zeros(
            (n_chunk, dim, n_users_total + b), dtype=complex))
        h_eff = (np.sqrt(config.snr_linear * d_ratio)[:, None, :]
                 * coords[..., :n_users_total])
        y_pilot = h_eff @ pilot_rows + coords[..., n_users_total:]
        if scheme is Scheme.MRC:
            g = (y_pilot @ vmat)[:, :, i_target]
        else:
            psi = _psi(d_ratio, cols, b, config.inv_snr)
            book = (y_pilot @ vmat) / psi[:, None, :]
            gram = np.einsum("rnb,rnc->rbc", book.conj(), book)
            x = np.linalg.solve(gram, np.broadcast_to(rhs, (n_chunk, b))[..., None])
            g = (book @ x)[..., 0]
        cross = np.einsum("rn,rnu->ru", g.conj(), h_eff)
        return (cross[:, 0].sum(), (cross.real ** 2 + cross.imag ** 2).sum(axis=0),
                (g.real ** 2 + g.imag ** 2).sum())

    return batched_measure(n_realizations,
                           max(1, linklevel._CHUNK_ELEMS // max(1, dim * n_users_total)),
                           schedule.n_users, chunk_sums)


def _bartlett_measure_sinr(config, schedule, cells, mode, scheme, n_realizations,
                           rng):
    """measure_sinr as it was before it drew only W C: every chunk draws the
    full span factor R (m x d x p, `_span_coords`) and works on the pilot
    coefficients C of R, corr = R C, and g^H h_u = (g^H R)_u sqrt(rho d_u).
    Same draws in the same order as `_pilot_block_measure_sinr`."""
    cells = sorted_tier_set(cells)
    centers, cols = _user_layout(schedule, cells)
    pinned = _pinned_positions(cells, mode)
    n, b = schedule.n_antennas, schedule.pilot_len
    n_users_total = len(cols)
    p = n_users_total + b
    i_target = cols[0]
    pilots = [i_target] if scheme is Scheme.MRC else list(range(b))
    user_on_pilot = b * (cols[:, None] == np.array(pilots))
    noise_coef = dft_pilot_matrix(b)[:, pilots]
    rhs = np.zeros(b)
    rhs[i_target] = 1.0
    dim = min(n, p)

    def chunk_sums(n_chunk):
        positions = _draw_positions(config, schedule.n_users, cells, pinned,
                                    rng, n_chunk)
        d_ratio, _, _ = _distance_fields(config, centers, positions)
        amp = np.sqrt(config.snr_linear * d_ratio)
        span = _span_coords(rng, n, np.zeros((n_chunk, dim, p), dtype=complex))
        coef = np.concatenate(
            [amp[:, :, None] * user_on_pilot,
             np.broadcast_to(noise_coef, (n_chunk, b, len(pilots)))], axis=1)
        corr = span @ coef
        if scheme is Scheme.MRC:
            g = corr[..., 0]
        else:
            psi = _psi(d_ratio, cols, b, config.inv_snr)
            book = corr / psi[:, None, :]
            gram = book.conj().transpose(0, 2, 1) @ book
            x = np.linalg.solve(gram, np.broadcast_to(rhs, (n_chunk, b))[..., None])
            g = (book @ x)[..., 0]
        cross = (g.conj()[:, None, :] @ span)[:, 0, :n_users_total] * amp
        return (cross[:, 0].sum(), (cross.real ** 2 + cross.imag ** 2).sum(axis=0),
                (g.real ** 2 + g.imag ** 2).sum())

    return batched_measure(n_realizations,
                           max(1, linklevel._CHUNK_ELEMS // max(1, dim * n_users_total)),
                           schedule.n_users, chunk_sums)


_REFERENCE_CASES = [
    pytest.param(scheme, mode, 16, k, beta, chunk_elems,
                 id=f"{scheme}-{mode}-{name}")
    for name, k, beta, chunk_elems in [
        ("whole_batches", 2, 3, None),   # one chunk per batch
        ("split_batches", 3, 1, 6720)]   # the span references: chunks of 20, 11, 10
    for mode in (AVG, WORST) for scheme in (Scheme.MRC, Scheme.PZFC)]


@pytest.mark.parametrize("scheme, mode, n, k, beta, chunk_elems", _REFERENCE_CASES)
def test_bartlett_reference_matches_pilot_block_reference(scheme, mode, n, k, beta,
                                                          chunk_elems, monkeypatch):
    # complex pilots (B = 3 and 6) and a realization count not divisible by
    # N_BATCHES; only the order of floating-point operations differs
    if chunk_elems is not None:
        monkeypatch.setattr(linklevel, "_CHUNK_ELEMS", chunk_elems)
    cfg = make_config()
    schedule = Schedule(n, k, beta)
    args = (cfg, schedule, TIER1, mode, scheme, 1013)
    got = _bartlett_measure_sinr(*args, np.random.default_rng(40))
    ref = _pilot_block_measure_sinr(*args, np.random.default_rng(40))
    for name in ("sinr", "std_error"):
        np.testing.assert_allclose(getattr(got, name), getattr(ref, name),
                                   rtol=1e-12, atol=0, err_msg=name)
    assert set(got.terms) == set(ref.terms)
    for name, value in ref.terms.items():
        np.testing.assert_allclose(got.terms[name], value, rtol=1e-12, atol=0,
                                   err_msg=name)


@pytest.mark.parametrize("scheme, mode, n, k, beta, chunk_elems", [
    *_REFERENCE_CASES,
    # zero-forcing one antenna above its B = 6 pilots: q = B < N < p = 20
    *(pytest.param(Scheme.PZFC, mode, 7, 2, 3, None, id=f"Scheme.PZFC-{mode}-n7")
      for mode in (AVG, WORST))])
def test_measure_sinr_matches_bartlett_reference_in_law(scheme, mode, n, k, beta,
                                                        chunk_elems, monkeypatch):
    # the conditional moments against the full span draw, on independent
    # streams; with chunk_elems patched, measure_sinr draws smaller chunks
    # too (280 realizations for zero-forcing, 305 for MRC)
    if chunk_elems is not None:
        monkeypatch.setattr(linklevel, "_CHUNK_ELEMS", chunk_elems)
    cfg = make_config()
    schedule = Schedule(n, k, beta)
    args = (cfg, schedule, TIER1, mode, scheme, 10000)
    got = measure_sinr(*args, np.random.default_rng(41))
    ref = _bartlett_measure_sinr(*args, np.random.default_rng(42))
    z = (got.sinr - ref.sinr) / math.hypot(got.std_error, ref.std_error)
    assert abs(z) < 4, (got.sinr, ref.sinr, z)


def _gram_solve_ty(r_q, ty, rhs):
    """T y of the zero-forcing combiner, y = D^-1 gram^-1 e_i, from Bartlett
    blocks r_q (m, q, q) and the diagonals of T D^-1 (m, q): the Gram matrix
    of the estimated book R_q T D^-1 and its solve against rhs = e_i."""
    a = r_q * ty[:, None, :]
    gram = a.conj().transpose(0, 2, 1) @ a
    return ty * np.linalg.solve(gram, rhs)[..., 0]


def _gram_solve_measure_sinr(config, schedule, cells, mode, scheme, n_realizations,
                             rng):
    """measure_sinr as it was before its one-Gamma draw: every chunk draws the
    q x q Bartlett block R_q (`_bartlett_block`) and, for zero-forcing, forms
    the Gram matrix of the estimated book and solves it.  MRC draws the same
    numbers in the same order as `xi_measure_sinr` while a batch fits one
    chunk under both chunk rules."""
    cells = sorted_tier_set(cells)
    centers, cols = _user_layout(schedule, cells)
    pinned = _pinned_positions(cells, mode)
    n, b = schedule.n_antennas, schedule.pilot_len
    rho = config.snr_linear
    n_users_total = len(cols)
    i_target = cols[0]
    pilots = [i_target] if scheme is Scheme.MRC else list(range(b))
    q = len(pilots)
    user_on_pilot = b * (cols[:, None] == np.array(pilots)).astype(float)  # (U, q)
    rhs = np.zeros((b, 1))
    rhs[i_target] = 1.0

    def chunk_sums(n_chunk):
        positions = _draw_positions(config, schedule.n_users, cells, pinned,
                                    rng, n_chunk)
        d_ratio, _, _ = _distance_fields(config, centers, positions)
        amp = np.sqrt(rho * d_ratio)
        g_diag = (rho * d_ratio) @ user_on_pilot ** 2 + b
        t = np.sqrt(g_diag)
        r_q = _bartlett_block(rng, n, n_chunk, q)
        if scheme is Scheme.MRC:
            ty = t
        else:
            psi = _psi(d_ratio, cols, b, config.inv_snr)
            ty = _gram_solve_ty(r_q, t / psi, rhs)
        v = (r_q @ ty[..., None])[..., 0]           # R_q T y
        v_norm_sq = (v.real ** 2 + v.imag ** 2).sum(axis=1)
        v_norm = np.sqrt(v_norm_sq)
        xi = _complex_normal(rng, (n_chunk, n_users_total + q))
        c_xi = ((amp * xi[:, :n_users_total]) @ user_on_pilot
                + math.sqrt(b) * xi[:, n_users_total:])  # C^H xi
        z = ((r_q.conj().transpose(0, 2, 1) @ v[..., None])[..., 0] / t
             - c_xi * v_norm[:, None] / g_diag)
        wcy = v_norm[:, None] * xi[:, :n_users_total] + amp * (z @ user_on_pilot.T)
        cross = wcy.conj() * amp
        return (cross[:, 0].sum(), (cross.real ** 2 + cross.imag ** 2).sum(axis=0),
                v_norm_sq.sum())

    return batched_measure(n_realizations,
                           max(1, linklevel._CHUNK_ELEMS // ((n_users_total + b) * q)),
                           schedule.n_users, chunk_sums)


def _wishart_inverse_diag(r_q, i):
    """(W_q^-1)_ii for W_q = R_q^H R_q, per block of r_q (m, q, q)."""
    return np.linalg.inv(r_q.conj().transpose(0, 2, 1) @ r_q)[:, i, i].real


@pytest.mark.parametrize("n, b, i", [(20, 12, 0), (20, 12, 5), (64, 2, 1)])
def test_gram_solve_norm_is_the_schur_complement(n, b, i):
    # same draws: the Gram/solve combiner's v = R_q T y has R_q^H v = s e_i
    # and ||v||^2 = s^2 (W_q^-1)_ii, s = psi_i / t_i, for any T and D
    rng = np.random.default_rng(60)
    m = 200
    r_q = _bartlett_block(rng, n, m, b)
    t = np.sqrt(b + rng.uniform(0.0, 1e3, (m, b)))
    psi = rng.uniform(0.1, 10.0, (m, b))
    rhs = np.zeros((b, 1))
    rhs[i] = 1.0
    v = (r_q @ _gram_solve_ty(r_q, t / psi, rhs)[..., None])[..., 0]
    s = psi[:, i] / t[:, i]
    np.testing.assert_allclose((v.real ** 2 + v.imag ** 2).sum(axis=1),
                               s ** 2 * _wishart_inverse_diag(r_q, i),
                               rtol=1e-12, atol=0)
    r_h_v = (r_q.conj().transpose(0, 2, 1) @ v[..., None])[..., 0]
    np.testing.assert_allclose(r_h_v / s[:, None], np.eye(b)[np.full(m, i)],
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, b, i", [(20, 12, 0), (20, 12, 5), (13, 6, 2),
                                     (10, 9, 8), (64, 2, 1)])
def test_schur_complement_is_gamma(n, b, i):
    # 1 / (W_q^-1)_ii ~ Gamma(N - B + 1, 1) for a complex Wishart W_q with N
    # degrees of freedom, at every index i (Goodman 1963)
    x = 1.0 / _wishart_inverse_diag(_bartlett_block(np.random.default_rng(61), n,
                                                    20000, b), i)
    assert stats.kstest(x, stats.gamma(n - b + 1).cdf).pvalue > 1e-3


@pytest.mark.parametrize("mode", [AVG, WORST])
def test_measure_sinr_keeps_the_mrc_stream(mode):
    # measure_sinr's sampled loop, `xi_measure_sinr`: MRC's 1 x 1 block is
    # sqrt(Gamma(N, 1)), so the Gram/solve reference draws the same numbers
    # and only the order of floating-point operations differs
    args = (make_config(), Schedule(16, 2, 3), TIER1, mode,
            Scheme.MRC, 1013)
    got = xi_measure_sinr(*args, np.random.default_rng(62))
    ref = _gram_solve_measure_sinr(*args, np.random.default_rng(62))
    for name in ("sinr", "std_error"):
        np.testing.assert_allclose(getattr(got, name), getattr(ref, name),
                                   rtol=1e-12, atol=0, err_msg=name)
    for name, value in ref.terms.items():
        np.testing.assert_allclose(got.terms[name], value, rtol=1e-12, atol=0,
                                   err_msg=name)


@pytest.mark.parametrize("mode", [AVG, WORST])
@pytest.mark.parametrize("n, k, beta", [(16, 2, 3), (7, 2, 3), (13, 4, 3)],
                         ids=["n16", "n7", "n13"])
def test_measure_sinr_matches_gram_solve_reference_in_law(mode, n, k, beta):
    # zero-forcing's conditional moments against the Gram/solve loop on
    # independent streams: B = 6 at N = 16 and N = 7, B = 12 at N = 13
    args = (make_config(), Schedule(n, k, beta), TIER1, mode, Scheme.PZFC, 10000)
    got = measure_sinr(*args, np.random.default_rng(63))
    ref = _gram_solve_measure_sinr(*args, np.random.default_rng(64))
    z = (got.sinr - ref.sinr) / math.hypot(got.std_error, ref.std_error)
    assert abs(z) < 4, (got.sinr, ref.sinr, z)


class _FixedGamma:
    """A generator whose standard_gamma returns `value`; the rest is rng's."""

    def __init__(self, rng, value):
        self._rng, self._value = rng, value

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def standard_gamma(self, shape, size=None):
        return np.full(size, self._value)


@pytest.mark.parametrize("scheme", [Scheme.MRC, Scheme.PZFC])
@pytest.mark.parametrize("value", [0.0, math.inf])
def test_measure_sinr_rejects_a_degenerate_combiner_norm(scheme, value):
    # in measure_sinr's sampled loop, `xi_measure_sinr`, a zero or infinite
    # Schur complement makes ||v||^2 zero or infinite
    rng = _FixedGamma(np.random.default_rng(65), value)
    with np.errstate(divide="ignore"), pytest.raises(RankDeficient,
                                                     match="not finite and positive"):
        xi_measure_sinr(make_config(), Schedule(16, 2, 1), TIER1, AVG,
                        scheme, 400, rng)


_XI_CASES = [pytest.param(scheme, mode, n, k, beta,
                          id=f"{scheme}-{mode}-{n}-{k}-{beta}")
             for n, k, beta in [(16, 2, 3), (13, 4, 3), (40, 3, 4), (7, 1, 3)]
             for mode in (AVG, WORST) for scheme in (Scheme.MRC, Scheme.PZFC)]


@pytest.mark.parametrize("scheme, mode, n, k, beta", _XI_CASES)
def test_measure_sinr_matches_xi_loop_in_law(scheme, mode, n, k, beta):
    # the conditional moments against the loop that samples channels, noise
    # and X given the positions, on independent streams; N = 7 at B = 3 puts
    # zero-forcing's X at Gamma(5, 1)
    args = (make_config(), Schedule(n, k, beta), TIER1, mode, scheme, 10000)
    got = measure_sinr(*args, np.random.default_rng(66))
    ref = xi_measure_sinr(*args, np.random.default_rng(67))
    z = (got.sinr - ref.sinr) / math.hypot(got.std_error, ref.std_error)
    assert abs(z) < 4, (got.sinr, ref.sinr, z)


def test_conditional_moments_halve_the_standard_error():
    # at the sweep's N = 10 MRC optimum (K = 28, beta = 3) the channel and
    # Gamma draws dominate the xi loop's spread
    args = (make_config(), Schedule(10, 28, 3), TIER1, AVG, Scheme.MRC, 4000)
    got = measure_sinr(*args, np.random.default_rng(68))
    ref = xi_measure_sinr(*args, np.random.default_rng(69))
    assert got.std_error <= 0.5 * ref.std_error, (got.std_error, ref.std_error)


@pytest.mark.parametrize("name", ["seven_cell_mrc_avg", "seven_cell_pzfc_avg_large_n"])
def test_standard_error_is_calibrated(name):
    # the standard error is stable from seed to seed (batch means over 20
    # batches vary by about 16 %), and its median matches the spread of the
    # estimates over 4,000 seeds, which is itself known to about 1.1 %; 400
    # seeds would know it only to 3.5 %, too loose for a 5 % band
    cells, schedule, mode, scheme = next(
        fixture[1:5] for fixture in _validation_fixtures() if fixture[0] == name)

    def runs(n_seeds, n_realizations):
        measured = [measure_sinr(make_config(), schedule, cells, mode, scheme,
                                 n_realizations, np.random.default_rng(seed))
                    for seed in range(n_seeds)]
        return (np.array([m.sinr for m in measured]),
                np.array([m.std_error for m in measured]))

    _, se = runs(200, 5000)
    stable = np.mean(np.abs(se / np.median(se) - 1.0) <= 0.10)
    assert stable >= 0.95, (stable, np.percentile(se / np.median(se), [5, 95]))
    sinrs, se = runs(4000, 500)
    ratio = np.median(se) / np.std(sinrs, ddof=1)
    assert abs(ratio - 1.0) <= 0.05, ratio


_IDENTITY_SCHEDULES = [(64, 1, 1), (221, 30, 3), (100, 5, 7), (500, 20, 4),
                       (10000, 1, 7), (100000, 1, 1)]  # SINRs up to about 5e5


@pytest.fixture(scope="module")
def identity_tables():
    """(kappa, min_frac) -> {mode: table}, built on first use."""
    cache = {}

    def tables(kappa, min_frac):
        if (kappa, min_frac) not in cache:
            cache[kappa, min_frac] = {mode: build_table(kappa, mode, min_frac=min_frac)
                                      for mode in (AVG, WORST)}
        return cache[kappa, min_frac]

    return tables


class _NoRandom:
    """A generator that fails on any attribute access."""

    def __getattribute__(self, name):
        raise AssertionError(f"a path that draws nothing read rng.{name}")


@pytest.mark.parametrize("kappa", [3.5, 4.0])
@pytest.mark.parametrize("snr_db", [10.0, -5.0])
@pytest.mark.parametrize("min_frac", [0.14, 0.3])
@pytest.mark.parametrize("scheme", [Scheme.MRC, Scheme.PZFC])
@pytest.mark.parametrize("n, k, beta", _IDENTITY_SCHEDULES,
                         ids=[f"{n}-{k}-{b}" for n, k, b in _IDENTITY_SCHEDULES])
def test_measure_sinr_is_the_closed_form_where_no_position_is_drawn(
        identity_tables, kappa, snr_db, min_frac, scheme, n, k, beta):
    # worst-case mode pins every out-of-cell user and one cell has no other:
    # the estimate is then exact, equals the closed form up to rounding and
    # touches no generator
    cfg = NetworkConfig(coherence_block=1000, snr_linear=db_to_linear(snr_db),
                        pathloss_exponent=kappa, min_ue_distance_frac=min_frac)
    schedule = Schedule(n, k, beta)
    tables = identity_tables(kappa, min_frac)
    for cells, mode in ((TIER1, WORST), (((0, 0),), AVG)):
        analytic = sinr(SinrInputs(cfg, tables[mode].restricted(cells), schedule, scheme))
        measured = measure_sinr(cfg, schedule, cells, mode, scheme, 40, _NoRandom())
        assert measured.std_error == 0.0
        assert measured.sinr == pytest.approx(analytic, rel=1e-12, abs=0), (
            mode, len(cells))


@pytest.mark.parametrize("mode, scheme", [("worst", Scheme.MRC), (AVG, "mrc"),
                                          (WORST, "pzfc"), (AVG, None)])
def test_mode_and_scheme_must_be_enum_members(mode, scheme):
    # neither is coerced: "worst" once ran average mode, and any scheme that
    # is not Scheme.MRC ran zero-forcing
    with pytest.raises(DomainError, match="enum members"):
        measure_sinr(make_config(), Schedule(64, 2, 1), TIER1, mode, scheme, 40,
                     _NoRandom())


@pytest.mark.parametrize("scheme", [Scheme.MRC, Scheme.PZFC])
@pytest.mark.parametrize("n, k, beta", [(64, 1, 1), (100, 5, 7)])
def test_a_path_that_draws_nothing_takes_one_realization(scheme, n, k, beta):
    # the count is read only where positions are drawn: worst-case mode and
    # one cell give the same result for 1 and 2 realizations, bit for bit
    # (average mode with other cells still needs two: see
    # test_generate_rejects_inconsistent_inputs)
    cfg = make_config()
    schedule = Schedule(n, k, beta)
    for cells, mode in ((TIER1, WORST), (((0, 0),), AVG), (((0, 0),), WORST)):
        one = measure_sinr(cfg, schedule, cells, mode, scheme, 1, _NoRandom())
        assert one == measure_sinr(cfg, schedule, cells, mode, scheme, 2, _NoRandom())
        assert one.std_error == 0.0


_ORACLE_N = (10, 20, 33, 53, 85, 137, 221)   # default-grid antenna counts


@pytest.fixture(scope="module")
def sweep_optima(avg_table, worst_table):
    config = make_config()
    return sweep(config, _ORACLE_N, default_k_grid(config.coherence_block),
                 [1, 3, 4, 7], [Scheme.MRC, Scheme.PZFC], [AVG, WORST],
                 {AVG: avg_table, WORST: worst_table})


@pytest.mark.parametrize("n", _ORACLE_N)
@pytest.mark.parametrize("scheme, mode", [(Scheme.MRC, AVG), (Scheme.MRC, WORST),
                                          (Scheme.PZFC, AVG), (Scheme.PZFC, WORST)])
def test_oracle_checks_the_sweep_optima(sweep_optima, avg_table, worst_table,
                                        scheme, mode, n):
    # the oracle at the schedule the sweep returns (MRC at N = 10 schedules
    # K = 28, beta = 3: p = 280), on the tier-1 cells, gated by run_validation's
    # rules (worst-case mode draws no position and is an identity);
    # average-mode zero-forcing only as a lower bound, since its closed form
    # under-states the SINR at beta > 1
    k, beta, _ = optimal_schedule(sweep_optima, n, scheme, mode)
    cfg = make_config()
    schedule = Schedule(n, k, beta)
    table = avg_table if mode is AVG else worst_table
    analytic = sinr(SinrInputs(cfg, table.restricted(TIER1), schedule, scheme))
    measured = measure_sinr(cfg, schedule, TIER1, mode, scheme, 4000,
                            np.random.default_rng(50 + n))
    ratio = measured.sinr / analytic
    print(f"{scheme.value} {mode.value} N={n} K*={k} beta*={beta}: "
          f"measured/analytic {ratio:.4f}")
    within_3se = abs(measured.sinr - analytic) <= 3 * measured.std_error
    if mode is WORST:
        assert measured.std_error == 0.0 and abs(ratio - 1.0) <= 1e-12, ratio
    elif scheme is Scheme.PZFC:
        assert measured.sinr >= analytic - 3 * measured.std_error, ratio
    else:
        assert abs(ratio - 1.0) <= 0.05 or within_3se, ratio
