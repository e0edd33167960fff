import dataclasses
import math

import numpy as np
import pytest

from hexmimo.config import InterferenceMode, NetworkConfig
from hexmimo.errors import DomainError, RankDeficient
from hexmimo.hexgrid import CellIndex, cells_within_tier, worst_case_position
from hexmimo.linklevel import (N_BATCHES, Realization, _span_coords, combine,
                               dft_pilot_matrix, estimate_book,
                               estimation_error_scale, generate, lmmse_estimate,
                               lmmse_estimate_kron, measure_estimation_mse,
                               measure_sinr)
from hexmimo.pilots import PilotPlan
from hexmimo.spectral import Scheme, SinrInputs, sinr

AVG = InterferenceMode.AVERAGE
WORST = InterferenceMode.WORST_CASE
TIER1 = tuple(cells_within_tier(1))


def make_config(n=8, k=2, beta=1, snr=10.0, r=250.0, c_ref=1.0):
    return NetworkConfig(n_antennas=n, n_users=k, coherence_block=1000,
                         reuse_factor=beta, snr_linear=snr, cell_radius=r,
                         pathloss_ref=c_ref)


@pytest.mark.parametrize("b", [1, 2, 4, 6])
def test_pilot_matrix_orthogonality(b):
    v = dft_pilot_matrix(b)
    assert np.allclose(np.abs(v), 1.0, atol=1e-12)
    assert np.allclose(v.conj().T @ v, b * np.eye(b), atol=1e-10)


def test_effective_channel_gain_is_n_rho():
    # statistics-inverting power control: E{p ||h||^2} = N * rho for every UE
    cfg = make_config(n=8, k=2)
    plan = PilotPlan(2, 1)
    rng = np.random.default_rng(3)
    gains = []
    for _ in range(3000):
        real = generate(cfg, plan, TIER1, AVG, rng)
        u = real.user_index(CellIndex(0, 0), 1)
        gains.append(real.tx_power[u] * np.sum(np.abs(real.channel[:, u]) ** 2))
    gains = np.asarray(gains)
    se = gains.std(ddof=1) / math.sqrt(len(gains))
    assert abs(gains.mean() - 8 * 10.0) < 3 * se


def test_noise_variance_matches_model():
    cfg = make_config(n=16, k=2)
    plan = PilotPlan(2, 1)
    rng = np.random.default_rng(4)
    samples = []
    for _ in range(300):
        real = generate(cfg, plan, TIER1, AVG, rng)
        pilot_rows = real.pilot_matrix.conj().T[real.pilot_col]
        noise = real.y_pilot - real.h_eff @ pilot_rows
        samples.append(np.abs(noise) ** 2)
    samples = np.concatenate([s.ravel() for s in samples])
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - 1.0) < 3 * se  # sigma^2 normalized to 1


def test_generate_realization_layout():
    cfg = make_config(n=4, k=3, beta=3)
    plan = PilotPlan(3, 3)
    real = generate(cfg, plan, TIER1, AVG, np.random.default_rng(0))
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


def test_generate_rejects_inconsistent_inputs():
    cfg = make_config(n=4, k=2)
    with pytest.raises(DomainError):
        generate(cfg, PilotPlan(3, 1), TIER1, AVG, np.random.default_rng(0))
    with pytest.raises(DomainError):
        generate(cfg, PilotPlan(2, 1), [(1, 0), (0, 1)], AVG,
                 np.random.default_rng(0))


@pytest.mark.parametrize("plan", [PilotPlan(2, 3), PilotPlan(3, 1)],
                         ids=["beta", "users"])
def test_measure_sinr_rejects_plan_that_disagrees_with_config(plan):
    # config (K, beta) = (2, 1): the plan must not silently replace either
    with pytest.raises(DomainError):
        measure_sinr(make_config(n=64, k=2), plan, [(0, 0), (1, 0)], AVG,
                     Scheme.MRC, 400, np.random.default_rng(0))


def test_worst_mode_pins_interferers_to_cell_edge():
    cfg = make_config(n=4, k=2)
    plan = PilotPlan(2, 1)
    real = generate(cfg, plan, TIER1, WORST, np.random.default_rng(1))
    for cell in TIER1:
        if cell == (0, 0):
            continue
        expected = worst_case_position(cell, CellIndex(0, 0), cfg.cell_radius)
        for k in (1, 2):
            u = real.user_index(cell, k)
            assert np.allclose(real.positions[u], expected, atol=1e-12)


def test_kron_form_equals_scalar_form():
    # N=4, B=2 (real pilots) and B=4 (complex pilots, exercises conjugation)
    for k, beta in [(2, 1), (1, 4)]:
        cfg = make_config(n=4, k=k, beta=beta)
        plan = PilotPlan(k, beta)
        real = generate(cfg, plan, TIER1, AVG, np.random.default_rng(8))
        for cell in real.cells[:2]:
            for user in range(1, k + 1):
                a = lmmse_estimate(real, cell, user)
                b = lmmse_estimate_kron(real, cell, user)
                assert np.allclose(a, b, atol=1e-12 * np.linalg.norm(a))


def test_estimate_book_spans_the_estimates():
    cfg = make_config(n=8, k=2, beta=3)
    plan = PilotPlan(2, 3)
    real = generate(cfg, plan, TIER1, AVG, np.random.default_rng(9))
    book = estimate_book(real)
    for cell in real.cells:
        for user in (1, 2):
            u = real.user_index(cell, user)
            expected = real.d_ratio[u] * book[:, real.pilot_col[u]]
            assert np.allclose(lmmse_estimate(real, cell, user), expected,
                               atol=1e-14)


def test_copilot_estimates_exactly_proportional():
    # two UEs sharing a pilot differ only by the deterministic variance ratio
    cfg = make_config(n=8, k=2, beta=1)
    plan = PilotPlan(2, 1)
    real = generate(cfg, plan, TIER1, AVG, np.random.default_rng(10))
    own = lmmse_estimate(real, CellIndex(0, 0), 1)
    for cell in real.cells[1:]:
        u = real.user_index(cell, 1)
        other = lmmse_estimate(real, cell, 1)
        np.testing.assert_array_equal(other, real.d_ratio[u] * own)


def test_estimator_linearity():
    cfg = make_config(n=8, k=2)
    plan = PilotPlan(2, 1)
    real = generate(cfg, plan, TIER1, AVG, np.random.default_rng(11))
    scale = 2.0 - 3.0j
    scaled = dataclasses.replace(real, y_pilot=scale * real.y_pilot)
    a = lmmse_estimate(real, CellIndex(1, 0), 2)
    b = lmmse_estimate(scaled, CellIndex(1, 0), 2)
    np.testing.assert_allclose(b, scale * a, rtol=1e-13)


def test_noiseless_single_user_estimate_is_exact():
    cfg = make_config(n=16, k=1, snr=1e12)
    plan = PilotPlan(1, 1)
    real = generate(cfg, plan, [(0, 0)], AVG, np.random.default_rng(12))
    pilot_rows = real.pilot_matrix.conj().T[real.pilot_col]
    clean = dataclasses.replace(real, y_pilot=real.h_eff @ pilot_rows,
                                psi=real.psi)
    est = lmmse_estimate(clean, CellIndex(0, 0), 1)
    np.testing.assert_allclose(est, real.h_eff[:, 0], rtol=1e-10)


def test_empirical_mse_matches_error_covariance():
    # fixed positions, 4000 channel/noise redraws per fixture
    rng = np.random.default_rng(13)
    for k, beta, n in [(2, 1, 8), (1, 3, 12)]:
        cfg = make_config(n=n, k=k, beta=beta)
        plan = PilotPlan(k, beta)
        real = generate(cfg, plan, TIER1, AVG, rng)
        for cell in (CellIndex(0, 0), CellIndex(1, 0)):
            mse, se = measure_estimation_mse(real, 4000, rng, cell, 1)
            predicted = n * estimation_error_scale(real, cell, 1)
            assert abs(mse - predicted) < 3 * se


def test_lmmse_orthogonality_principle():
    cfg = make_config(n=8, k=2)
    plan = PilotPlan(2, 1)
    rng = np.random.default_rng(14)
    real0 = generate(cfg, plan, TIER1, AVG, rng)
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
    n = cfg.n_antennas
    n_users = len(template.pilot_col)
    b = template.plan.pilot_len
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
    cfg = make_config(n=32, k=2, beta=1)
    plan = PilotPlan(2, 1)
    real = generate(cfg, plan, TIER1, AVG, np.random.default_rng(15))
    book = estimate_book(real)
    i = real.pilot_col[real.user_index(CellIndex(0, 0), 1)]
    g = combine(real, Scheme.PZFC, 1)
    response = book.conj().T @ g
    expected = np.zeros(plan.pilot_len)
    expected[i] = 1.0
    assert np.linalg.cond(book.conj().T @ book) < 1e8
    np.testing.assert_allclose(response, expected, atol=1e-10)


def test_mrc_with_single_pilot_is_estimated_channel():
    cfg = make_config(n=16, k=1, beta=1)
    plan = PilotPlan(1, 1)
    real = generate(cfg, plan, [(0, 0)], AVG, np.random.default_rng(16))
    g = combine(real, Scheme.MRC, 1)
    np.testing.assert_allclose(g, lmmse_estimate(real, CellIndex(0, 0), 1),
                               atol=1e-14)


def test_combine_rank_deficient():
    cfg = make_config(n=4, k=2, beta=1)
    plan = PilotPlan(2, 1)
    real = generate(cfg, plan, [(0, 0)], AVG, np.random.default_rng(17))
    # identical columns, and an all-zero book (undefined condition number)
    for degenerate in (np.ones((4, 2), dtype=complex),
                       np.zeros((4, 2), dtype=complex)):
        broken = dataclasses.replace(real, y_pilot=degenerate,
                                     pilot_matrix=np.eye(2, dtype=complex),
                                     psi=np.ones(2))
        with pytest.raises(RankDeficient):
            combine(broken, Scheme.PZFC, 1)


def test_measured_sinr_matches_closed_form_single_cell():
    from hexmimo.moments import MomentEntry, MomentTable

    cfg = make_config(n=50, k=1)
    plan = PilotPlan(1, 1)
    table = MomentTable(mode=AVG, kappa=3.5, n_samples=0, seed=None,
                        rel_tol=1e-3, min_frac=0.14,
                        entries={CellIndex(0, 0): MomentEntry(1., 1., 0., 0.)})
    analytic = sinr(SinrInputs(cfg, table, plan, ((0, 0),)))
    measured = measure_sinr(cfg, plan, [(0, 0)], AVG, Scheme.MRC, 10000,
                            np.random.default_rng(18))
    assert abs(measured.sinr - analytic) < 4 * measured.std_error
    assert measured.std_error < 0.05 * analytic
    assert set(measured.terms) == {"signal", "estimation_gap", "intra_cell",
                                   "inter_cell", "noise", "denominator"}
    assert measured.terms["intra_cell"] == 0.0  # single user
    assert measured.n_realizations == 10000


def test_measured_sinr_seven_cell_mrc(avg_table):
    cfg = make_config(n=64, k=2)
    plan = PilotPlan(2, 1)
    analytic = sinr(SinrInputs(cfg, avg_table, plan, TIER1))
    measured = measure_sinr(cfg, plan, TIER1, AVG, Scheme.MRC, 20000,
                            np.random.default_rng(19))
    assert abs(measured.sinr / analytic - 1.0) < 0.05


def test_measured_sinr_mrc_with_more_users_than_antennas(avg_table):
    # MRC needs no N > beta K: at N = 10 the sweep's average-mode MRC optimum
    # is K = 28, beta = 3 (84 pilots), and the closed form must hold there
    cfg = make_config(n=10, k=28, beta=3)
    plan = PilotPlan(28, 3)
    analytic = sinr(SinrInputs(cfg, avg_table, plan, TIER1))
    measured = measure_sinr(cfg, plan, TIER1, AVG, Scheme.MRC, 4000,
                            np.random.default_rng(20))
    assert abs(measured.sinr - analytic) < 3 * measured.std_error


def test_measured_and_analytic_approach_limit_together(avg_table):
    # growing the array moves both the measurement and the closed form toward
    # the contamination limit, with their ratio staying at 1
    from hexmimo.spectral import asymptotic_sinr

    plan = PilotPlan(2, 1)
    limit = asymptotic_sinr(avg_table, plan, TIER1)
    gaps = {}
    for n, n_real, seed in ((64, 12000, 22), (256, 8000, 23)):
        cfg = make_config(n=n, k=2)
        analytic = sinr(SinrInputs(cfg, avg_table, plan, TIER1))
        measured = measure_sinr(cfg, plan, TIER1, AVG, Scheme.MRC, n_real,
                                np.random.default_rng(seed))
        assert abs(measured.sinr - analytic) < 4 * measured.std_error
        gaps[n] = limit - analytic
    assert 0 < gaps[256] < gaps[64]


def test_sinr_invariant_to_pathloss_reference_and_radius():
    # C and r cancel: same seed, different (C, r) give near-identical results
    plan = PilotPlan(2, 1)
    kwargs = dict(n=16, k=2)
    a = measure_sinr(make_config(r=1.0, c_ref=1.0, **kwargs), plan, TIER1, AVG,
                     Scheme.MRC, 4000, np.random.default_rng(20))
    b = measure_sinr(make_config(r=250.0, c_ref=7.3, **kwargs), plan, TIER1,
                     AVG, Scheme.MRC, 4000, np.random.default_rng(20))
    assert math.isclose(a.sinr, b.sinr, rel_tol=1e-9)


def test_realization_scale_invariance_of_ratios():
    plan = PilotPlan(2, 1)
    ra = generate(make_config(n=4, k=2, r=1.0, c_ref=1.0), plan, TIER1, AVG,
                  np.random.default_rng(21))
    rb = generate(make_config(n=4, k=2, r=250.0, c_ref=7.3), plan, TIER1, AVG,
                  np.random.default_rng(21))
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


@pytest.mark.parametrize("n, p", [(8, 5), (3, 6)])
def test_span_coordinates_have_the_wishart_moments(n, p):
    # R^H R from the Bartlett coordinates against the same Gram from explicit
    # N-dim CN(0, I_N) draws; d = min(N, p) rows
    m = 40000
    rng = np.random.default_rng(30)
    coords = _span_coords(rng, m, n, p)
    assert coords.shape == (m, min(n, p), p)
    assert not np.tril(coords, -1).any()
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


def _explicit_samples(cfg, plan, cells, mode, scheme, n_real, rng):
    """Per-realization g^H h_own, sum_u |g^H h_u|^2 and ||g||^2 from explicit
    N-dim `generate` + `combine`, with measure_sinr's combiner scale
    convention (MRC: the raw pilot correlation, psi times the estimate)."""
    s1 = np.empty(n_real, dtype=complex)
    power = np.empty(n_real)
    g_norm = np.empty(n_real)
    for r in range(n_real):
        real = generate(cfg, plan, cells, mode, rng)
        g = combine(real, scheme, 1)
        if scheme is Scheme.MRC:
            g = g * real.psi[real.pilot_col[0]]
        cross = g.conj() @ real.h_eff
        s1[r] = cross[0]
        power[r] = np.sum(np.abs(cross) ** 2)
        g_norm[r] = np.vdot(g, g).real
    return s1, power, g_norm


@pytest.mark.parametrize("scheme", [Scheme.MRC, Scheme.PZFC])
def test_span_shortcut_matches_explicit_path(scheme):
    cfg = make_config(n=8, k=2, beta=1)
    plan = PilotPlan(2, 1)
    n_measured, n_explicit = 20000, 4000
    measured = measure_sinr(cfg, plan, TIER1, AVG, scheme, n_measured,
                            np.random.default_rng(31))
    s1, power, g_norm = _explicit_samples(cfg, plan, TIER1, AVG, scheme,
                                          n_explicit, np.random.default_rng(32))

    def sinr(s1, power, g_norm):
        coherent = abs(s1.mean()) ** 2
        return coherent / (power.mean() - coherent + g_norm.mean())

    batches = [sinr(*arrays) for arrays in zip(
        *(a.reshape(N_BATCHES, -1) for a in (s1, power, g_norm)))]
    se = np.std(batches, ddof=1) / math.sqrt(N_BATCHES)
    explicit = sinr(s1, power, g_norm)
    assert abs(measured.sinr - explicit) < 3 * math.hypot(measured.std_error, se)

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
