"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Criterion 4a compares the optimized MRC and PZFC SE over the
schedules both combiners can run (beta * K < N); the larger unrestricted MRC
optimum at small N, where MRC schedules more users than antennas, is printed
and must lie outside that shared domain.
"""

import json
import math
import time
import numpy as np
import pytest

from hexmimo.config import InterferenceMode, NetworkConfig
from hexmimo.hexgrid import CellIndex
from hexmimo.linklevel import measure_sinr
from hexmimo.pilots import Schedule
from hexmimo.spectral import (Scheme, SinrInputs, asymptotic_sinr,
                              kstar_asymptotic, sinr)
from hexmimo.sweep import default_k_grid, default_n_grid, optimal_schedule, sweep

from reference import (cells_within_tier, combine, estimate_book,
                       estimation_error_scale, generate, lmmse_estimate,
                       measure_estimation_mse, sinr_mrc_generic,
                       sinr_pzfc_generic)

AVG = InterferenceMode.AVERAGE
WORST = InterferenceMode.WORST_CASE
TIER1 = tuple(cells_within_tier(1))
T_BLOCK = 1000
NETWORK = NetworkConfig(coherence_block=T_BLOCK, snr_linear=10.0,
                        pathloss_exponent=3.5)


def report(number, passed, detail, elapsed=None):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"[{status}] criterion {number}: {detail}{suffix}")


@pytest.fixture(scope="module")
def headline_sweep(fullres_tables):
    t0 = time.time()
    result = sweep(NETWORK, default_n_grid(), default_k_grid(T_BLOCK),
                   [1, 3, 4, 7], [Scheme.MRC, Scheme.PZFC], [AVG, WORST],
                   fullres_tables)
    return result, time.time() - t0


def test_criterion_1_kstar_exactness():
    t0 = time.time()
    k1 = kstar_asymptotic(T_BLOCK, 1)
    k3 = kstar_asymptotic(T_BLOCK, 3)
    ok = k1 == {500} and k3 <= {166, 167}
    for beta, result in ((1, k1), (3, k3)):
        scores = {k: k * (T_BLOCK - k * beta)
                  for k in range(1, T_BLOCK // beta + 1)}
        best = max(scores.values())
        ok = ok and result == {k for k, s in scores.items() if s == best}
    report(1, ok, f"asymptotic-schedule exactness: K*(b=1)={sorted(k1)}, "
                  f"K*(b=3)={sorted(k3)}, exhaustive argmax confirms",
           time.time() - t0)
    assert ok


def test_criterion_2_limit_convergence(fullres_tables):
    t0 = time.time()
    table = fullres_tables[AVG]
    k = 10
    limit = asymptotic_sinr(table, 1, TIER1)

    def at(n, scheme):
        inp = SinrInputs(NETWORK, table, Schedule(n, k, 1), TIER1, scheme)
        return sinr(inp)

    gap9 = abs(at(10 ** 9, Scheme.MRC) - at(10 ** 9, Scheme.PZFC)) / limit
    rel6_m = abs(at(10 ** 6, Scheme.MRC) - limit) / limit
    rel6_z = abs(at(10 ** 6, Scheme.PZFC) - limit) / limit
    elapsed = time.time() - t0
    ok = gap9 < 1e-3 and rel6_m < 0.01 and rel6_z < 0.01 and elapsed < 1.0
    report(2, ok, f"common large-N limit: |mrc-pzfc|/limit={gap9:.2e} at "
                  f"N=1e9; offsets at N=1e6: mrc {rel6_m:.2e}, pzfc {rel6_z:.2e}",
           elapsed)
    assert ok


def test_criterion_3_lmmse_mse_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2025)
    results = []
    for i in range(12):
        n = int(rng.choice([4, 8, 16, 32]))
        k = int(rng.integers(1, 4))
        beta = int(rng.choice([1, 3]))
        cells = TIER1 if rng.random() < 0.7 else ((0, 0),)
        real = generate(NETWORK, Schedule(n, k, beta), cells, AVG, rng)
        cell = real.cells[int(rng.integers(0, len(real.cells)))]
        user = int(rng.integers(1, k + 1))
        mse, se = measure_estimation_mse(real, 10 ** 4, rng, cell, user)
        predicted = n * estimation_error_scale(real, cell, user)
        results.append((abs(mse - predicted) <= 3 * se, n, len(real.cells)))
    elapsed = time.time() - t0
    n_pass = sum(r[0] for r in results)
    ok = n_pass == len(results) and len(results) >= 10 and elapsed < 60
    report(3, ok, f"LMMSE MSE vs error-covariance trace: {n_pass}/{len(results)} "
                  f"fixtures within 3 SE at 1e4 realizations", elapsed)
    assert ok


def test_criterion_4a_similarity_band(headline_sweep):
    # PZFC needs N > beta * K; MRC has no such cap and at small N its optimum
    # schedules more users than antennas (the closed form holds there, see
    # test_linklevel's K > N oracle check).  Similarity is therefore judged on
    # the schedules both combiners can run, and every unrestricted gap of 15 %
    # or more must come from an MRC optimum outside that shared domain.
    result, _ = headline_sweep
    n_range = [n for n in default_n_grid() if 10 <= n <= 200]
    rows, runs = result.rows, result.runs
    per_row = {name: np.repeat(runs[name], runs["stop"] - runs["start"])
               for name in ("N", "beta", "scheme", "mode")}
    shared = ((per_row["scheme"] == Scheme.MRC.value) & (per_row["mode"] == AVG.value)
              & (per_row["beta"] * result.n_users(np.arange(len(rows))) < per_row["N"]))
    mrc_shared = {n: rows["se"][shared & (per_row["N"] == n)].max(initial=0.0)
                  for n in n_range}

    def gap(a, b):
        return abs(a - b) / max(a, b)

    lines = []
    for n in n_range:
        k_m, b_m, se_m = optimal_schedule(result, n, Scheme.MRC, AVG)
        _, _, se_z = optimal_schedule(result, n, Scheme.PZFC, AVG)
        lines.append((n, gap(mrc_shared[n], se_z), gap(se_m, se_z), b_m * k_m))
    too_wide = [g for g in lines if not g[1] < 0.15]
    unexplained = [g for g in lines if g[2] >= 0.15 and g[3] < g[0]]
    ok = not too_wide and not unexplained
    report("4a", ok, "optimized MRC/PZFC SE within 15% on beta*K < N for N in "
           "[10, 200] (unrestricted MRC gap, beta*K*): " + ", ".join(
               f"N={n}:{100 * g:.0f}% ({100 * g_all:.0f}%, {bk})"
               for n, g, g_all, bk in lines))
    assert not too_wide, (
        "optimized SE gap of 15% or more on the shared schedules beta*K < N: "
        + ", ".join(f"N={n}: {100 * g:.1f}%" for n, g, _, _ in too_wide))
    assert not unexplained, (
        "unrestricted gap of 15% or more with the MRC optimum inside the PZFC "
        "domain beta*K* < N: " + ", ".join(
            f"N={n}: {100 * g_all:.1f}%, beta*K*={bk}"
            for n, _, g_all, bk in unexplained))


def test_criterion_4b_pzfc_wins_at_large_n(headline_sweep):
    result, _ = headline_sweep
    _, _, se_m = optimal_schedule(result, 10 ** 4, Scheme.MRC, AVG)
    _, _, se_z = optimal_schedule(result, 10 ** 4, Scheme.PZFC, AVG)
    ok = se_z > se_m
    report("4b", ok, f"PZFC SE* {se_z:.1f} strictly exceeds MRC SE* {se_m:.1f} "
                     f"at N=1e4 (average mode)")
    assert ok


def test_criterion_4c_kstar_above_400(headline_sweep):
    result, _ = headline_sweep
    k_m, _, _ = optimal_schedule(result, 10 ** 4, Scheme.MRC, AVG)
    k_z, _, _ = optimal_schedule(result, 10 ** 4, Scheme.PZFC, AVG)
    ok = k_m > 400 and k_z > 400
    report("4c", ok, f"K* at N=1e4 (avg): MRC {k_m}, PZFC {k_z}; both > 400 "
                     f"approaching T/2 = 500")
    assert ok


def test_criterion_4d_reuse_decreases_with_n(headline_sweep):
    result, elapsed = headline_sweep
    ok = True
    detail = []
    for scheme in (Scheme.MRC, Scheme.PZFC):
        betas = [optimal_schedule(result, n, scheme, AVG)[1]
                 for n in default_n_grid()]
        ok = ok and all(b >= a for a, b in zip(betas[1:], betas))
        detail.append(f"{scheme.value}: {betas[0]}->{betas[-1]}")
    ok = ok and elapsed < 120
    report("4d", ok, f"optimal beta weakly decreasing in N (avg): "
                     f"{'; '.join(detail)}; sweep took {elapsed:.1f}s < 120s")
    assert ok


def test_criterion_5_headline_magnitude(headline_sweep):
    result, _ = headline_sweep
    k_z, _, se_z = optimal_schedule(result, 10 ** 4, Scheme.PZFC, AVG)
    per_ue = se_z / k_z
    ok = se_z > 225.0 and 1.0 <= per_ue <= 3.0
    report(5, ok, f"headline: PZFC SE*(N=1e4, avg) = {se_z:.1f} > 225 "
                  f"(100x the 2.25 reference); per-UE SE {per_ue:.2f} in [1, 3]")
    assert ok


def test_criterion_6_worst_case_regime(headline_sweep):
    result, _ = headline_sweep
    ok_beta = True
    for n in default_n_grid():
        for scheme in (Scheme.MRC, Scheme.PZFC):
            _, b_avg, _ = optimal_schedule(result, n, scheme, AVG)
            _, b_worst, _ = optimal_schedule(result, n, scheme, WORST)
            ok_beta = ok_beta and b_worst >= b_avg
    k_detail = []
    ok_k = True
    for scheme in (Scheme.MRC, Scheme.PZFC):
        k_avg, _, _ = optimal_schedule(result, 10 ** 4, scheme, AVG)
        k_worst, _, _ = optimal_schedule(result, 10 ** 4, scheme, WORST)
        ok_k = ok_k and k_worst < k_avg
        k_detail.append(f"{scheme.value}: {k_worst} < {k_avg}")
    ok = ok_beta and ok_k
    report(6, ok, f"worst-case regime: beta*_worst >= beta*_avg at every N; "
                  f"K*_worst < K*_avg at N=1e4 ({'; '.join(k_detail)})")
    assert ok


def test_criterion_7_property_suite(fullres_tables):
    t0 = time.time()
    rng = np.random.default_rng(99)
    checks = {}

    # Jensen on stored moments, with worst-case equality
    checks["jensen"] = all(
        e.mu2 >= e.mu1 * e.mu1
        for table in fullres_tables.values() for e in table.entries.values())

    # scale invariance in (C, r): moment tables carry no radius dependence,
    # and the reference's link-level ratios cancel (C, r) to float precision
    schedule = Schedule(16, 2, 1)
    network = NetworkConfig(coherence_block=T_BLOCK, snr_linear=10.0)
    ra = generate(network, schedule, TIER1, AVG, np.random.default_rng(5))
    rb = generate(network, schedule, TIER1, AVG, np.random.default_rng(5),
                  radius=250.0, pathloss_ref=7.3)
    checks["scale_invariance"] = bool(np.allclose(ra.d_ratio, rb.d_ratio,
                                                  rtol=1e-12))

    # PZFC unit response and copilot-estimate proportionality on random draws
    unit, prop = True, True
    for _ in range(3):
        real = generate(NetworkConfig(T_BLOCK, 10.0), Schedule(32, 2, 3), TIER1,
                        AVG, rng)
        book = estimate_book(real)
        if np.linalg.cond(book.conj().T @ book) < 1e8:
            g = combine(real, Scheme.PZFC, 1)
            response = book.conj().T @ g
            target = np.zeros(real.schedule.pilot_len)
            target[real.pilot_col[0]] = 1.0
            unit = unit and bool(np.allclose(response, target, atol=1e-10))
        own = lmmse_estimate(real, CellIndex(0, 0), 1)
        for cell in real.cells[1:]:
            if real.pilot_col[real.user_index(cell, 1)] == real.pilot_col[0]:
                dr = real.d_ratio[real.user_index(cell, 1)]
                prop = prop and bool(np.array_equal(
                    lmmse_estimate(real, cell, 1), dr * own))
    checks["pzfc_unit_response"] = unit
    checks["copilot_proportionality"] = prop

    # SINR monotonic in N and in SNR for both schemes on the full moments
    mono = True
    table = fullres_tables[AVG]
    for scheme in (Scheme.MRC, Scheme.PZFC):
        seq = [sinr(SinrInputs(NETWORK, table, Schedule(n, 10, 1), scheme=scheme))
               for n in (11, 40, 160, 2500, 10 ** 4)]
        mono = mono and all(b > a for a, b in zip(seq, seq[1:]))
        seq = [sinr(SinrInputs(
            NetworkConfig(T_BLOCK, snr), table, Schedule(128, 10, 1),
            scheme=scheme)) for snr in (0.5, 2.0, 10.0, 80.0)]
        mono = mono and all(b > a for a, b in zip(seq, seq[1:]))
    checks["sinr_monotonicity"] = mono

    # generic-vs-collapsed evaluation equality at 1e-12
    collapse = True
    tier2 = tuple(cells_within_tier(2))
    for beta, k in ((1, 2), (3, 1), (4, 2), (7, 1)):
        schedule = Schedule(max(8 * beta * k, 32), k, beta)
        im = SinrInputs(NETWORK, table, schedule, tier2, Scheme.MRC)
        iz = SinrInputs(NETWORK, table, schedule, tier2, Scheme.PZFC)
        collapse = collapse and math.isclose(
            sinr(im), sinr_mrc_generic(im), rel_tol=1e-12)
        collapse = collapse and math.isclose(
            sinr(iz), sinr_pzfc_generic(iz), rel_tol=1e-12)
    checks["collapse_equality"] = collapse

    ok = all(checks.values())
    report(7, ok, "property suite: " + ", ".join(
        f"{name}={'ok' if good else 'FAIL'}" for name, good in checks.items()),
        time.time() - t0)
    assert ok, checks


def test_criterion_8_oracle_vs_analytic(fullres_tables, tmp_path):
    t0 = time.time()
    table = fullres_tables[AVG]
    schedule = Schedule(64, 2, 1)
    analytic = sinr(SinrInputs(NETWORK, table, schedule, TIER1))
    measured = measure_sinr(NETWORK, schedule, TIER1, AVG, Scheme.MRC, 10 ** 5,
                            np.random.default_rng(4242))
    ratio = measured.sinr / analytic
    elapsed = time.time() - t0

    out = tmp_path / "validation.json"
    out.write_text(json.dumps({
        "fixture": {"cells": 7, "n_antennas": 64, "n_users": 2,
                    "reuse_factor": 1, "scheme": "mrc", "mode": "avg",
                    "n_realizations": 10 ** 5},
        "analytic_sinr": analytic,
        "measured_sinr": measured.sinr,
        "std_error": measured.std_error,
        "measured_over_analytic": ratio,
        "terms": measured.terms,
    }, indent=1))

    ok = abs(ratio - 1.0) < 0.05 and elapsed < 300
    report(8, ok, f"oracle vs MRC closed form, 7-cell/K=2/N=64, 1e5 realizations: "
                  f"measured {measured.sinr:.4f} +- {measured.std_error:.4f} vs "
                  f"{analytic:.4f} (ratio {ratio:.4f}); terms in {out}",
           elapsed)
    assert ok
