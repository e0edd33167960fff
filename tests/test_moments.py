import concurrent.futures
import math
import os
import sys
from functools import lru_cache

import numpy as np
import pytest

from hexmimo.config import InterferenceMode
from hexmimo.errors import ConvergenceError, DomainError
from hexmimo.hexgrid import (CellIndex, bs_position, cells_in_tier,
                             sample_ue_positions, tier_of)
from hexmimo.moments import REL_TOL, MomentEntry, MomentTable, build_table

AVG = InterferenceMode.AVERAGE
WORST = InterferenceMode.WORST_CASE


def test_own_cell_moment_is_exactly_one():
    # power control makes the own-cell ratio identically 1: stored exactly,
    # never estimated, however few samples the table draws
    own = build_table(3.5, AVG, n_samples=10, seed=3).entry(CellIndex(0, 0))
    assert (own.mu1, own.mu2, own.se1, own.se2) == (1.0, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("kappa", [3.5, 5.0])
def test_adjacent_worst_case_is_one(kappa):
    # shared-edge midpoint is equidistant from both BSs, so the ratio is 1
    entry = build_table(kappa, WORST).entry(CellIndex(1, 0))
    assert math.isclose(entry.mu1, 1.0, rel_tol=1e-12)
    assert entry.se1 == 0.0


def test_invalid_arguments():
    with pytest.raises(DomainError):
        build_table(1.5, AVG, n_samples=10)
    with pytest.raises(DomainError):
        build_table(math.nan, WORST)
    with pytest.raises(DomainError):
        build_table(3.5, AVG, n_samples=0)


def _triangle_hexagon_samples(rng, n, min_frac):
    """Independent unit-hexagon sampler: pick one of the six equilateral
    triangles, then a uniform point in it; resample inside the exclusion disk."""
    corners = np.array([(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3))
                        for k in range(6)])
    out = np.empty((n, 2))
    have = 0
    while have < n:
        m = 2 * (n - have)
        idx = rng.integers(0, 6, size=m)
        u = rng.random(m)
        v = rng.random(m)
        flip = u + v > 1.0
        u[flip] = 1.0 - u[flip]
        v[flip] = 1.0 - v[flip]
        pts = u[:, None] * corners[idx] + v[:, None] * corners[(idx + 1) % 6]
        keep = pts[:, 0] ** 2 + pts[:, 1] ** 2 >= min_frac ** 2
        pts = pts[keep]
        take = min(n - have, len(pts))
        out[have:have + take] = pts[:take]
        have += take
    return out


def test_adjacent_average_moment_against_independent_sampler(fullres_tables):
    # brute-force oracle with a structurally different hexagon sampler
    kappa = 3.5
    n = 10 ** 6
    entry = fullres_tables[AVG].entry(CellIndex(1, 0))
    w = _triangle_hexagon_samples(np.random.default_rng(200), n, 0.14)
    b = bs_position(CellIndex(1, 0), 1.0)
    ratio = np.linalg.norm(w, axis=1) / np.linalg.norm(w + b, axis=1)
    samples = ratio ** kappa
    oracle = samples.mean()
    oracle_se = samples.std(ddof=1) / math.sqrt(n)
    assert 0.0 < entry.mu1 < 1.0
    assert abs(entry.mu1 - oracle) < 5.0 * math.hypot(entry.se1, oracle_se)


def test_average_moment_reproducible_across_seeds(avg_table, fullres_tables):
    # independent seeds and sample counts agree within their standard errors
    a = avg_table.entry(CellIndex(1, 0))
    b = fullres_tables[AVG].entry(CellIndex(1, 0))
    assert abs(a.mu1 - b.mu1) < 4.0 * math.hypot(a.se1, b.se1)


def test_jensen_holds_exactly_on_stored_values(avg_table, worst_table):
    for table in (avg_table, worst_table):
        for entry in table.entries.values():
            assert entry.mu2 >= entry.mu1 * entry.mu1
            assert entry.mu1 > 0.0 and entry.mu2 > 0.0
    # equality in worst-case mode (deterministic position)
    for offset, entry in worst_table.entries.items():
        if offset != (0, 0):
            assert entry.mu2 == entry.mu1 * entry.mu1


def test_table_has_exact_own_entry(avg_table, worst_table):
    for table in (avg_table, worst_table):
        own = table.entry(CellIndex(0, 0))
        assert (own.mu1, own.mu2, own.se1, own.se2) == (1.0, 1.0, 0.0, 0.0)


def test_build_is_deterministic_per_seed():
    t1 = build_table(3.5, AVG, n_samples=20000, seed=9)
    t2 = build_table(3.5, AVG, n_samples=20000, seed=9)
    assert t1.entries == t2.entries
    t3 = build_table(3.5, AVG, n_samples=20000, seed=10)
    assert t3.entries != t1.entries


def test_moment_is_invariant_to_radius_and_reference():
    # recompute the adjacent moment from positions laid out at r = 250:
    # the ratio cancels both the radius and the pathloss reference
    from hexmimo.hexgrid import sample_ue_positions

    kappa, n = 3.5, 10 ** 5
    value = build_table(kappa, AVG, n_samples=n, seed=42).entry(CellIndex(1, 0)).mu1
    r = 250.0
    cell = CellIndex(1, 0)
    pts = sample_ue_positions(cell, r, 0.14, np.random.default_rng(42), n)
    serving = np.linalg.norm(pts - bs_position(cell, r), axis=1)
    victim = np.linalg.norm(pts - bs_position(CellIndex(0, 0), r), axis=1)
    scaled = float(((serving / victim) ** kappa).mean())
    assert math.isclose(value, scaled, rel_tol=1e-11)


def test_tier_decay_and_extension(avg_table):
    # kappa = 3.5: per-tier share decays ~ t^-2.5; tier 5 is already below 1e-2
    # of the total, yet the table keeps extending past it
    assert avg_table.max_tier > 5
    total = sum(e.mu1 for e in avg_table.entries.values())
    tier5 = sum(avg_table.entry(c).mu1 for c in cells_in_tier(5))
    assert tier5 / total < 1e-2
    tier_last = sum(avg_table.entry(c).mu1 for c in cells_in_tier(avg_table.max_tier))
    assert tier_last / total <= avg_table.rel_tol


def test_first_tier_dominates_second(avg_table):
    t1 = [avg_table.entry(c) for c in cells_in_tier(1)]
    t2 = [avg_table.entry(c) for c in cells_in_tier(2)]
    m1 = min(e.mu1 for e in t1)
    m2 = max(e.mu1 for e in t2)
    se = 3 * (max(e.se1 for e in t1) + max(e.se1 for e in t2))
    assert m1 > m2 + se


def test_lattice_symmetry_of_moments(avg_table):
    # offsets related by 60-degree rotation carry equal moments up to MC error
    def rot(c):
        return CellIndex(-c.a2, c.a1 + c.a2)

    for start in [CellIndex(1, 0), CellIndex(1, 1), CellIndex(2, 0)]:
        orbit = [start]
        for _ in range(5):
            orbit.append(rot(orbit[-1]))
        entries = [avg_table.entry(c) for c in orbit]
        mean = sum(e.mu1 for e in entries) / len(entries)
        for e in entries:
            assert abs(e.mu1 - mean) < 3.0 * max(e.se1, 1e-12)


def test_worst_case_dominates_average(avg_table, worst_table):
    shared = set(avg_table.entries) & set(worst_table.entries)
    assert len(shared) > 30
    for offset in shared:
        if offset == (0, 0):
            continue
        a, w = avg_table.entry(offset), worst_table.entry(offset)
        assert w.mu1 >= a.mu1 - 3 * a.se1
        assert w.mu2 >= a.mu2 - 3 * a.se2


def test_convergence_error_near_kappa_two():
    with pytest.raises(ConvergenceError):
        build_table(2.0, AVG, n_samples=2000, seed=0)


def test_serialization_roundtrip(tmp_path, avg_table):
    path = tmp_path / "moments.json"
    avg_table.save(path)
    loaded = MomentTable.load(path)
    assert loaded.entries == avg_table.entries
    assert loaded.mode is avg_table.mode
    assert (loaded.kappa, loaded.n_samples, loaded.seed, loaded.rel_tol,
            loaded.min_frac) == (avg_table.kappa, avg_table.n_samples,
                                 avg_table.seed, avg_table.rel_tol,
                                 avg_table.min_frac)


def test_serialization_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(DomainError):
        MomentTable.load(path)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda d: d["entries"].pop(), id="tier-cut"),
    # complete tiers 0..2 only: short of the tier the stop rule keeps
    pytest.param(lambda d: d.update(max_tier=2, entries=d["entries"][:19]),
                 id="tiers-dropped"),
    pytest.param(lambda d: d["entries"][0].update(mu1=2.0), id="own-cell"),
    pytest.param(lambda d: d["entries"].append(dict(d["entries"][1])),
                 id="offset-repeated"),
    pytest.param(lambda d: d["entries"][-1].update(offset=[10 ** 9, 0]),
                 id="offset-far"),
    pytest.param(lambda d: d.update(max_tier=d["max_tier"] + 1), id="max-tier"),
    pytest.param(lambda d: d["entries"][2].update(mu1=math.nan), id="mu1-nan"),
    pytest.param(lambda d: d["entries"][2].update(mu2=math.inf), id="mu2-inf"),
    pytest.param(lambda d: d["entries"][2].update(mu2=0.0), id="mu2-zero"),
    pytest.param(lambda d: d["entries"][2].update(mu1="1.0"), id="mu1-string"),
])
def test_serialization_rejects_incomplete_or_invalid_entries(worst_table, edit):
    data = worst_table.to_dict()
    edit(data)
    with pytest.raises(DomainError):
        MomentTable.from_dict(data)


def test_entry_lookup_errors(avg_table):
    far = CellIndex(40, 40)
    assert not avg_table.covers([far])
    with pytest.raises(DomainError):
        avg_table.entry(far)


def test_offsets_ordering(avg_table):
    offsets = avg_table.offsets
    tiers = [tier_of(c) for c in offsets]
    assert tiers == sorted(tiers)
    assert offsets[0] == CellIndex(0, 0)


def _ratio_pow_pool(offset, kappa, pool, serving_sq):
    """ratio^kappa for the whole pool as one array expression."""
    b = bs_position(offset, 1.0)
    dx = pool[:, 0] + b[0]
    dy = pool[:, 1] + b[1]
    victim_sq = dx * dx + dy * dy
    return (serving_sq / victim_sq) ** (kappa / 2.0)


def _mean_and_se(values):
    n = values.size
    mean = float(values.mean())
    if n < 2:
        return mean, math.inf
    return mean, float(values.std(ddof=1) / math.sqrt(n))


@lru_cache(maxsize=None)
def _reference_average_entries(kappa, n_samples, seed):
    """The serial whole-array build: one fresh ratio array per offset and
    numpy's own mean and std, tier by tier until the same stop rule holds."""
    rng = np.random.default_rng(seed)
    pool = sample_ue_positions(CellIndex(0, 0), 1.0, 0.14, rng, n_samples)
    serving_sq = pool[:, 0] ** 2 + pool[:, 1] ** 2
    entries = {CellIndex(0, 0): MomentEntry(1.0, 1.0, 0.0, 0.0)}
    total_mu1 = 1.0
    for tier in range(1, 13):
        tier_mu1 = 0.0
        for cell in cells_in_tier(tier):
            x = _ratio_pow_pool(cell, kappa, pool, serving_sq)
            mu1, se1 = _mean_and_se(x)
            mu2, se2 = _mean_and_se(x * x)
            entries[cell] = MomentEntry(mu1, mu2, se1, se2)
            tier_mu1 += mu1
        total_mu1 += tier_mu1
        if tier_mu1 <= REL_TOL * total_mu1:
            return entries
    raise AssertionError("reference build did not converge")


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("kappa", [3.5, 4.0])
@pytest.mark.parametrize("n", [1, 10, 2 ** 15 + 1, 100_003])
def test_blocked_parallel_build_equals_whole_array_reference(n, kappa, cpus,
                                                            monkeypatch):
    # below one block, across a block boundary, not a multiple of the block;
    # one worker and more workers than this host may have cores
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the workers as often as possible
    try:
        table = build_table(kappa, AVG, n_samples=n, seed=n % 7)
    finally:
        sys.setswitchinterval(interval)
    reference = _reference_average_entries(kappa, n, n % 7)
    assert set(table.entries) == set(reference)
    for cell, ref in reference.items():
        got = table.entries[cell]
        assert (got.mu1, got.mu2, got.se1, got.se2) == (ref.mu1, ref.mu2,
                                                        ref.se1, ref.se2), cell


def test_worker_count_is_capped_at_the_first_tier(monkeypatch):
    # scratch is 16 bytes * n per worker: a many-core host must not scale it
    sizes = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    build_table(3.5, AVG, n_samples=100, seed=0)
    build_table(3.5, WORST)
    assert sizes == [6]
