import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import hexmimo.moments
from hexmimo.config import HEX_REUSE_FACTORS, InterferenceMode
from hexmimo.errors import ConvergenceError, DomainError
from hexmimo.hexgrid import (CellIndex, bs_position, cells_in_tier, reuse_group,
                             sample_ue_positions, tier_of, worst_case_positions)
from hexmimo.moments import REL_TOL, MomentTable, _hexagon_rule, build_table
from hexmimo.spectral import CopilotSums, asymptotic_se

from reference import cells_within_tier, contains

AVG = InterferenceMode.AVERAGE
WORST = InterferenceMode.WORST_CASE


def test_own_cell_moment_is_exactly_one():
    # power control makes the own-cell ratio identically 1: stored exactly,
    # never integrated
    own = build_table(3.5, AVG, min_frac=0.9).entry(CellIndex(0, 0))
    assert (own.mu1, own.mu2) == (1.0, 1.0)


@pytest.mark.parametrize("kappa", [3.5, 5.0])
def test_adjacent_worst_case_is_one(kappa):
    # shared-edge midpoint is equidistant from both BSs, so the ratio is 1
    entry = build_table(kappa, WORST).entry(CellIndex(1, 0))
    assert math.isclose(entry.mu1, 1.0, rel_tol=1e-12)
    assert math.isclose(entry.mu2, 1.0, rel_tol=1e-12)


def test_invalid_arguments():
    with pytest.raises(DomainError):
        build_table(1.5, AVG)
    with pytest.raises(DomainError):
        build_table(math.nan, WORST)
    for mode in ("avg", "worst", None):  # a string is not read as a mode
        with pytest.raises(DomainError, match="InterferenceMode"):
            build_table(3.5, mode)
    for min_frac in (-0.1, 1.0, math.nan):
        with pytest.raises(DomainError):
            build_table(3.5, AVG, min_frac=min_frac)


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
    assert abs(entry.mu1 - oracle) < 4.0 * oracle_se


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
        assert (own.mu1, own.mu2) == (1.0, 1.0)


@pytest.mark.parametrize("mode", [AVG, WORST])
def test_build_is_deterministic(mode):
    # neither mode draws a random number: two builds agree bit for bit
    assert build_table(3.5, mode).entries == build_table(3.5, mode).entries


def test_moment_is_invariant_to_radius_and_reference(avg_table):
    # recompute the adjacent moment from positions laid out at r = 250:
    # the ratio cancels both the radius and the pathloss reference
    kappa, n = 3.5, 10 ** 5
    value = avg_table.entry(CellIndex(1, 0)).mu1
    r = 250.0
    cell = CellIndex(1, 0)
    pts = sample_ue_positions(cell, r, 0.14, np.random.default_rng(42), n)
    serving = np.linalg.norm(pts - bs_position(cell, r), axis=1)
    victim = np.linalg.norm(pts - bs_position(CellIndex(0, 0), r), axis=1)
    scaled = (serving / victim) ** kappa
    assert abs(value - scaled.mean()) < 4.0 * scaled.std(ddof=1) / math.sqrt(n)


def test_tier_decay_and_extension(avg_table):
    # kappa = 3.5: per-tier share decays ~ t^-2.5; tier 5 is already below 1e-2
    # of the total, yet the table keeps extending past it
    assert avg_table.max_tier > 5
    total = sum(e.mu1 for e in avg_table.entries.values())
    tier5 = sum(avg_table.entry(c).mu1 for c in cells_in_tier(5))
    assert tier5 / total < 1e-2
    tier_last = sum(avg_table.entry(c).mu1 for c in cells_in_tier(avg_table.max_tier))
    assert tier_last / total <= REL_TOL


def test_first_tier_dominates_second(avg_table):
    t1 = [avg_table.entry(c) for c in cells_in_tier(1)]
    t2 = [avg_table.entry(c) for c in cells_in_tier(2)]
    assert min(e.mu1 for e in t1) > max(e.mu1 for e in t2)


def _lattice_symmetries(cell):
    """The 12 images of `cell` under the hexagonal lattice's point group: the
    six 60-degree rotations, each with and without the reflection about the
    x axis."""
    images = []
    for c in (cell, CellIndex(cell.a1, -cell.a1 - cell.a2)):  # the reflection
        for _ in range(6):
            images.append(c)
            c = CellIndex(-c.a2, c.a1 + c.a2)  # rotation by 60 degrees
    return images


@pytest.mark.parametrize("mode,kappa,min_frac", [(AVG, 3.5, 0.14), (AVG, 4.0, 0.0),
                                                (AVG, 3.5, 0.9), (WORST, 3.5, 0.14)])
def test_lattice_symmetry_of_moments(mode, kappa, min_frac):
    # the average rule's nodes are invariant under the 12 symmetries, and the
    # worst-case point is found by geometry alone, so offsets related by one
    # carry equal moments up to rounding
    images = _lattice_symmetries(CellIndex(2, 1))
    assert len(set(images)) == 12 and {tier_of(c) for c in images} == {3}
    table = build_table(kappa, mode, min_frac=min_frac)
    for cell, entry in table.entries.items():
        for image in _lattice_symmetries(cell):
            other = table.entry(image)
            assert math.isclose(other.mu1, entry.mu1, rel_tol=1e-13), (cell, image)
            assert math.isclose(other.mu2, entry.mu2, rel_tol=1e-13), (cell, image)


def test_worst_case_dominates_average(avg_table, worst_table):
    shared = set(avg_table.entries) & set(worst_table.entries)
    assert len(shared) > 30
    for offset in shared:
        if offset == (0, 0):
            continue
        a, w = avg_table.entry(offset), worst_table.entry(offset)
        assert w.mu1 > a.mu1 and w.mu2 > a.mu2


def test_convergence_error_near_kappa_two():
    with pytest.raises(ConvergenceError):
        build_table(2.5, AVG)
    with pytest.raises(DomainError):  # the lattice sum diverges at kappa = 2
        build_table(2.0, AVG)


def test_serialization_roundtrip(tmp_path, avg_table):
    path = tmp_path / "moments.json"
    avg_table.save(path)
    loaded = MomentTable.load(path)
    assert loaded.entries == avg_table.entries
    assert loaded.mode is avg_table.mode
    assert (loaded.kappa, loaded.min_frac) == (avg_table.kappa, avg_table.min_frac)


def test_serialization_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(DomainError):
        MomentTable.load(path)


# the sha256 of each moment-table version's file, at the default exponent and
# exclusion disk: a cache holding an older version's numbers is rebuilt only
# because the version moved with them
_TABLE_DIGESTS = {
    3: {AVG: "c43a1666c5de1faafec2de9e6f2c19ebbd749eef5bf40fffec1a1876af75a4c4",
        WORST: "76ad6d34ea604c4a76cdf8108a478d7ba4d5dfe4ec1a95b82df4a2595a4a2d19"},
    4: {AVG: "6d49351d3dd250c9a3c032009888a0025c0220396578216b9e0aa73771c6152e",
        WORST: "17b110cba1926d9c8e560b1447abec5ea9db402d92bae1daf5ffe83b3298d3ad"},
}


@pytest.mark.parametrize("mode", [AVG, WORST])
def test_table_version_pins_the_numbers(fullres_tables, mode):
    # the cache is keyed by the version alone, so the numbers must not move
    # under one version
    text = json.dumps(fullres_tables[mode].to_dict(), indent=1) + "\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert _TABLE_DIGESTS.get(hexmimo.moments._VERSION, {}).get(mode) == digest, (
        f"the {mode.value} table's numbers moved ({digest}): bump "
        "hexmimo.moments._VERSION so that cached tables are rebuilt, and pin "
        "the new digest in _TABLE_DIGESTS")


# both tables and a small validation report, each as the sha256 of its JSON
_HOST_DIGESTS = r'''
import hashlib, json
from hexmimo.cli import run_validation
from hexmimo.config import InterferenceMode, NetworkConfig
from hexmimo.moments import build_table

tables = {mode: build_table(3.5, mode) for mode in InterferenceMode}
records = {mode.value: table.to_dict() for mode, table in tables.items()}
records["validation"] = run_validation(NetworkConfig(1000, 10.0), tables, 0, 400)
print(json.dumps({name: hashlib.sha256(json.dumps(record).encode()).hexdigest()
                  for name, record in records.items()}))
'''


def test_numbers_do_not_depend_on_the_blas_kernel():
    # OpenBLAS picks its kernels by CPU, and a kernel may fuse a multiply-add
    # that another rounds twice; the tables and the oracle stay off BLAS, so
    # an older kernel forced on this host moves no bit
    package = os.path.dirname(os.path.dirname(os.path.abspath(hexmimo.moments.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_CORETYPE", None)
    digests = []
    for coretype in ({}, {"OPENBLAS_CORETYPE": "Nehalem"}):
        proc = subprocess.run([sys.executable, "-c", _HOST_DIGESTS], env={**env, **coretype},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(json.loads(proc.stdout))
    assert digests[0] == digests[1]


@pytest.mark.parametrize("edit", [
    pytest.param(lambda d: d["entries"].pop(), id="tier-cut"),
    # complete tiers 0..2 only: short of the tier the stop rule keeps
    pytest.param(lambda d: d.update(entries=d["entries"][:19]), id="tiers-dropped"),
    pytest.param(lambda d: d["entries"][0].update(mu1=2.0), id="own-cell"),
    pytest.param(lambda d: d["entries"].append(dict(d["entries"][1])),
                 id="offset-repeated"),
    pytest.param(lambda d: d["entries"][-1].update(offset=[10 ** 9, 0]),
                 id="offset-far"),
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


@pytest.mark.parametrize("rel_tol", [1e-2, 5e-4])
def test_table_of_another_tolerance_is_rejected(monkeypatch, rel_tol):
    # the file records no tolerance: re-running the stop rule under REL_TOL
    # on the stored tiers refuses a table whose tiers another one chose
    monkeypatch.setattr(hexmimo.moments, "REL_TOL", rel_tol)
    data = build_table(3.5, AVG).to_dict()
    monkeypatch.undo()
    assert len(data["entries"]) != len(build_table(3.5, AVG).entries)
    with pytest.raises(DomainError):
        MomentTable.from_dict(data)


def test_entry_lookup_errors(avg_table):
    far = CellIndex(40, 40)
    with pytest.raises(DomainError, match="does not cover"):
        avg_table.restricted([CellIndex(0, 0), far])
    with pytest.raises(DomainError):
        avg_table.entry(far)


def test_restricted_table_holds_only_its_cells(avg_table):
    sub = avg_table.restricted([(1, 0), (0, 0), CellIndex(0, -1)])
    assert sub.offsets == ((0, 0), (0, -1), (1, 0))
    assert sub.entries == {c: avg_table.entry(c) for c in sub.offsets}
    assert (sub.mode, sub.kappa, sub.min_frac) == (
        avg_table.mode, avg_table.kappa, avg_table.min_frac)
    assert avg_table.max_tier == 9  # the source table is left whole


def _co_channel_mu2(kappa, mode, cells, min_frac=0.14):
    """mu2 of each offset in `cells` on its own: the average rule around its
    own BS (as in test_tier_expression_equals_per_offset_sum), or the square
    of the ratio at its `worst_case_positions` point."""
    out = {}
    if mode is AVG:
        x, y, weight = _hexagon_rule(min_frac)
        area = math.fsum(weight)
        for cell in cells:
            b = bs_position(cell, 1.0)
            ratio = ((x * x + y * y) / ((x + b[0]) ** 2 + (y + b[1]) ** 2)) ** (kappa / 2)
            out[cell] = math.fsum(weight * ratio * ratio) / area
    else:
        for cell, p in zip(cells, worst_case_positions(cells)):
            b = bs_position(cell, 1.0)
            out[cell] = (float(np.sum((p - b) ** 2) / np.sum(p * p)) ** (kappa / 2)) ** 2
    return out


@pytest.mark.parametrize("mode", [AVG, WORST])
@pytest.mark.parametrize("kappa", [6.0, 7.0, 8.0, 10.0])
def test_tiers_cover_every_co_channel_ring(kappa, mode):
    # the pilot contamination of every supported beta is within REL_TOL of
    # the same sum over twelve tiers: beta = 7's nearest co-channel cells
    # are in tier 3, past where the mu1 rule alone stops at large kappa
    table = build_table(kappa, mode)
    far = _co_channel_mu2(kappa, mode, cells_within_tier(12)[1:])
    for beta in HEX_REUSE_FACTORS:
        mu2_others = CopilotSums.from_table(table, beta).mu2_others
        reference = math.fsum(mu2 for cell, mu2 in far.items()
                              if reuse_group(cell, beta) == 0)
        assert mu2_others > 0, beta
        assert math.isfinite(asymptotic_se(table, 1, beta, 1000).se_per_cell), beta
        assert abs(mu2_others - reference) <= REL_TOL * reference, (
            beta, mu2_others, reference)


def test_table_cut_before_a_co_channel_ring_is_refused():
    # at kappa = 8 tiers 0-2 meet the mu1 rule but hold no beta = 7
    # co-channel cell: loading re-runs the whole stop rule
    data = build_table(8.0, AVG).to_dict()
    data["entries"] = [rec for rec in data["entries"]
                       if tier_of(CellIndex(*rec["offset"])) <= 2]
    with pytest.raises(DomainError, match="converged tiers"):
        MomentTable.from_dict(data)


def test_offsets_ordering(avg_table):
    offsets = avg_table.offsets
    tiers = [tier_of(c) for c in offsets]
    assert tiers == sorted(tiers)
    assert offsets[0] == CellIndex(0, 0)


def _region_area(min_frac):
    """Closed-form area of the unit hexagon minus the disk of radius
    min_frac: past the apothem the disk reaches beyond every edge, and the
    six circular segments outside the hexagon are added back."""
    h = math.sqrt(3.0) / 2.0
    area = 3.0 * math.sqrt(3.0) / 2.0 - math.pi * min_frac ** 2
    if min_frac > h:
        area += 6.0 * (min_frac ** 2 * math.acos(h / min_frac)
                       - h * math.sqrt(min_frac ** 2 - h * h))
    return area


@pytest.mark.parametrize("min_frac", [0.0, 0.14, 0.5, 0.9, 0.99])
def test_rule_weights_sum_to_the_region_area(min_frac):
    x, y, weight = _hexagon_rule(min_frac)
    assert x.shape == y.shape == weight.shape == (12 * hexmimo.moments._NODES ** 2,)
    assert np.all(weight > 0.0)
    assert math.isclose(weight.sum(), _region_area(min_frac), rel_tol=1e-12)
    # every node lies in the region
    assert np.all(np.hypot(x, y) >= min_frac - 1e-15)
    assert all(contains(CellIndex(0, 0), p, 1.0) for p in zip(x, y))


@pytest.mark.parametrize("kappa", [3.5, 4.0])
def test_node_count_is_converged(kappa, monkeypatch):
    table = build_table(kappa, AVG)
    monkeypatch.setattr(hexmimo.moments, "_NODES", 2 * hexmimo.moments._NODES)
    finer = build_table(kappa, AVG)
    assert set(finer.entries) == set(table.entries)
    for cell, entry in table.entries.items():
        assert math.isclose(entry.mu1, finer.entries[cell].mu1, rel_tol=1e-12), cell
        assert math.isclose(entry.mu2, finer.entries[cell].mu2, rel_tol=1e-12), cell


@pytest.mark.parametrize("kappa", [3.5, 4.0])
@pytest.mark.parametrize("min_frac", [0.0, 0.14, 0.9])
def test_tier_expression_equals_per_offset_sum(kappa, min_frac):
    # the rule summed node by node for each offset on its own, against its
    # own BS position: the tier-at-once array expression pairs every cell
    # with its BS and normalizes by the region's area
    table = build_table(kappa, AVG, min_frac=min_frac)
    x, y, weight = _hexagon_rule(min_frac)
    area = math.fsum(weight)
    serving_sq = x * x + y * y
    for cell in table.offsets[1:]:
        b = bs_position(cell, 1.0)
        ratio = (serving_sq / ((x + b[0]) ** 2 + (y + b[1]) ** 2)) ** (kappa / 2.0)
        entry = table.entry(cell)
        assert math.isclose(entry.mu1, math.fsum(weight * ratio) / area,
                            rel_tol=1e-13), cell
        assert math.isclose(entry.mu2, math.fsum(weight * ratio * ratio) / area,
                            rel_tol=1e-13), cell


def _monte_carlo_moments(offsets, kappa, min_frac, n_samples, seed):
    """The Monte Carlo estimator: one pool of uniform positions shared by
    every offset, mean and standard error of ratio^kappa and ratio^(2 kappa)
    per offset, each as one whole-array expression."""
    pool = sample_ue_positions(CellIndex(0, 0), 1.0, min_frac,
                               np.random.default_rng(seed), n_samples)
    serving_sq = pool[:, 0] ** 2 + pool[:, 1] ** 2
    out = {}
    for cell in offsets:
        b = bs_position(cell, 1.0)
        victim_sq = (pool[:, 0] + b[0]) ** 2 + (pool[:, 1] + b[1]) ** 2
        x = (serving_sq / victim_sq) ** (kappa / 2.0)
        out[cell] = [(v.mean(), v.std(ddof=1) / math.sqrt(n_samples))
                     for v in (x, x * x)]
    return out


@pytest.mark.parametrize("kappa", [3.5, 4.0])
@pytest.mark.parametrize("min_frac", [0.14, 0.9])
def test_quadrature_within_monte_carlo_error(kappa, min_frac):
    table = build_table(kappa, AVG, min_frac=min_frac)
    offsets = table.offsets[1:]  # the own cell is exact
    reference = _monte_carlo_moments(offsets, kappa, min_frac, 10 ** 5, seed=11)
    for cell in offsets:
        entry = table.entry(cell)
        for mu, (mean, se) in zip((entry.mu1, entry.mu2), reference[cell]):
            assert abs(mu - mean) < 4.0 * se, cell
