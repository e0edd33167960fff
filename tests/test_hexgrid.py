import math

import numpy as np
import pytest
from scipy import stats

from hexmimo.errors import DomainError, UnsupportedReuse
from hexmimo.hexgrid import (CellIndex, bs_position, cells_in_tier,
                             reuse_group, sample_ue_positions, tier_of,
                             worst_case_positions)

from reference import cells_within_tier, contains

SQRT3 = math.sqrt(3.0)


def test_bs_position_examples():
    assert np.allclose(bs_position(CellIndex(0, 0), 1.0), [0.0, 0.0])
    assert np.allclose(bs_position(CellIndex(1, 0), 1.0), [1.5, SQRT3 / 2])
    # direct evaluation of the basis combination at r=2: (3, 3*sqrt(3))
    assert np.allclose(bs_position(CellIndex(1, 1), 2.0), [3.0, 5.196152422706632])


def test_bs_positions_are_distinct():
    cells = cells_within_tier(4)
    positions = {tuple(np.round(bs_position(c, 1.0), 9)) for c in cells}
    assert len(positions) == len(cells)


def test_adjacent_bs_distance_is_sqrt3_r():
    for r in (1.0, 250.0):
        d = np.linalg.norm(bs_position(CellIndex(1, 0), r) - bs_position(CellIndex(0, 0), r))
        assert math.isclose(d, SQRT3 * r, rel_tol=1e-12)


def test_tier_structure():
    assert tier_of(CellIndex(0, 0)) == 0
    assert [len(cells_in_tier(t)) for t in range(5)] == [1, 6, 12, 18, 24]
    assert len(cells_within_tier(3)) == 1 + 6 + 12 + 18
    # every tier-1 cell really is at the adjacent distance
    for c in cells_in_tier(1):
        assert math.isclose(np.linalg.norm(bs_position(c, 1.0)), SQRT3, rel_tol=1e-12)


def test_contains_center_and_corner():
    r = 2.0
    c = CellIndex(2, -1)
    center = bs_position(c, r)
    assert contains(c, center, r)
    corner_dir = np.array([1.0, 0.0])
    assert contains(c, center + 1.0 * r * corner_dir, r)
    assert not contains(c, center + 1.01 * r * corner_dir, r)


def test_shared_edge_midpoint_membership_and_tie_rule():
    # hexagons are closed: a point on a shared edge belongs to both cells
    r = 1.0
    a, b = CellIndex(0, 0), CellIndex(1, 0)
    midpoint = 0.5 * (bs_position(a, r) + bs_position(b, r))
    assert contains(a, midpoint, r)
    assert contains(b, midpoint, r)


def test_reuse_group_universal():
    for c in cells_within_tier(3):
        assert reuse_group(c, 1) == 0


def test_reuse_group_beta3_examples():
    assert reuse_group(CellIndex(0, 0), 3) == reuse_group(CellIndex(1, 1), 3)
    assert reuse_group(CellIndex(0, 0), 3) != reuse_group(CellIndex(1, 0), 3)
    # all six neighbors leave the origin's group
    neighbors = cells_in_tier(1)
    assert all(reuse_group(c, 3) != 0 for c in neighbors)
    assert sorted({reuse_group(c, 3) for c in neighbors}) == [1, 2]


@pytest.mark.parametrize("beta", [1, 3, 4, 7])
def test_nearest_cochannel_distance(beta):
    group0 = [c for c in cells_within_tier(4) if c != (0, 0) and reuse_group(c, beta) == 0]
    nearest = min(np.linalg.norm(bs_position(c, 1.0)) for c in group0)
    assert math.isclose(nearest, math.sqrt(3 * beta), rel_tol=1e-12)


@pytest.mark.parametrize("beta", [1, 3, 4, 7])
def test_group_sizes_balanced(beta):
    cells = cells_within_tier(6)
    counts = [0] * beta
    for c in cells:
        counts[reuse_group(c, beta)] += 1
    assert min(counts) > 0
    # exact balance holds on full clusters; a tier ball adds boundary slack
    assert max(counts) - min(counts) <= 12


def test_reuse_group_translation_invariance():
    # shifting by integer combinations of the cluster shift pair keeps the group
    shifts = {1: (1, 0), 3: (1, 1), 4: (2, 0), 7: (2, 1)}
    rng = np.random.default_rng(5)
    for beta, (i, j) in shifts.items():
        s1 = np.array([i, j])
        s2 = np.array([-j, i + j])  # 60-degree rotation of s1
        for _ in range(50):
            c = rng.integers(-20, 20, size=2)
            k = rng.integers(-5, 5, size=2)
            shifted = c + k[0] * s1 + k[1] * s2
            assert reuse_group(CellIndex(*c), beta) == reuse_group(CellIndex(*shifted), beta)


def test_unsupported_reuse():
    with pytest.raises(UnsupportedReuse):
        reuse_group(CellIndex(0, 0), 5)


def test_sample_positions_inside_hexagon_and_outside_hole():
    rng = np.random.default_rng(11)
    cell = CellIndex(1, -1)
    r = 250.0
    pts = sample_ue_positions(cell, r, 0.14, rng, 20000)
    center = bs_position(cell, r)
    dist = np.linalg.norm(pts - center, axis=1)
    assert np.all(dist >= 0.14 * r)
    assert np.all(dist <= r + 1e-9)
    for p in pts[:200]:
        assert contains(cell, p, r)


def test_sample_positions_mean_is_center():
    rng = np.random.default_rng(12)
    r = 1.0
    pts = sample_ue_positions(CellIndex(0, 0), r, 0.14, rng, 10 ** 5)
    se = pts.std(axis=0) / math.sqrt(len(pts))
    assert np.all(np.abs(pts.mean(axis=0)) < 3 * se)


def test_sample_positions_uniform_over_sectors():
    # chi-squared uniformity over the 6 wedges at significance 0.01
    rng = np.random.default_rng(13)
    pts = sample_ue_positions(CellIndex(0, 0), 1.0, 0.14, rng, 10 ** 5)
    sector = (np.degrees(np.arctan2(pts[:, 1], pts[:, 0])) // 60).astype(int) % 6
    observed = np.bincount(sector, minlength=6)
    expected = len(pts) / 6.0
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.ppf(0.99, df=5)


def test_sample_positions_scale_exactly_with_radius():
    pts1 = sample_ue_positions(CellIndex(0, 0), 1.0, 0.14, np.random.default_rng(7), 1000)
    pts2 = sample_ue_positions(CellIndex(0, 0), 2.0, 0.14, np.random.default_rng(7), 1000)
    assert np.array_equal(2.0 * pts1, pts2)


def _area_within(r):
    """Area of the unit hexagon within distance r of its center: the disk's,
    less the six caps beyond the edges once r passes the apothem."""
    apothem = SQRT3 / 2.0
    caps = np.sqrt(np.maximum(r * r - apothem ** 2, 0.0))
    return math.pi * r * r - 6.0 * (r * r * np.arccos(apothem / np.maximum(r, apothem))
                                    - apothem * caps)


def _radius_cdf(r, min_frac):
    """P(|p - center| <= r) for p uniform on the unit hexagon minus the disk
    of radius min_frac."""
    hole = _area_within(min_frac)
    return (_area_within(np.clip(r, min_frac, 1.0)) - hole) / (1.5 * SQRT3 - hole)


# 0.95 is past the apothem, where the hole's area inside the hexagon is less
# than the disk's and only about 0.8 % of the candidates are kept
@pytest.mark.parametrize("min_frac", [0.0, 0.14, 0.5, 0.95])
@pytest.mark.parametrize("n", [1, 100_000])
def test_sample_positions_follow_the_exact_radius_law(n, min_frac):
    # KS test of the distance to the BS against its exact CDF, from one call
    # of 100,000 points or from single-point calls; the p-values of 20 seeds
    # spread uniformly over (0, 1), so a fixed seed is held to 0.001
    rng = np.random.default_rng(17)
    cell = CellIndex(2, -1)
    calls = 20_000 if n == 1 else 1
    pts = np.concatenate([sample_ue_positions(cell, 1.0, min_frac, rng, n)
                          for _ in range(calls)])
    dist = np.linalg.norm(pts - bs_position(cell, 1.0), axis=1)
    assert stats.kstest(dist, lambda r: _radius_cdf(r, min_frac)).pvalue > 0.001


def _wedge_angle_cdf(phi, min_frac):
    """P(angle mod 60 degrees <= phi) for the same law: in the wedge between
    two corners the far edge sits at r = apothem / cos(phi - 30 degrees)."""
    half_a2 = 3.0 / 8.0  # apothem^2 / 2
    area = half_a2 * (np.tan(phi - math.pi / 6) + math.tan(math.pi / 6)) \
        - 0.5 * min_frac ** 2 * phi
    return area / (math.sqrt(3.0) / 4.0 - 0.5 * min_frac ** 2 * math.pi / 3)


@pytest.mark.parametrize("min_frac", [0.0, 0.14, 0.5])
def test_sample_positions_follow_the_exact_angle_law(min_frac):
    # the radius law says nothing of how the points spread over angle: KS
    # test of the angle within each 60-degree wedge against its exact CDF
    rng = np.random.default_rng(19)
    cell = CellIndex(-1, 2)
    rel = sample_ue_positions(cell, 1.0, min_frac, rng, 100_000) - bs_position(cell, 1.0)
    phi = np.arctan2(rel[:, 1], rel[:, 0]) % (math.pi / 3)
    assert stats.kstest(phi, lambda p: _wedge_angle_cdf(p, min_frac)).pvalue > 0.001


def _worst_case_position(interferer, victim, r):
    """The worst-case point of `interferer` for a victim BS anywhere on a
    grid of radius r: the lattice is translation invariant and scales."""
    offset = CellIndex(interferer.a1 - victim.a1, interferer.a2 - victim.a2)
    return r * worst_case_positions([offset])[0] + bs_position(victim, r)


def test_worst_case_adjacent_is_shared_edge_midpoint():
    r = 250.0
    p = _worst_case_position(CellIndex(0, 0), CellIndex(1, 0), r)
    midpoint = 0.5 * bs_position(CellIndex(1, 0), r)
    assert np.allclose(p, midpoint, atol=1e-9 * r)
    for cell in (CellIndex(0, 0), CellIndex(1, 0)):
        d = np.linalg.norm(p - bs_position(cell, r))
        assert math.isclose(d, SQRT3 * r / 2, rel_tol=1e-12)


def _project_on_hexagon_boundary(p, cell, r):
    center = bs_position(cell, r)
    corners = center + r * np.array(
        [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)])
    best, best_d = None, math.inf
    for k in range(6):
        a, b = corners[k], corners[(k + 1) % 6]
        t = min(1.0, max(0.0, float(np.dot(p - a, b - a) / np.dot(b - a, b - a))))
        q = a + t * (b - a)
        d = float(np.linalg.norm(q - p))
        if d < best_d:
            best, best_d = q, d
    return best, best_d


def test_worst_case_properties_on_random_pairs():
    rng = np.random.default_rng(21)
    r = 1.0
    for _ in range(60):
        interferer = CellIndex(*rng.integers(-4, 5, size=2))
        victim = CellIndex(*rng.integers(-4, 5, size=2))
        if interferer == victim:
            continue
        p = _worst_case_position(interferer, victim, r)
        # lies on the hexagon boundary: re-projecting changes nothing
        assert contains(interferer, p, r)
        projected, gap = _project_on_hexagon_boundary(p, interferer, r)
        assert gap < 1e-12
        assert np.allclose(projected, p, atol=1e-12)
        # closer to the victim than the interferer's BS is
        bs_dist = np.linalg.norm(bs_position(interferer, r) - bs_position(victim, r))
        assert np.linalg.norm(p - bs_position(victim, r)) < bs_dist


def test_worst_case_own_cell_rejected():
    with pytest.raises(DomainError):
        worst_case_positions([CellIndex(1, 1), CellIndex(0, 0)])


def test_worst_case_positions_equal_the_per_segment_projection():
    cells = [c for tier in range(1, 13) for c in cells_in_tier(tier)]
    expected = [_project_on_hexagon_boundary(np.zeros(2), c, 1.0)[0] for c in cells]
    np.testing.assert_allclose(worst_case_positions(cells), expected, rtol=0, atol=1e-12)
