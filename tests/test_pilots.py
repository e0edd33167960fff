import math

import numpy as np
import pytest

from hexmimo.hexgrid import CellIndex, bs_position, cells_in_tier, reuse_group
from hexmimo.config import Schedule

from reference import assign, cells_within_tier, inner_product


def test_assign_examples_beta3():
    schedule = Schedule(n_antennas=100, n_users=10, reuse_factor=3)
    assert schedule.pilot_len == 30
    assert assign(schedule, 0, 1) == 1
    assert assign(schedule, 2, 10) == 30


def test_assign_universal_reuse_is_identity():
    schedule = Schedule(n_antennas=100, n_users=7, reuse_factor=1)
    for k in range(1, 8):
        assert assign(schedule, 0, k) == k


def test_assign_is_bijective_onto_book():
    schedule = Schedule(n_antennas=100, n_users=4, reuse_factor=7)
    seen = {assign(schedule, g, k) for g in range(7) for k in range(1, 5)}
    assert seen == set(range(1, schedule.pilot_len + 1))


def test_assign_out_of_range():
    schedule = Schedule(n_antennas=100, n_users=4, reuse_factor=3)
    with pytest.raises(IndexError):
        assign(schedule, 3, 1)
    with pytest.raises(IndexError):
        assign(schedule, 0, 0)
    with pytest.raises(IndexError):
        assign(schedule, 0, 5)


def test_inner_product_diagonal_and_off():
    assert inner_product(5, 5, 30) == 30.0
    assert inner_product(5, 6, 30) == 0.0
    assert sum(inner_product(5, i, 30) for i in range(1, 31)) == 30.0
    with pytest.raises(IndexError):
        inner_product(0, 5, 30)


def test_orthogonality_collapse_matches_reuse_partition():
    # inner product is B exactly when same reuse group and same user slot
    schedule = Schedule(n_antennas=100, n_users=3, reuse_factor=3)
    b = schedule.pilot_len
    cells = cells_within_tier(2)
    for c1 in cells:
        for c2 in cells:
            g1, g2 = reuse_group(c1, 3), reuse_group(c2, 3)
            for k1 in range(1, 4):
                for k2 in range(1, 4):
                    ip = inner_product(assign(schedule, g1, k1),
                                       assign(schedule, g2, k2), b)
                    same = (g1 == g2) and (k1 == k2)
                    assert ip == (b if same else 0.0)


def test_intra_cell_assignment_injective():
    schedule = Schedule(n_antennas=100, n_users=9, reuse_factor=4)
    for g in range(4):
        idx = [assign(schedule, g, k) for k in range(1, 10)]
        assert len(set(idx)) == len(idx)


def _copilot_mates(beta, cells, n_users=2):
    """Cells other than the origin whose users reuse the origin's pilots,
    found by the per-user pilot rule: assign(schedule, group, user)."""
    schedule = Schedule(n_antennas=100, n_users=n_users, reuse_factor=beta)
    origin = [assign(schedule, reuse_group(CellIndex(0, 0), beta), k)
              for k in range(1, n_users + 1)]
    return [c for c in cells if c != (0, 0)
            and [assign(schedule, reuse_group(c, beta), k)
                 for k in range(1, n_users + 1)] == origin]


def test_copilot_cells_universal_reuse():
    cells = cells_within_tier(2)
    assert set(_copilot_mates(1, cells)) == set(cells) - {CellIndex(0, 0)}


def test_copilot_cells_beta3_nearest_distance():
    mates = _copilot_mates(3, cells_within_tier(4))
    dist = min(np.linalg.norm(bs_position(c, 1.0)) for c in mates)
    assert math.isclose(dist, 3.0, rel_tol=1e-12)  # sqrt(3 * 3) * r


def test_copilot_cells_beta7_excludes_first_tier():
    mates = _copilot_mates(7, cells_within_tier(3))
    assert mates and not set(mates) & set(cells_in_tier(1))
