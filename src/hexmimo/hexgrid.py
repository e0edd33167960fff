"""Hexagonal lattice geometry: BS placement, tier sets, reuse coloring, UE
sampling and the worst-case cell-edge points.

Cells are regular hexagons of circumradius r (center to corner) tiling the
plane.  Each cell is addressed by an integer pair (a1, a2); the BS sits at

    b = a1 * (3r/2, sqrt(3) r/2) + a2 * (0, sqrt(3) r).

Both basis vectors have length sqrt(3) r and meet at 60 degrees, so the six
nearest neighbors of a cell are (+-1, 0), (0, +-1), (1, -1), (-1, 1) and the
inter-BS distance between adjacent cells is sqrt(3) r.  Corners sit at angles
0, 60, ..., 300 degrees from the BS so that neighboring hexagons share full
edges.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, UnsupportedReuse

SQRT3 = math.sqrt(3.0)

# Corners of the unit hexagon centered at the origin.
_CORNERS = np.array([(math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0))
                     for k in range(6)])

# The unit hexagon is three rhombi: 0-c0-c1-c2, with c0 = 1 and c2 = e^{i 2pi/3}
# (so c1 = c0 + c2), and its rotations by 120 and 240 degrees.
_C2 = complex(-0.5, SQRT3 / 2.0)
_ROTATIONS = np.array([1.0, _C2, _C2.conjugate()])
_AREA = 1.5 * SQRT3  # of the unit hexagon
_APOTHEM = SQRT3 / 2.0
# The most candidates one rejection round draws.  3 x 4096 uniforms are
# 96 KiB, so each temporary of a round stays below glibc's 128 KiB mmap
# threshold and is reused from the heap.  One round for a whole large call
# mapped fresh pages for every temporary, and those page faults cost more
# than the extra rounds' Python overhead.
_ROUND_ROWS = 1 << 12

# Co-channel shift pair (i, j) per supported cluster size beta = i^2 + i*j + j^2.
_REUSE_SHIFT = {1: (1, 0), 3: (1, 1), 4: (2, 0), 7: (2, 1)}


class CellIndex(NamedTuple):
    """Integer lattice pair addressing one hexagonal cell."""

    a1: int
    a2: int


def cell_centers(cells) -> np.ndarray:
    """(n, 2) BS positions of `cells` on the unit-radius grid, elementwise:
    a BLAS product may fuse a multiply-add, and whether it does depends on
    the host's kernel."""
    a = np.array(cells, dtype=float).reshape(-1, 2)
    return np.stack((1.5 * a[:, 0], SQRT3 / 2.0 * a[:, 0] + SQRT3 * a[:, 1]), axis=1)


def bs_position(cell: CellIndex, radius: float) -> np.ndarray:
    """Position of the BS of `cell` on a grid with cell radius `radius`."""
    return radius * cell_centers([cell])[0]


def tier_of(cell: CellIndex) -> int:
    """Ring number of the cell around the origin (0 for the origin itself)."""
    return (abs(cell.a1) + abs(cell.a2) + abs(cell.a1 + cell.a2)) // 2


def cells_in_tier(tier: int) -> list[CellIndex]:
    """All cells at exactly the given ring distance, in sorted index order."""
    if tier < 0:
        raise DomainError(f"tier must be >= 0, got {tier}")
    if tier == 0:
        return [CellIndex(0, 0)]
    out = []
    for a1 in range(-tier, tier + 1):
        for a2 in range(-tier, tier + 1):
            if (abs(a1) + abs(a2) + abs(a1 + a2)) // 2 == tier:
                out.append(CellIndex(a1, a2))
    return out


def reuse_group(cell: CellIndex, reuse_factor: int) -> int:
    """Reuse-group id of a cell, in {0, ..., beta - 1}.

    Two cells share a group exactly when their index difference lies in the
    co-channel sublattice generated by the shift pair (i, j) with
    beta = i^2 + i*j + j^2 and its 60-degree rotation (-j, i+j).  Nearest
    co-channel BSs are then sqrt(3 * beta) * r apart.  The origin is always
    in group 0.
    """
    if reuse_factor not in _REUSE_SHIFT:
        raise UnsupportedReuse(
            f"reuse factor {reuse_factor} is not one of {sorted(_REUSE_SHIFT)}")
    key = _coset_key(cell.a1, cell.a2, reuse_factor)
    return _coset_ids(reuse_factor)[key]


def _coset_key(a1: int, a2: int, reuse_factor: int) -> tuple[int, int]:
    # adj(M) @ (a1, a2) mod beta is a complete invariant of the coset:
    # M^-1 d is integer iff adj(M) d = 0 (mod det M).
    i, j = _REUSE_SHIFT[reuse_factor]
    return (((i + j) * a1 + j * a2) % reuse_factor,
            (-j * a1 + i * a2) % reuse_factor)


@lru_cache(maxsize=None)
def _coset_ids(reuse_factor: int) -> dict[tuple[int, int], int]:
    # Canonical enumeration: first appearance while scanning the beta x beta
    # box row-major, so the origin's coset always gets id 0.
    ids: dict[tuple[int, int], int] = {}
    for a1 in range(reuse_factor):
        for a2 in range(reuse_factor):
            key = _coset_key(a1, a2, reuse_factor)
            if key not in ids:
                ids[key] = len(ids)
    assert len(ids) == reuse_factor
    return ids


def sample_ue_positions(cell: CellIndex, radius: float, min_frac: float,
                        rng: np.random.Generator, n: int) -> np.ndarray:
    """Sample n UE positions uniformly on the hexagon of `cell`, excluding a
    disk of radius min_frac * radius around the BS.

    Each candidate takes three uniforms u0, u1, u2: the point u0 + u1 c2 is
    uniform on the rhombus 0-c0-c1-c2, and a turn by floor(3 u2) * 120
    degrees makes it uniform on the hexagon.  Only the inner disk is
    rejected: the acceptance is the hexagon's area outside it over the
    hexagon's (0.976 at min_frac 0.14), and past the apothem the disk's
    area inside the hexagon leaves out six caps.  Each round draws the
    expected need plus four standard deviations of the accepted count, so
    a call of up to about 4,000 points rarely needs a second round, but at
    most `_ROUND_ROWS` candidates: a large call runs in small rounds, and
    memory stays bounded as the acceptance falls toward 0 at min_frac 1.
    The draw is made at unit radius and scaled afterwards, so a given
    generator state yields the same (scaled) points for every radius.
    """
    if not 0.0 <= min_frac < 1.0:
        raise DomainError(f"min_frac must be in [0, 1), got {min_frac}")
    hole = math.pi * min_frac ** 2
    if min_frac > _APOTHEM:
        hole -= 6.0 * (min_frac ** 2 * math.acos(_APOTHEM / min_frac)
                       - _APOTHEM * math.sqrt(min_frac ** 2 - _APOTHEM ** 2))
    accept = max(1.0 - hole / _AREA, 1.0 / _ROUND_ROWS)
    points = np.empty(n, dtype=complex)
    have = 0
    while have < n:
        need = n - have
        rows = (need + 4.0 * math.sqrt(need * (1.0 - accept))) / accept
        u = rng.random((3, math.ceil(min(rows, _ROUND_ROWS))))
        z = u[1] * _C2
        z += u[0]
        z *= _ROTATIONS[(3.0 * u[2]).astype(np.intp)]
        if min_frac > 0.0:  # |u0 + u1 c2|^2 = u0^2 - u0 u1 + u1^2
            z = z[u[0] * (u[0] - u[1]) + u[1] * u[1] >= min_frac ** 2]
        take = min(need, len(z))
        points[have:have + take] = z[:take]
        have += take
    out = points.view(float).reshape(n, 2)
    out *= radius
    out += bs_position(cell, radius)
    return out


def sorted_tier_set(cells) -> tuple[CellIndex, ...]:
    """`cells` in (tier, index) order; DomainError unless each is listed once
    and the own cell (0, 0) is among them."""
    cells = tuple(sorted((CellIndex(*c) for c in cells), key=lambda c: (tier_of(c), c)))
    if len(set(cells)) != len(cells):
        raise DomainError("duplicate cells in tier set")
    if CellIndex(0, 0) not in cells:
        raise DomainError("tier set must contain the own cell (0, 0)")
    return cells


def worst_case_positions(cells) -> np.ndarray:
    """(n, 2) cell-edge points of the interfering `cells` nearest the victim
    BS, at unit radius with the victim at the origin: the origin projected
    onto the six edges of every hexagon at once, the nearest projection kept
    (the Euclidean projection of an exterior point onto a convex polygon)."""
    if (0, 0) in cells:
        raise DomainError("own cell has no worst-case interferer position")
    corners = cell_centers(cells)[:, None] + _CORNERS
    edges = np.roll(_CORNERS, -1, axis=0) - _CORNERS             # corner k to k + 1
    t = np.clip(-(corners * edges).sum(axis=2) / (edges * edges).sum(axis=1), 0.0, 1.0)
    points = corners + t[..., None] * edges                      # (n, edge, 2)
    nearest = (points * points).sum(axis=2).argmin(axis=1)
    return points[np.arange(len(points)), nearest]
