"""Hexagonal lattice geometry: BS placement, reuse coloring, UE sampling.

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

# Lattice basis for a unit-radius grid, as columns of a 2x2 matrix.
_BASIS = np.array([[1.5, 0.0],
                   [SQRT3 / 2.0, SQRT3]])

# Corners of the unit hexagon centered at the origin.
_CORNERS = np.array([(math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0))
                     for k in range(6)])

# Outward edge normals (three axes; opposite edges share an axis).
_EDGE_AXES = np.array([(math.cos(a), math.sin(a))
                       for a in (math.pi / 6.0, math.pi / 2.0, 5.0 * math.pi / 6.0)])
_APOTHEM = SQRT3 / 2.0
_SAMPLE_BLOCK = 2 ** 16  # rows per block of a rejection round's draw

# Co-channel shift pair (i, j) per supported cluster size beta = i^2 + i*j + j^2.
_REUSE_SHIFT = {1: (1, 0), 3: (1, 1), 4: (2, 0), 7: (2, 1)}


class CellIndex(NamedTuple):
    """Integer lattice pair addressing one hexagonal cell."""

    a1: int
    a2: int


def bs_position(cell: CellIndex, radius: float) -> np.ndarray:
    """Position of the BS of `cell` on a grid with cell radius `radius`."""
    return radius * (_BASIS @ np.array([cell.a1, cell.a2], dtype=float))


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

    Rejection sampling from the bounding box of the unit hexagon; the draw is
    made at unit radius and scaled afterwards, so a given generator state
    yields the same (scaled) points for every radius.  Each rejection round
    draws its rows in blocks of `_SAMPLE_BLOCK`, so the temporaries stay
    bounded whatever n is.  Blocks are drawn in order, and a round's blocks
    after the quota fills are still drawn and discarded: points and final
    generator state are those of one draw of the whole round.  The edge test
    of every block writes into the same two buffers.
    """
    if not 0.0 <= min_frac < 1.0:
        raise DomainError(f"min_frac must be in [0, 1), got {min_frac}")
    accepted = np.empty((n, 2))
    have = 0
    rows = min(_SAMPLE_BLOCK, max(64, int(1.5 * n)))  # the largest block drawn
    proj_buf = np.empty((rows, 3))
    edge_buf = np.empty(rows)
    # acceptance ratio ~ 0.73 for min_frac = 0.14
    while have < n:
        m = max(64, int(1.5 * (n - have)))
        for start in range(0, m, _SAMPLE_BLOCK):
            pts = rng.uniform(-1.0, 1.0, size=(min(_SAMPLE_BLOCK, m - start), 2))
            if have == n:
                continue
            pts[:, 1] *= _APOTHEM
            proj = np.matmul(pts, _EDGE_AXES.T, out=proj_buf[:len(pts)])
            np.abs(proj, out=proj)
            edge = np.maximum(proj[:, 0], proj[:, 1], out=edge_buf[:len(pts)])
            inside = np.maximum(edge, proj[:, 2], out=edge) <= _APOTHEM
            if min_frac > 0.0:
                inside &= (pts[:, 0] ** 2 + pts[:, 1] ** 2) >= min_frac ** 2
            pts = pts[inside]
            take = min(n - have, pts.shape[0])
            accepted[have:have + take] = pts[:take]
            have += take
    return radius * accepted + bs_position(cell, radius)


def worst_case_position(interferer_cell: CellIndex, victim_bs: CellIndex,
                        radius: float) -> np.ndarray:
    """Cell-edge point of the interfering cell closest to the victim BS.

    Computed as the Euclidean projection of the victim BS position onto the
    boundary of the interferer's hexagon (closest point on a convex polygon
    from an exterior point).
    """
    if interferer_cell == victim_bs:
        raise DomainError("own cell has no worst-case interferer position")
    center = bs_position(interferer_cell, radius)
    target = bs_position(victim_bs, radius)
    corners = center + radius * _CORNERS
    best = None
    best_d2 = math.inf
    for k in range(6):
        p = _project_on_segment(target, corners[k], corners[(k + 1) % 6])
        d2 = float(np.sum((p - target) ** 2))
        if d2 < best_d2:
            best_d2 = d2
            best = p
    return best


def _project_on_segment(q: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ab = b - a
    t = float(np.dot(q - a, ab) / np.dot(ab, ab))
    t = min(1.0, max(0.0, t))
    return a + t * ab
