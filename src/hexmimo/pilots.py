"""Pilot books and UE-to-pilot assignment for fractional pilot reuse.

A pilot book holds B = beta * K mutually orthogonal sequences of length B
with inner product B on the diagonal and 0 off it.  The closed-form SINR
expressions only consume these inner products, so pilots are represented by
integer indices here; explicit sequences (DFT columns) are materialized only
by the link-level simulator.

The book is split into beta blocks of K pilots.  All cells of reuse group g
use block g, with user k taking slot k; cells in the same group therefore
collide pilot-for-pilot and cells in different groups are orthogonal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class PilotPlan:
    """Pilot book size and assignment rule for one reuse factor."""

    n_users: int
    reuse_factor: int

    def __post_init__(self):
        if self.n_users < 1:
            raise DomainError(f"n_users must be >= 1, got {self.n_users}")
        if self.reuse_factor < 1:
            raise DomainError(f"reuse_factor must be >= 1, got {self.reuse_factor}")

    @property
    def pilot_len(self) -> int:
        """Pilot book size B = beta * K."""
        return self.reuse_factor * self.n_users

    def assign(self, group: int, user: int) -> int:
        """Pilot index (1-based, in {1, ..., B}) of user `user` in a cell of
        reuse group `group`.

        Users are 1-based to match pilot indices; the map is bijective from
        (group, user) onto {1, ..., B}.
        """
        if not 0 <= group < self.reuse_factor:
            raise IndexError(f"group {group} out of range [0, {self.reuse_factor})")
        if not 1 <= user <= self.n_users:
            raise IndexError(f"user {user} out of range [1, {self.n_users}]")
        return group * self.n_users + user


def inner_product(i1: int, i2: int, pilot_len: int) -> float:
    """Inner product of two pilot sequences from an orthogonal book:
    B if the indices match, 0 otherwise."""
    if not (1 <= i1 <= pilot_len and 1 <= i2 <= pilot_len):
        raise IndexError(f"pilot indices must be in [1, {pilot_len}]")
    return float(pilot_len) if i1 == i2 else 0.0

