"""The operating point (N, K, beta) and its pilot book for fractional reuse.

A pilot book holds B = beta * K mutually orthogonal sequences of length B
with inner product B on the diagonal and 0 off it.  The book is split into
beta blocks of K pilots.  All cells of reuse group g use block g, with user
k taking slot k; cells in the same group therefore collide pilot-for-pilot
and cells in different groups are orthogonal.  The closed forms and the
link-level oracle consume only this collision pattern, by reuse group, so
the library holds no pilot index.  The explicit index map (`assign`), the
inner product and the sequences (DFT columns) live in `tests/reference.py`,
the references the tests compare the closed forms and the oracle against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import check_fields
from .errors import InsufficientAntennas, PilotOverflow


@dataclass(frozen=True)
class Schedule:
    """One operating point: N antennas serve K users per cell on a book of
    B = beta * K pilots.  A field that is not an integer >= 1 raises
    DomainError."""

    n_antennas: int
    n_users: int
    reuse_factor: int

    def __post_init__(self):
        check_fields(self)

    @property
    def pilot_len(self) -> int:
        """Pilot book size B = beta * K."""
        return self.reuse_factor * self.n_users

    def check(self, coherence_block: int, zero_forcing: bool = False) -> None:
        """Raise PilotOverflow unless the pilot book fits a coherence block of
        T channel uses (B <= T) and, for a `zero_forcing` receiver, which
        orthogonalizes the whole book, InsufficientAntennas unless N > B."""
        pilot_len = self.pilot_len
        if pilot_len > coherence_block:
            raise PilotOverflow(
                f"pilot length {pilot_len} exceeds coherence block {coherence_block}")
        if zero_forcing and self.n_antennas <= pilot_len:
            raise InsufficientAntennas(
                f"zero-forcing over B={pilot_len} pilots needs N > B, "
                f"got N={self.n_antennas}")
