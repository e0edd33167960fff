"""Exception types shared across the simulator modules."""


class DomainError(ValueError):
    """A scalar parameter is outside its mathematical domain."""


class PilotOverflow(ValueError):
    """Pilot book does not fit into the coherence block (beta * K > T)."""


class InsufficientAntennas(ValueError):
    """Zero-forcing over the full pilot book requires N > B antennas."""


class UnsupportedReuse(ValueError):
    """Reuse factor has no co-channel sublattice on the hexagonal grid."""


class ConvergenceError(RuntimeError):
    """Adaptive tier expansion hit its cap before reaching the tolerance."""


class EmptyFeasibleSet(RuntimeError):
    """No (K, beta) combination is feasible for some antenna count."""
