"""Link-level oracle for the closed-form SINR engine.

Models the actual uplink at one victim BS (placed at the origin cell): UE
positions are drawn per interference mode at unit cell radius, channels are
i.i.d. complex Gaussian with pathloss-dependent variance, transmit powers
invert the average attenuation to the serving BS (so the cell radius and the
pathloss reference cancel), pilots are DFT columns, and channel estimation
follows the linear MMSE estimator of the power-controlled effective channels.
The effective SINR of a bound that treats interference and channel
uncertainty as worst-case Gaussian noise is then

    |E{g^H h_own}|^2
    ----------------------------------------------------------------
    sum_u E{|g^H h_u|^2} - |E{g^H h_own}|^2 + sigma^2 E{||g||^2}

with all expectations taken over channels, noise and UE positions.  The
data phase is not simulated symbol by symbol; the bound depends only on
these moments.

`measure_sinr` simulates only the UE positions.  Given them, each of the
three expectations has a short closed form in the victim-to-serving variance
ratios d_u, and the oracle averages those exactly instead of drawing
channels and noise (Rao-Blackwellization).  The derivation: every quantity
the combiner forms is a function of W C, where W = Z^H Z is the p x p Gram
matrix of the U unscaled channels and the B noise columns (p = U + B i.i.d.
CN(0, I_N) vectors, so W is complex Wishart with N degrees of freedom) and C
is the p x q matrix of pilot coefficients the combiner reads (q = 1 for MRC,
B for zero-forcing).  W is unitarily invariant; rotating span(C) onto the
first q coordinates gives, with R_q the q x q block of W's Bartlett factor,
v = R_q T y and xi ~ CN(0, I_p) independent of R_q,

    W C y = ||v|| xi + C (T^-1 R_q^H v - G^-1 C^H xi ||v||),   ||g||^2 = ||v||^2.

Both combiners make T^-1 R_q^H v = a e_i, a multiple of the target pilot's
unit vector, and one number X sets a and ||v||: for MRC X = R_q^2 ~
Gamma(N, 1), a = X and ||v||^2 = g_i X; for zero-forcing X = 1 / (W_q^-1)_ii
~ Gamma(N - B + 1, 1), the Schur complement of the complex Wishart W_q
(Goodman 1963), a = 1 / (B rho) and ||v||^2 = g_i / ((B rho)^2 X).  The user
rows of W C y are linear in xi, and the pilot sums C^H xi have covariance
diag(g), so X enters only through E X = N, E X^2 = N (N + 1) and
E 1/X = 1 / (N - B).  `measure_sinr` states the resulting moments.

The trade-off: the oracle draws no channels, no pilot noise and no X, so it
no longer checks the channel, estimation and combining algebra by itself.
The tier-1 tests do, against the references in `tests/reference.py`: the
explicit N-dim draws (`generate`, the LMMSE estimates and `combine`) and the
one-Gamma xi loop that sampled the formula above.  The positions stay
simulated; they are the one source of approximation in the closed forms.
At N = B + 1, 1/X has infinite variance; the xi loop sampled it, this
estimator takes its mean exactly.

The coherent term E[g^H h_own] = s1 does not depend on the positions, so
the estimate is s1^2 / mean(D_r), D_r being one realization's denominator,
and its standard error follows exactly from the delta method:
s1^2 sd(D) / (mean(D)^2 sqrt(n)) over n realizations.

Everything here is deliberately independent of the closed-form module: the
two must agree only through the physics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import InterferenceMode, NetworkConfig
from .errors import DomainError
from .hexgrid import (CellIndex, bs_position, reuse_group, sample_ue_positions,
                      tier_of, worst_case_position)
from .pilots import Schedule
from .spectral import Scheme

_CHUNK_ELEMS = 1 << 14  # caps the elements of a chunk's largest arrays


def _sorted_cells(cells) -> tuple[CellIndex, ...]:
    cells = tuple(sorted((CellIndex(*c) for c in cells), key=lambda c: (tier_of(c), c)))
    if len(set(cells)) != len(cells):
        raise DomainError("duplicate cells in tier set")
    if CellIndex(0, 0) not in cells:
        raise DomainError("tier set must contain the victim cell (0, 0)")
    return cells


def _layout(schedule: Schedule, cells):
    """Static per-user metadata: cell centers (at unit radius) and pilot
    columns."""
    k = schedule.n_users
    centers = np.repeat(np.stack([bs_position(c, 1.0) for c in cells]), k, axis=0)
    cols = np.array([schedule.assign(reuse_group(c, schedule.reuse_factor), m) - 1
                     for c in cells for m in range(1, k + 1)], dtype=int)
    return centers, cols


def _pinned_positions(cells, mode: InterferenceMode) -> dict[int, np.ndarray]:
    """{cell rank: position} of the UEs that are not drawn: worst-case mode
    pins out-of-cell UEs to the cell-edge point nearest the victim BS (at
    unit radius)."""
    if mode is not InterferenceMode.WORST_CASE:
        return {}
    return {ci: worst_case_position(cell, CellIndex(0, 0), 1.0)
            for ci, cell in enumerate(cells) if cell != (0, 0)}


def _squared_distances(positions: np.ndarray, centers: np.ndarray):
    """(serving_sq, victim_sq): squared distances of positions (..., U, 2) to
    their serving BS (`centers`) and to the victim BS at the origin."""
    rel = positions - centers
    return (rel[..., 0] ** 2 + rel[..., 1] ** 2,
            positions[..., 0] ** 2 + positions[..., 1] ** 2)


def _ratio_sampler(config: NetworkConfig, k: int, cells, centers: np.ndarray,
                   mode: InterferenceMode):
    """(draw, any_drawn): draw(rng, m) -> (m, U) victim-to-serving variance
    ratios d_ratio of `k` users per cell; `any_drawn` says whether a draw
    samples any position.

    The own cell's users have ratio 1 exactly, because their serving BS is
    the victim BS, and worst-case mode pins the out-of-cell users
    (`_pinned_positions`); their ratios are computed once, here.  When every
    ratio is fixed, a draw uses no random numbers.  Otherwise each draw makes
    one `sample_ue_positions` call for the whole chunk: the points of every
    drawn user of every realization, around the origin, realization-major
    and then in user order.  Each point is then moved to its user's cell
    center; the sampler's law is the same around every center, so the law is
    that of one call per cell.  The sampler sizes its rounds by the points
    asked for, so this call pattern is the stream."""
    half_kappa = config.pathloss_exponent / 2
    pinned = _pinned_positions(cells, mode)
    fixed = [(slice(0, k), 1.0)]
    for ci, position in pinned.items():
        sl = slice(ci * k, (ci + 1) * k)
        serving_sq, victim_sq = _squared_distances(position, centers[sl])
        fixed.append((sl, (serving_sq / victim_sq) ** half_kappa))
    drawn = np.array([u for u in range(k, len(centers)) if u // k not in pinned],
                     dtype=np.intp)
    drawn_centers = centers[drawn]

    def draw(rng: np.random.Generator, m: int) -> np.ndarray:
        out = np.empty((m, len(centers)))
        for sl, ratio in fixed:
            out[:, sl] = ratio
        if not drawn.size:
            return out
        local = sample_ue_positions(CellIndex(0, 0), 1.0,
                                    config.min_ue_distance_frac, rng,
                                    m * len(drawn)).reshape(m, len(drawn), 2)
        serving_sq = local[..., 0] ** 2 + local[..., 1] ** 2
        local += drawn_centers
        victim_sq = local[..., 0] ** 2 + local[..., 1] ** 2
        out[:, drawn] = (serving_sq / victim_sq) ** half_kappa
        return out

    return draw, bool(drawn.size)


def _slot_summer(slot: np.ndarray, q: int):
    """sums(x) -> (m, q): the columns of x (m, U) summed over the users of
    each slot j < q (`slot` holds each user's slot); users in slot q are left
    out.  One gather and one `np.add.reduceat` per call."""
    order = np.argsort(slot, kind="stable")
    order = order[slot[order] < q]
    counts = np.bincount(slot[order], minlength=q)
    filled = np.flatnonzero(counts)
    starts = np.concatenate(([0], np.cumsum(counts[filled])[:-1]))

    def sums(x: np.ndarray) -> np.ndarray:
        part = np.add.reduceat(x[:, order], starts, axis=1)
        if filled.size == q:
            return part
        out = np.zeros((x.shape[0], q), dtype=x.dtype)
        out[:, filled] = part
        return out

    return sums


@dataclass(frozen=True)
class MeasuredSinr:
    """Monte Carlo estimate of the effective SINR with its error bar."""

    sinr: float
    std_error: float
    terms: dict[str, float]


def measure_sinr(config: NetworkConfig, schedule: Schedule, cells,
                 mode: InterferenceMode, scheme: Scheme, n_realizations: int,
                 rng: np.random.Generator) -> MeasuredSinr:
    """Estimate the effective SINR of own-cell user 1 by simulation.

    Only the UE positions are simulated, redrawn every realization at unit
    cell radius: only the victim-to-serving variance ratios d_u enter, so the
    radius and the pathloss reference cancel.  Given the ratios, the
    expectations over channels, pilot noise and the Wishart number X are
    exact (see the module docstring).  With S_j the sum of d_u over the users
    on pilot j, g_j = B^2 rho S_j + B (sigma^2 = 1, so 1 / SNR = 1 / rho),
    i the target pilot and p(u) user u's pilot, they are

    - MRC (the raw pilot correlation, X ~ Gamma(N, 1)):
      E[g^H h_own] = N B rho, E||g||^2 = N g_i and
      E|g^H h_u|^2 = N rho d_u g_i + [p(u) = i] B^2 N^2 rho^2 d_u^2;
    - zero-forcing (the estimated-book combiner, X ~ Gamma(N - B + 1, 1)):
      E[g^H h_own] = 1, E||g||^2 = g_i / ((B rho)^2 (N - B)) and
      E|g^H h_u|^2 = [p(u) = i] d_u^2
                     + rho d_u (1 - B^2 rho d_u / g_p(u)) E||g||^2.

    The own cell's ratios are 1, and in worst-case mode every other ratio is
    pinned too; on one cell or in worst-case mode no position is drawn, every
    realization has the same moments and `std_error` is exactly 0.0.
    Otherwise `std_error` is the delta-method standard error of the position
    average (see the module docstring), so `n_realizations` must be at
    least 2.  `terms` decomposes the SINR denominator into coherent
    signal, estimation gap, intra-cell interference, inter-cell interference
    and noise.  The own user's power leaves out its coherent part
    |E[g^H h_own]|^2, so no cancellation costs precision at high SINR.

    Scale convention: per-block detection is invariant to any scalar on the
    beamformer, but the moments of g^H h are not invariant to a *random*
    scalar, and the LMMSE normalizer 1/psi depends on the realized interferer
    positions.  The closed forms correspond to combiners whose effective
    scale is position-deterministic: for MRC that is the raw pilot
    correlation Y~ v_i (the estimated direction times its psi; with 1/psi
    kept inside, the measured bound provably exceeds the closed form), while
    for zero-forcing it is the estimated-book combiner itself, whose gram
    inverse cancels the psi randomness again.
    """
    schedule.check(config.coherence_block, zero_forcing=scheme is Scheme.PZFC)
    if n_realizations < 2:
        raise DomainError("a standard error needs two realizations, "
                          f"got {n_realizations}")
    cells = _sorted_cells(cells)
    centers, cols = _layout(schedule, cells)
    draw_d_ratio, any_drawn = _ratio_sampler(config, schedule.n_users, cells,
                                             centers, mode)
    n, b = schedule.n_antennas, schedule.pilot_len
    rho = config.snr_linear
    n_users_total = len(cols)
    i_target = cols[0]                     # user 1 of the origin cell, listed first
    on_target = cols == i_target
    copilots = np.flatnonzero(on_target)[1:]  # the other users on the target pilot
    # MRC reads only the target pilot's sum (slot 0), zero-forcing all B;
    # slot q holds the users on no pilot the combiner reads
    if scheme is Scheme.MRC:
        q, i_slot, slot = 1, 0, np.where(on_target, 0, 1)
        s1 = n * b * rho                   # E[g^H h_own], d_own = 1
    else:
        q, i_slot, slot = b, i_target, cols
        s1 = 1.0
    pilot_sums = _slot_summer(slot, q)

    # cap per-draw array sizes at m x (U + q)
    max_chunk = max(1, _CHUNK_ELEMS // (n_users_total + q))

    def moments(d):
        """(E|g^H h_u|^2 (m, U), the own user's less s1^2, and E||g||^2
        (m,)) given the ratios d (m, U)."""
        g = (b * b * rho) * pilot_sums(d) + b
        g_i = g[:, i_slot]
        if scheme is Scheme.MRC:
            gn = n * g_i
            power = (n * rho) * d * g_i[:, None]
        else:
            gn = g_i / ((b * rho) ** 2 * (n - b))
            power = rho * d * (1.0 - (b * b * rho) * d / g[:, slot]) * gn[:, None]
        power[:, copilots] += s1 * s1 * d[:, copilots] ** 2
        return power, gn

    if not any_drawn:
        # every realization has the same moments: take them once
        power, gn = moments(draw_d_ratio(rng, 1))
        return _measured(s1, power[0], gn[0], 0.0, schedule.n_users)

    pow_sum = np.zeros(n_users_total)
    gn_sum = d_sum = d_sq_sum = 0.0
    for start in range(0, n_realizations, max_chunk):
        power, gn = moments(draw_d_ratio(rng, min(max_chunk, n_realizations - start)))
        denom = power.sum(axis=1) + gn     # each realization's D_r, sigma^2 = 1
        pow_sum += power.sum(axis=0)
        gn_sum += gn.sum()
        d_sum += denom.sum()
        d_sq_sum += denom @ denom
    d_mean = d_sum / n_realizations
    d_var = max(0.0, (d_sq_sum - d_sum * d_mean) / (n_realizations - 1))
    # s1^2 / mean(D) by the delta method: s1 is exact, so only mean(D) varies
    std_error = s1 * s1 * math.sqrt(d_var / n_realizations) / d_mean ** 2
    return _measured(s1, pow_sum / n_realizations, gn_sum / n_realizations,
                     std_error, schedule.n_users)


def _measured(s1: float, pow_mean: np.ndarray, gn_mean: float, std_error: float,
              n_own: int) -> MeasuredSinr:
    """SINR and terms from the means of g^H h_own (`s1`), |g^H h_u|^2 (per
    user u, the first `n_own` in the victim cell; the own user's less
    |s1|^2) and ||g||^2, reported with `std_error`."""
    u_own = 0
    coherent = abs(s1) ** 2
    denominator = float(pow_mean.sum() + gn_mean)  # sigma^2 = 1
    own_cell = slice(0, n_own)
    terms = {
        "signal": coherent,
        "estimation_gap": float(pow_mean[u_own]),
        "intra_cell": float(pow_mean[own_cell].sum() - pow_mean[u_own]),
        "inter_cell": float(pow_mean[n_own:].sum()),
        "noise": float(gn_mean),
        "denominator": denominator,
    }
    return MeasuredSinr(sinr=float(coherent / denominator), std_error=float(std_error),
                        terms=terms)
