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
                      sorted_tier_set, worst_case_positions)
from .pilots import Schedule
from .spectral import Scheme

_CHUNK_ELEMS = 1 << 14  # caps the elements of a chunk's largest arrays


def _layout(cells, reuse_factor: int):
    """Static per-cell metadata: centers (at unit radius) and reuse groups."""
    return (np.stack([bs_position(c, 1.0) for c in cells]),
            np.array([reuse_group(c, reuse_factor) for c in cells]))


def _squared_distances(positions: np.ndarray, centers: np.ndarray):
    """(serving_sq, victim_sq): squared distances of positions (..., U, 2) to
    their serving BS (`centers`) and to the victim BS at the origin."""
    rel = positions - centers
    return (rel[..., 0] ** 2 + rel[..., 1] ** 2,
            positions[..., 0] ** 2 + positions[..., 1] ** 2)


def _pilot_sums(d: np.ndarray, groups: np.ndarray, reuse_factor: int) -> np.ndarray:
    """(m, beta, K): the ratios d (m, C, K) summed over the cells of each
    reuse group (`groups` holds each cell's).  User k of a cell in group j
    is on pilot j K + k, so entry (j, k) sums the users on that pilot."""
    in_group = (groups == np.arange(reuse_factor)[:, None]).astype(float)
    return np.einsum("jc,mck->mjk", in_group, d)


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
    exact (see the module docstring).  User u, user k of a cell c in reuse
    group j(c), is on pilot (j(c), k); the target pilot is (0, 0).  With S_jk
    the sum of d over user k of the cells of group j, g_jk = B^2 rho S_jk + B
    (sigma^2 = 1, so 1 / SNR = 1 / rho), and the moments are

    - MRC (the raw pilot correlation, X ~ Gamma(N, 1)):
      E[g^H h_own] = N B rho, E||g||^2 = N g_00 and
      E|g^H h_u|^2 = N rho d_u g_00 + [j(c) = k = 0] B^2 N^2 rho^2 d_u^2;
    - zero-forcing (the estimated-book combiner, X ~ Gamma(N - B + 1, 1)):
      E[g^H h_own] = 1, E||g||^2 = g_00 / ((B rho)^2 (N - B)) and
      E|g^H h_u|^2 = [j(c) = k = 0] d_u^2
                     + rho d_u (1 - B^2 rho d_u / g_j(c)k) E||g||^2.

    The own cell's ratios are 1, and in worst-case mode every other ratio is
    pinned too; on one cell or in worst-case mode no position is drawn,
    neither `rng` nor `n_realizations` is used, every realization has the
    same moments and `std_error` is exactly 0.0.
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
    cells = sorted_tier_set(cells)
    n, b, k, beta = (schedule.n_antennas, schedule.pilot_len, schedule.n_users,
                     schedule.reuse_factor)
    centers, groups = _layout(cells, beta)
    rho = config.snr_linear
    n_cells = len(cells)
    # a (cell, user) grid of ratios, the own cell's row of ones first (its
    # serving BS is the victim BS); worst-case mode pins each other cell's
    # users to its edge point nearest the victim, average mode draws them
    half_kappa = config.pathloss_exponent / 2
    d_fixed = np.ones((n_cells, k))
    n_drawn = (n_cells - 1) * k
    if mode is InterferenceMode.WORST_CASE:
        serving_sq, victim_sq = _squared_distances(worst_case_positions(cells[1:]),
                                                   centers[1:])
        d_fixed[1:] = ((serving_sq / victim_sq) ** half_kappa)[:, None]
        n_drawn = 0
    # user 0 of the other cells of group 0 shares the target pilot (0, 0)
    copilot_cells = np.flatnonzero(groups == 0)[1:]
    # MRC reads only the target pilot, zero-forcing all B; s1 = E[g^H h_own]
    q, s1 = (1, n * b * rho) if scheme is Scheme.MRC else (b, 1.0)

    # cap per-draw array sizes at m x (C K + q)
    max_chunk = max(1, _CHUNK_ELEMS // (n_cells * k + q))

    def moments(d):
        """(E|g^H h_u|^2 (m, C K), the own user's less s1^2, and E||g||^2
        (m,)) given the ratios d (m, C, K)."""
        g = (b * b * rho) * _pilot_sums(d, groups, beta) + b
        g_i = g[:, 0, 0]
        if scheme is Scheme.MRC:
            gn = n * g_i
            power = (n * rho) * d * g_i[:, None, None]
        else:
            gn = g_i / ((b * rho) ** 2 * (n - b))
            power = rho * d * (1.0 - (b * b * rho) * d / g[:, groups]) * gn[:, None, None]
        power[:, copilot_cells, 0] += s1 * s1 * d[:, copilot_cells, 0] ** 2
        return power.reshape(len(d), -1), gn

    if not n_drawn:
        # every realization has the same moments: take them once
        power, gn = moments(d_fixed[None])
        return _measured(s1, power[0], gn[0], 0.0, k)
    if n_realizations < 2:
        raise DomainError("a standard error needs two realizations, "
                          f"got {n_realizations}")
    user_centers = np.repeat(centers[1:], k, axis=0)

    def draw(m):
        """(m, C, K) ratios: the own cell's row of ones and the other rows drawn.

        One sampler call draws the points of every drawn user of every
        realization, around the origin, realization-major and then in user
        order; each point is then moved to its user's cell center (the
        sampler's law is the same around every center).  The sampler sizes
        its rounds by the points asked for, so this call pattern is the
        stream."""
        d = np.ones((m, n_cells, k))
        local = sample_ue_positions(CellIndex(0, 0), 1.0, config.min_ue_distance_frac,
                                    rng, m * n_drawn).reshape(m, n_drawn, 2)
        serving_sq = local[..., 0] ** 2 + local[..., 1] ** 2
        local += user_centers
        victim_sq = local[..., 0] ** 2 + local[..., 1] ** 2
        d[:, 1:] = ((serving_sq / victim_sq) ** half_kappa).reshape(m, n_cells - 1, k)
        return d

    pow_sum = np.zeros(n_cells * k)
    gn_sum = d_sum = d_sq_sum = 0.0
    for start in range(0, n_realizations, max_chunk):
        power, gn = moments(draw(min(max_chunk, n_realizations - start)))
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
                     std_error, k)


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
