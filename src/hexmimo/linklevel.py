"""Link-level Monte Carlo validator for the closed-form SINR engine.

Simulates the actual uplink at one victim BS (placed at the origin cell):
UE positions are drawn per interference mode at unit cell radius, channels
are i.i.d. complex Gaussian with pathloss-dependent variance, transmit powers
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
these moments, which are estimated directly.

`measure_sinr` never draws channels or pilot noise in C^N.  Every quantity
it forms (pilot correlations, the combiner, g^H h_u, ||g||^2) is a function
of W C, where W = Z^H Z is the p x p Gram matrix of the U unscaled channels
and the B noise columns (p = U + B i.i.d. CN(0, I_N) vectors, so W is
complex Wishart with N degrees of freedom) and C is the p x q matrix of
pilot coefficients the combiner reads (q = 1 for MRC, B for zero-forcing).
W is unitarily invariant, so rotating span(C) onto the first q coordinates
leaves its law unchanged; there W C needs only the first q rows of W's
Bartlett factor: a q x q upper-triangular block R_q and, for the remaining
rows, one CN(0, I) vector.  The combiners read R_q only through R_q^H v and
||v|| with v = R_q T y, and both have one-number laws.  MRC's 1 x 1 block
is sqrt(Gamma(N, 1)).  Zero-forcing's y = D^-1 gram^-1 e_i makes
R_q^H v = (psi_i / t_i) e_i fixed given the positions and
||v||^2 = (psi_i / t_i)^2 (W_q^-1)_ii with W_q = R_q^H R_q; by the
Schur-complement property of the complex Wishart matrix (Goodman 1963),
1 / (W_q^-1)_ii ~ Gamma(N - B + 1, 1).  So every realization costs one
Gamma draw and U + q normals for either combiner, exact in distribution,
instead of the O(N p) numbers of the explicit vectors.  The explicit N-dim
draws (`generate`, the LMMSE estimates and `combine`) live in
`tests/reference.py`, where they serve as the cross-check for the shortcut.

Everything here is deliberately independent of the closed-form module: the
two must agree only through the physics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import InterferenceMode, NetworkConfig, validate
from .errors import DomainError, RankDeficient
from .hexgrid import (CellIndex, bs_position, reuse_group, sample_ue_positions,
                      tier_of, worst_case_position)
from .pilots import Schedule
from .spectral import Scheme

N_BATCHES = 20   # batch means behind measure_sinr's standard error
_CHUNK_ELEMS = 1 << 22  # caps the elements of a chunk's largest arrays


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) entries of the given shape."""
    pairs = rng.standard_normal((*shape, 2))
    pairs *= math.sqrt(0.5)
    return pairs.view(complex)[..., 0]


def _sorted_cells(cells) -> tuple[CellIndex, ...]:
    cells = tuple(sorted((CellIndex(*c) for c in cells), key=lambda c: (tier_of(c), c)))
    if len(set(cells)) != len(cells):
        raise DomainError("duplicate cells in tier set")
    if cells[0] != (0, 0):
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
    """draw(rng, m) -> (m, U) victim-to-serving variance ratios d_ratio of
    `k` users per cell.

    Each draw makes one `sample_ue_positions` call for the whole chunk: the
    points of every drawn user of every realization, around the origin,
    realization-major and then in user order.  Each point is then moved to
    its user's cell center; the sampler's law is the same around every
    center, so the law is that of one call per cell.  The sampler sizes its
    rounds by the points asked for, so this call pattern is the stream, and
    it is the one the test reference `_draw_positions` (tests/reference.py)
    consumes.  The pinned users' ratios are computed once, here."""
    half_kappa = config.pathloss_exponent / 2
    pinned = _pinned_positions(cells, mode)
    fixed = []
    for ci, position in pinned.items():
        sl = slice(ci * k, (ci + 1) * k)
        serving_sq, victim_sq = _squared_distances(position, centers[sl])
        fixed.append((sl, (serving_sq / victim_sq) ** half_kappa))
    drawn = np.array([u for u in range(len(centers)) if u // k not in pinned],
                     dtype=np.intp)
    drawn_centers = centers[drawn]

    def draw(rng: np.random.Generator, m: int) -> np.ndarray:
        out = np.empty((m, len(centers)))
        for sl, ratio in fixed:
            out[:, sl] = ratio
        local = sample_ue_positions(CellIndex(0, 0), 1.0,
                                    config.min_ue_distance_frac, rng,
                                    m * len(drawn)).reshape(m, len(drawn), 2)
        serving_sq = local[..., 0] ** 2 + local[..., 1] ** 2
        local += drawn_centers
        victim_sq = local[..., 0] ** 2 + local[..., 1] ** 2
        out[:, drawn] = (serving_sq / victim_sq) ** half_kappa
        return out

    return draw


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
    n_realizations: int
    terms: dict[str, float]
    batch_sinrs: tuple[float, ...]


def measure_sinr(config: NetworkConfig, schedule: Schedule, cells,
                 mode: InterferenceMode, scheme: Scheme, n_realizations: int,
                 rng: np.random.Generator) -> MeasuredSinr:
    """Estimate the effective SINR of own-cell user 1 by simulation.

    Positions, channels and noise are redrawn every realization (outer
    position averaging wrapping the channel/noise averaging).  Positions are
    drawn at unit cell radius: only the victim-to-serving distance ratios
    enter, so the radius and the pathloss reference cancel.  Channels and
    noise enter only through W C (see the module docstring).  The pilot
    correlations are Y~ V = Z C, with C holding sqrt(rho d_u) B on user u's
    pilot column and the DFT rows for the noise; the combiner is g = Z C y
    and g^H h_u = (W C y)_u^* sqrt(rho d_u), ||g||^2 = y^H C^H W C y.
    G = C^H C is diagonal (each user sits on one pilot, the DFT columns are
    orthogonal), g_j = B^2 rho sum_{u on pilot j} d_u + B = B rho psi_j with
    the pilot-direction powers psi (sigma^2 = 1, so 1 / SNR = 1 / rho), and
    its Cholesky factor T is its square root.  With R_q the q x q Bartlett
    block and v = R_q T y,

        W C y = ||v|| xi + C (T^-1 R_q^H v - G^-1 C^H xi ||v||),
        ||g||^2 = ||v||^2,

    for xi ~ CN(0, I_p) independent of R_q; this holds for any N >= q.  Only
    the U user rows of W C y are read, and the noise rows of C enter only
    through C^H xi, where they add CN(0, B I_q).  Both combiners make
    T^-1 R_q^H v = a e_i, a multiple of the target pilot's unit vector, and
    one draw X ~ Gamma(N - q + 1, 1) per realization sets a and ||v||:

    - MRC (q = 1, y = 1): R_q = sqrt(X), a = X and ||v||^2 = g_i X.
    - zero-forcing (q = B, y = D^-1 gram^-1 e_i, with D = diag(psi) and
      gram = D^-1 T W_q T D^-1 the Gram matrix of the estimated book):
      a = psi_i / g_i = 1 / (B rho) and ||v||^2 = (psi_i / t_i)^2 (W_q^-1)_ii
      = g_i / ((B rho)^2 X), where X = 1 / (W_q^-1)_ii is the Schur
      complement of the complex Wishart W_q (Goodman 1963).

    A drawn ||v||^2 that is zero or not finite is a singular W_q (or a zero
    MRC direction) and raises RankDeficient.  The standard error comes from
    N_BATCHES batch means; `terms` decomposes the SINR denominator into
    coherent signal, estimation gap, intra-cell interference, inter-cell
    interference and noise.

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
    validate(config)
    schedule.check(config.coherence_block, zero_forcing=scheme is Scheme.PZFC)
    if n_realizations < N_BATCHES:
        raise DomainError("need at least one realization per batch")
    cells = _sorted_cells(cells)
    centers, cols = _layout(schedule, cells)
    draw_d_ratio = _ratio_sampler(config, schedule.n_users, cells, centers, mode)
    n, b = schedule.n_antennas, schedule.pilot_len
    rho = config.snr_linear
    n_users_total = len(cols)
    u_own = 0                              # user 1 of the origin cell, listed first
    i_target = cols[u_own]
    # MRC needs only the target pilot's correlation (slot 0), zero-forcing
    # all B; slot q holds the users on no pilot C reads
    if scheme is Scheme.MRC:
        q, i_slot, slot = 1, 0, np.where(cols == i_target, 0, 1)
    else:
        q, i_slot, slot = b, i_target, cols
    pilot_sums = _slot_summer(slot, q)

    sizes = [n_realizations // N_BATCHES] * N_BATCHES
    for i in range(n_realizations % N_BATCHES):
        sizes[i] += 1
    # cap per-draw array sizes at m x (U + q); batches are accumulated over
    # sub-chunks
    max_chunk = max(1, _CHUNK_ELEMS // (n_users_total + q))

    s1_sums = np.zeros(N_BATCHES, dtype=complex)
    pow_sums = np.zeros((N_BATCHES, n_users_total))
    gn_sums = np.zeros(N_BATCHES)

    for bi, batch_size in enumerate(sizes):
        left = batch_size
        while left > 0:
            n_chunk = min(left, max_chunk)
            left -= n_chunk
            d_ratio = draw_d_ratio(rng, n_chunk)
            amp = np.sqrt(rho * d_ratio)             # user rows of C: amp B
            g = (b * b * rho) * pilot_sums(d_ratio) + b
            g_i = g[:, i_slot]
            x = rng.standard_gamma(n - q + 1, size=n_chunk)
            if scheme is Scheme.MRC:
                a = x  # y = 1: the raw pilot correlation, psi-free scale
                v_norm_sq = g_i * x
            else:
                a = 1.0 / (b * rho)  # psi_i / g_i: G = B rho diag(psi)
                v_norm_sq = g_i * a * a / x
            if not np.all((v_norm_sq > 0) & (v_norm_sq < np.inf)):
                raise RankDeficient("a drawn combiner norm ||v||^2 is not finite "
                                    "and positive: W_q is singular")
            v_norm = np.sqrt(v_norm_sq)
            xi = _complex_normal(rng, (n_chunk, n_users_total + q))
            c_xi = (b * pilot_sums(amp * xi[:, :n_users_total])
                    + math.sqrt(b) * xi[:, n_users_total:])  # C^H xi
            # B (T^-1 R_q^H v - G^-1 C^H xi ||v||); column q stays 0
            bz = np.zeros((n_chunk, q + 1), dtype=complex)
            np.multiply(c_xi, (-b * v_norm)[:, None] / g, out=bz[:, :q])
            bz[:, i_slot] += b * a
            # the user rows of W C y
            wcy = v_norm[:, None] * xi[:, :n_users_total] + amp * bz[:, slot]
            s1_sums[bi] += np.vdot(wcy[:, u_own], amp[:, u_own])
            pow_sums[bi] += np.einsum("ij,ij->j", amp * amp,
                                      wcy.real ** 2 + wcy.imag ** 2)
            gn_sums[bi] += v_norm_sq.sum()

    return _measured(sizes, s1_sums, pow_sums, gn_sums, schedule.n_users)


def _measured(sizes, s1_sums: np.ndarray, pow_sums: np.ndarray,
              gn_sums: np.ndarray, n_own: int) -> MeasuredSinr:
    """SINR, batch standard error and terms from per-batch sums of g^H h_own,
    |g^H h_u|^2 (per user u, the first `n_own` in the victim cell) and
    ||g||^2 over batches of `sizes` realizations."""
    counts = np.array(sizes, dtype=float)
    u_own = 0

    def _sinr(s1_sum, pow_sum, gn_sum, count):
        coh = abs(s1_sum / count) ** 2
        denom = pow_sum.sum() / count - coh + gn_sum / count  # sigma^2 = 1
        return coh / denom

    batch_sinrs = tuple(_sinr(s1_sums[i], pow_sums[i], gn_sums[i], counts[i])
                        for i in range(N_BATCHES))
    sinr = _sinr(s1_sums.sum(), pow_sums.sum(axis=0), gn_sums.sum(), counts.sum())
    std_error = float(np.std(batch_sinrs, ddof=1) / math.sqrt(N_BATCHES))

    total = counts.sum()
    pow_mean = pow_sums.sum(axis=0) / total
    coherent = abs(s1_sums.sum() / total) ** 2
    own_cell = slice(0, n_own)
    terms = {
        "signal": coherent,
        "estimation_gap": float(pow_mean[u_own] - coherent),
        "intra_cell": float(pow_mean[own_cell].sum() - pow_mean[u_own]),
        "inter_cell": float(pow_mean[n_own:].sum()),
        "noise": float(gn_sums.sum() / total),
        "denominator": float(pow_mean.sum() - coherent + gn_sums.sum() / total),
    }
    return MeasuredSinr(sinr=float(sinr), std_error=std_error,
                        n_realizations=int(total), terms=terms,
                        batch_sinrs=batch_sinrs)
