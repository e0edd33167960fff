"""Link-level Monte Carlo validator for the closed-form SINR engine.

Simulates the actual uplink at one victim BS (placed at the origin cell):
UE positions are drawn per interference mode, channels are i.i.d. complex
Gaussian with pathloss-dependent variance, transmit powers invert the average
attenuation to the serving BS, pilots are DFT columns, and channel estimation
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
instead of the O(N p) numbers of the explicit vectors.  `generate` keeps
the explicit N-dim draws and serves as the cross-check for the shortcut.

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
from .pilots import PilotPlan
from .spectral import Scheme

N_BATCHES = 20   # batch means behind measure_sinr's standard error
_CHUNK_ELEMS = 1 << 22  # caps the elements of a chunk's largest arrays


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) entries of the given shape."""
    pairs = rng.standard_normal((*shape, 2))
    pairs *= math.sqrt(0.5)
    return pairs.view(complex)[..., 0]


def dft_pilot_matrix(pilot_len: int) -> np.ndarray:
    """B x B matrix of unit-modulus pilot columns with v^H v' = B * delta."""
    a = np.arange(pilot_len)
    return np.exp(-2j * np.pi * np.outer(a, a) / pilot_len)


@dataclass
class Realization:
    """One coherence block at the victim BS (origin cell).

    Users are indexed u = cell_rank * K + (k - 1) with `cells` sorted so the
    origin cell comes first; `pilot_col` holds 0-based pilot columns.
    """

    config: NetworkConfig
    plan: PilotPlan
    cells: tuple[CellIndex, ...]
    mode: InterferenceMode
    positions: np.ndarray     # (U, 2) absolute UE coordinates
    d_ratio: np.ndarray       # (U,) victim-to-serving channel variance ratio
    tx_power: np.ndarray      # (U,) statistics-inverting uplink powers
    pilot_col: np.ndarray     # (U,) int
    pilot_matrix: np.ndarray  # (B, B) complex
    channel: np.ndarray       # (N, U) raw channels to the victim BS
    h_eff: np.ndarray         # (N, U) power-controlled effective channels
    y_pilot: np.ndarray       # (N, B) received pilot block
    psi: np.ndarray           # (B,) pilot-direction powers (real)

    def user_index(self, cell: CellIndex, user: int) -> int:
        """Flat index of user `user` (1-based) of `cell`."""
        if not 1 <= user <= self.plan.n_users:
            raise IndexError(f"user {user} out of range [1, {self.plan.n_users}]")
        return self.cells.index(CellIndex(*cell)) * self.plan.n_users + (user - 1)


def _sorted_cells(cells) -> tuple[CellIndex, ...]:
    cells = tuple(sorted((CellIndex(*c) for c in cells), key=lambda c: (tier_of(c), c)))
    if len(set(cells)) != len(cells):
        raise DomainError("duplicate cells in tier set")
    if cells[0] != (0, 0):
        raise DomainError("tier set must contain the victim cell (0, 0)")
    return cells


def _layout(config: NetworkConfig, plan: PilotPlan, cells):
    """Static per-user metadata: cell centers and pilot columns."""
    if plan.n_users != config.n_users or plan.reuse_factor != config.reuse_factor:
        raise DomainError("pilot plan and config disagree on (K, beta)")
    k = plan.n_users
    centers = np.repeat(np.stack([bs_position(c, config.cell_radius) for c in cells]),
                        k, axis=0)
    cols = np.array([plan.assign(reuse_group(c, plan.reuse_factor), m) - 1
                     for c in cells for m in range(1, k + 1)], dtype=int)
    return centers, cols


def _pinned_positions(config: NetworkConfig, cells,
                      mode: InterferenceMode) -> dict[int, np.ndarray]:
    """{cell rank: position} of the UEs that are not drawn: worst-case mode
    pins out-of-cell UEs to the cell-edge point nearest the victim BS."""
    if mode is not InterferenceMode.WORST_CASE:
        return {}
    return {ci: worst_case_position(cell, CellIndex(0, 0), config.cell_radius)
            for ci, cell in enumerate(cells) if cell != (0, 0)}


def _draw_positions(config: NetworkConfig, cells, pinned: dict[int, np.ndarray],
                    rng: np.random.Generator, n_real: int) -> np.ndarray:
    """(n_real, U, 2) UE positions: the `pinned` ones, the rest drawn."""
    k = config.n_users
    r = config.cell_radius
    frac = config.min_ue_distance_frac
    out = np.empty((n_real, len(cells) * k, 2))
    for ci, cell in enumerate(cells):
        sl = slice(ci * k, (ci + 1) * k)
        if ci in pinned:
            out[:, sl, :] = pinned[ci]
        else:
            pts = sample_ue_positions(cell, r, frac, rng, n_real * k)
            out[:, sl, :] = pts.reshape(n_real, k, 2)
    return out


def _squared_distances(positions: np.ndarray, centers: np.ndarray):
    """(serving_sq, victim_sq): squared distances of positions (..., U, 2) to
    their serving BS (`centers`) and to the victim BS at the origin."""
    rel = positions - centers
    return (rel[..., 0] ** 2 + rel[..., 1] ** 2,
            positions[..., 0] ** 2 + positions[..., 1] ** 2)


def _distance_fields(config: NetworkConfig, centers: np.ndarray,
                     positions: np.ndarray):
    """(d_ratio, tx_power, d_victim) for positions of shape (..., U, 2)."""
    half_kappa = config.pathloss_exponent / 2
    serving_sq, victim_sq = _squared_distances(positions, centers)
    d_ratio = (serving_sq / victim_sq) ** half_kappa
    tx_power = config.snr_linear * serving_sq ** half_kappa / config.pathloss_ref
    d_victim = config.pathloss_ref / victim_sq ** half_kappa
    return d_ratio, tx_power, d_victim


def _ratio_sampler(config: NetworkConfig, cells, centers: np.ndarray,
                   mode: InterferenceMode):
    """draw(rng, m) -> (m, U) victim-to-serving variance ratios d_ratio.

    The drawn cells are sampled in cell order, the stream `_draw_positions`
    consumes; the pinned users' ratios are computed once, here."""
    k = config.n_users
    half_kappa = config.pathloss_exponent / 2
    pinned = _pinned_positions(config, cells, mode)
    fixed = []
    for ci, position in pinned.items():
        sl = slice(ci * k, (ci + 1) * k)
        serving_sq, victim_sq = _squared_distances(position, centers[sl])
        fixed.append((sl, (serving_sq / victim_sq) ** half_kappa))
    drawn = [(slice(ci * k, (ci + 1) * k), cell) for ci, cell in enumerate(cells)
             if ci not in pinned]

    def draw(rng: np.random.Generator, m: int) -> np.ndarray:
        out = np.empty((m, len(centers)))
        for sl, ratio in fixed:
            out[:, sl] = ratio
        for sl, cell in drawn:
            pts = sample_ue_positions(cell, config.cell_radius,
                                      config.min_ue_distance_frac, rng, m * k)
            serving_sq, victim_sq = _squared_distances(pts.reshape(m, k, 2),
                                                       centers[sl])
            out[:, sl] = (serving_sq / victim_sq) ** half_kappa
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


def _psi(d_ratio: np.ndarray, cols: np.ndarray, pilot_len: int,
         inv_snr: float) -> np.ndarray:
    """Pilot-direction powers: psi_b = B * sum_{u on pilot b} d_ratio_u + inv_snr."""
    out = np.full(d_ratio.shape[:-1] + (pilot_len,), inv_snr)
    for b in range(pilot_len):
        mask = cols == b
        if mask.any():
            out[..., b] += pilot_len * d_ratio[..., mask].sum(axis=-1)
    return out


def generate(config: NetworkConfig, plan: PilotPlan, cells,
             mode: InterferenceMode, rng: np.random.Generator) -> Realization:
    """Draw one complete coherence-block realization at the victim BS."""
    validate(config)
    cells = _sorted_cells(cells)
    centers, cols = _layout(config, plan, cells)
    n, b = config.n_antennas, plan.pilot_len

    positions = _draw_positions(config, cells,
                                 _pinned_positions(config, cells, mode), rng, 1)[0]
    d_ratio, tx_power, d_victim = _distance_fields(config, centers, positions)

    shape = (n, len(cols))
    channel = np.sqrt(d_victim / 2.0) * (rng.standard_normal(shape)
                                         + 1j * rng.standard_normal(shape))
    h_eff = np.sqrt(tx_power) * channel
    pilot_matrix = dft_pilot_matrix(b)
    pilot_rows = pilot_matrix.conj().T[cols]            # (U, B), rows v^H
    noise = math.sqrt(0.5) * (rng.standard_normal((n, b))
                              + 1j * rng.standard_normal((n, b)))
    y_pilot = h_eff @ pilot_rows + noise
    psi = _psi(d_ratio, cols, b, config.inv_snr)

    return Realization(config=config, plan=plan, cells=cells, mode=mode,
                       positions=positions, d_ratio=d_ratio, tx_power=tx_power,
                       pilot_col=cols, pilot_matrix=pilot_matrix,
                       channel=channel, h_eff=h_eff, y_pilot=y_pilot, psi=psi)


def estimate_book(realization: Realization) -> np.ndarray:
    """N x B matrix of estimated directions, one per pilot sequence."""
    return (realization.y_pilot @ realization.pilot_matrix) / realization.psi


def lmmse_estimate(realization: Realization, cell: CellIndex, user: int) -> np.ndarray:
    """LMMSE estimate of the effective channel of one user.

    Scalar-denominator form: correlating the pilot block with the user's
    pilot sequence and dividing by that pilot direction's total power, then
    scaling by the user's victim-to-serving variance ratio.
    """
    u = realization.user_index(cell, user)
    col = realization.pilot_col[u]
    v = realization.pilot_matrix[:, col]
    # variance-ratio scaling applied last: copilot users' estimates are then
    # exactly proportional (they share the same pilot-direction vector)
    return realization.d_ratio[u] * ((realization.y_pilot @ v) / realization.psi[col])


def lmmse_estimate_kron(realization: Realization, cell: CellIndex,
                        user: int) -> np.ndarray:
    """LMMSE estimate via the explicit Kronecker/vectorized form.

    Builds the full B x B pilot-domain covariance, applies its inverse on the
    user's pilot, and lifts the result with kron(. , I_N) onto the vectorized
    pilot block.  Algebraically identical to `lmmse_estimate`; kept as an
    independent implementation for cross-checking (it inverts a matrix the
    scalar form never forms).
    """
    u = realization.user_index(cell, user)
    cfg = realization.config
    vmat = realization.pilot_matrix
    cols = realization.pilot_col
    v_used = vmat[:, cols]                                # (B, U)
    psi_mat = (v_used * realization.d_ratio) @ v_used.conj().T \
        + cfg.inv_snr * np.eye(vmat.shape[0])
    v = vmat[:, cols[u]]
    row = np.conj(v.conj() @ np.linalg.inv(psi_mat))      # conj(v^H Psi^-1)
    lift = np.kron(row, np.eye(cfg.n_antennas))
    return realization.d_ratio[u] * (lift @ realization.y_pilot.flatten(order="F"))


def estimation_error_scale(realization: Realization, cell: CellIndex,
                           user: int) -> float:
    """Per-antenna variance of the estimation error; the MSE is N times this."""
    u = realization.user_index(cell, user)
    cfg = realization.config
    dr = realization.d_ratio[u]
    b = realization.plan.pilot_len
    col = realization.pilot_col[u]
    return cfg.snr_linear * dr * (1.0 - dr * b / realization.psi[col])


def combine(realization: Realization, scheme: Scheme, user: int) -> np.ndarray:
    """Receive beamformer for own-cell user `user` (1-based).

    MRC returns the estimated own channel direction; PZFC inverts the Gram
    matrix of all B estimated directions to place a unit response on the
    user's pilot direction and nulls on the other B - 1.
    """
    book = estimate_book(realization)
    i = realization.pilot_col[realization.user_index(CellIndex(0, 0), user)]
    if scheme is Scheme.MRC:
        return book[:, i]
    gram = book.conj().T @ book
    w = np.linalg.eigvalsh(gram)
    # condition number lambda_max / lambda_min of at least 1e12, or an
    # undefined one (zero or non-finite spectrum)
    if not w[-1] < 1e12 * w[0]:
        raise RankDeficient("estimated pilot book is numerically rank deficient")
    rhs = np.zeros(gram.shape[0])
    rhs[i] = 1.0
    return book @ np.linalg.solve(gram, rhs)


@dataclass(frozen=True)
class MeasuredSinr:
    """Monte Carlo estimate of the effective SINR with its error bar."""

    sinr: float
    std_error: float
    n_realizations: int
    terms: dict[str, float]
    batch_sinrs: tuple[float, ...]


def measure_sinr(config: NetworkConfig, plan: PilotPlan, cells,
                 mode: InterferenceMode, scheme: Scheme, n_realizations: int,
                 rng: np.random.Generator) -> MeasuredSinr:
    """Estimate the effective SINR of own-cell user 1 by simulation.

    Positions, channels and noise are redrawn every realization (outer
    position averaging wrapping the channel/noise averaging).  Channels and
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
    validate(config, require_zf=scheme is Scheme.PZFC)
    if n_realizations < N_BATCHES:
        raise DomainError("need at least one realization per batch")
    cells = _sorted_cells(cells)
    centers, cols = _layout(config, plan, cells)
    draw_d_ratio = _ratio_sampler(config, cells, centers, mode)
    n, b = config.n_antennas, plan.pilot_len
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
            cross = wcy.conj() * amp
            s1_sums[bi] += cross[:, u_own].sum()
            pow_sums[bi] += (cross.real ** 2 + cross.imag ** 2).sum(axis=0)
            gn_sums[bi] += v_norm_sq.sum()

    return _measured(sizes, s1_sums, pow_sums, gn_sums, config.n_users)


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


def measure_estimation_mse(realization: Realization, n_realizations: int,
                           rng: np.random.Generator, cell: CellIndex,
                           user: int) -> tuple[float, float]:
    """Empirical MSE of the LMMSE estimate at fixed UE positions.

    Redraws channels and noise `n_realizations` times with the positions (and
    hence the error covariance) of `realization` held fixed; returns the mean
    squared error and its standard error.
    """
    cfg = realization.config
    n, b = cfg.n_antennas, realization.plan.pilot_len
    cols = realization.pilot_col
    u = realization.user_index(cell, user)
    dr = realization.d_ratio
    vmat = realization.pilot_matrix
    pilot_rows = vmat.conj().T[cols]
    psi_col = realization.psi[cols[u]]
    v = vmat[:, cols[u]]

    err_sq = np.empty(n_realizations)
    done = 0
    chunk = max(1, min(n_realizations, _CHUNK_ELEMS // max(1, n * len(cols))))
    while done < n_realizations:
        m = min(chunk, n_realizations - done)
        scale = np.sqrt(cfg.snr_linear * dr / 2.0)[None, None, :]
        h_eff = scale * (rng.standard_normal((m, n, len(cols)))
                         + 1j * rng.standard_normal((m, n, len(cols))))
        noise = math.sqrt(0.5) * (rng.standard_normal((m, n, b))
                                  + 1j * rng.standard_normal((m, n, b)))
        y_pilot = h_eff @ pilot_rows + noise
        est = dr[u] * (y_pilot @ v) / psi_col
        diff = h_eff[:, :, u] - est
        err_sq[done:done + m] = (diff.real ** 2 + diff.imag ** 2).sum(axis=1)
        done += m
    mse = float(err_sq.mean())
    se = float(err_sq.std(ddof=1) / math.sqrt(n_realizations))
    return mse, se
