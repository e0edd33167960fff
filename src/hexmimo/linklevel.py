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
it forms (pilot correlations, estimated book, its Gram matrix and solve,
g^H h_u, ||g||^2) is a function of W C, where W = Z^H Z is the p x p Gram
matrix of the U unscaled channels and the B noise columns (p = U + B
i.i.d. CN(0, I_N) vectors, so W is complex Wishart with N degrees of
freedom) and C is the p x q matrix of pilot coefficients the combiner
reads (q = 1 for MRC, B for zero-forcing).  W is unitarily invariant, so
rotating span(C) onto the first q coordinates leaves its law unchanged;
there W C needs only the first q rows of W's Bartlett factor: a q x q
upper-triangular block R_q (|R_jj|^2 ~ Gamma(N - j, 1) on the 0-based
diagonal, CN(0, 1) above it; Goodman 1963) and, for the remaining rows,
one CN(0, I) vector.  Drawing that statistic is exact in
distribution and costs O(q^2 + p) numbers per realization instead of the
O(N p) of the explicit vectors.  `generate` keeps the explicit N-dim draws
and serves as the cross-check for the shortcut.

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

_COND_LIMIT = 1e12
N_BATCHES = 20   # batch means behind measure_sinr's standard error
_CHUNK_ELEMS = 1 << 22  # caps the elements of a chunk's largest arrays


def _ill_conditioned(gram: np.ndarray) -> np.ndarray:
    """Where a (stack of) Hermitian Gram matrices has condition number
    lambda_max / lambda_min of at least _COND_LIMIT, or an undefined one
    (zero or non-finite spectrum)."""
    w = np.linalg.eigvalsh(gram)
    return ~(w[..., -1] < _COND_LIMIT * w[..., 0])


def _bartlett_block(rng: np.random.Generator, n: int, m: int, q: int) -> np.ndarray:
    """(m, q, q) upper-triangular complex Bartlett factors of q x q Wishart
    matrices with n >= q degrees of freedom: sqrt(Gamma(n - j, 1)) on the
    0-based diagonal j and CN(0, 1) above it."""
    out = np.zeros((m, q, q), dtype=complex)
    rows, cols = np.triu_indices(q, 1)
    out[:, rows, cols] = _complex_normal(rng, (m, rows.size))
    diag = np.arange(q)
    out[:, diag, diag] = np.sqrt(rng.standard_gamma(n - diag, size=(m, q)))
    return out


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


def _distance_fields(config: NetworkConfig, centers: np.ndarray,
                     positions: np.ndarray):
    """(d_ratio, tx_power, d_victim) for positions of shape (..., U, 2)."""
    kappa = config.pathloss_exponent
    serving = np.linalg.norm(positions - centers, axis=-1)
    victim = np.linalg.norm(positions, axis=-1)
    d_ratio = (serving / victim) ** kappa
    tx_power = config.snr_linear * serving ** kappa / config.pathloss_ref
    d_victim = config.pathloss_ref / victim ** kappa
    return d_ratio, tx_power, d_victim


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
    if _ill_conditioned(gram):
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
    orthogonal), so its Cholesky factor T is its square root.  With R_q the
    q x q Bartlett block and v = R_q T y,

        W C y = ||v|| xi + C (T^-1 R_q^H v - G^-1 C^H xi ||v||),
        ||g||^2 = ||v||^2,

    for xi ~ CN(0, I_p) independent of R_q; this holds for any N >= q.  Only
    the U user rows of W C y are read, and the noise rows of C enter only
    through C^H xi, where they add CN(0, B I_q).  MRC has q = 1 and y = 1;
    zero-forcing has the Gram matrix D^-1 T R_q^H R_q T D^-1 of the
    estimated book (D = diag(psi)) and y = D^-1 gram^-1 e.  The standard
    error comes from N_BATCHES batch means; `terms` decomposes the SINR
    denominator into coherent signal, estimation gap, intra-cell
    interference, inter-cell interference and noise.

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
    pinned = _pinned_positions(config, cells, mode)
    n, b = config.n_antennas, plan.pilot_len
    kappa = config.pathloss_exponent
    rho = config.snr_linear
    n_users_total = len(cols)
    u_own = 0                              # user 1 of the origin cell, listed first
    i_target = cols[u_own]
    # MRC needs only the target pilot's correlation, zero-forcing all B
    pilots = [i_target] if scheme is Scheme.MRC else list(range(b))
    q = len(pilots)
    user_on_pilot = b * (cols[:, None] == np.array(pilots)).astype(float)  # (U, q)
    rhs = np.zeros((b, 1))
    rhs[i_target] = 1.0

    sizes = [n_realizations // N_BATCHES] * N_BATCHES
    for i in range(n_realizations % N_BATCHES):
        sizes[i] += 1
    # cap per-draw array sizes at m x p x q; batches are accumulated over
    # sub-chunks
    max_chunk = max(1, _CHUNK_ELEMS // ((n_users_total + b) * q))

    s1_sums = np.zeros(N_BATCHES, dtype=complex)
    pow_sums = np.zeros((N_BATCHES, n_users_total))
    gn_sums = np.zeros(N_BATCHES)

    for bi, batch_size in enumerate(sizes):
        left = batch_size
        while left > 0:
            n_chunk = min(left, max_chunk)
            left -= n_chunk
            positions = _draw_positions(config, cells, pinned, rng, n_chunk)
            serving = np.linalg.norm(positions - centers, axis=-1)
            d_ratio = (serving / np.linalg.norm(positions, axis=-1)) ** kappa
            # user rows of C: amp * user_on_pilot.  The contractions with
            # user_on_pilot run in einsum: a BLAS call here would keep a
            # second OpenBLAS thread spinning through the whole loop
            amp = np.sqrt(rho * d_ratio)
            g_diag = np.einsum("mu,uj->mj", rho * d_ratio, user_on_pilot ** 2) + b
            t = np.sqrt(g_diag)
            r_q = _bartlett_block(rng, n, n_chunk, q)
            if scheme is Scheme.MRC:
                ty = t  # y = 1: the raw pilot correlation, psi-free scale
            else:
                psi = _psi(d_ratio, cols, b, config.inv_snr)
                ty = t / psi
                a = r_q * ty[:, None, :]                # R_q T D^-1
                gram = a.conj().transpose(0, 2, 1) @ a
                if np.any(_ill_conditioned(gram)):
                    raise RankDeficient(
                        "estimated pilot book is numerically rank deficient")
                ty = ty * np.linalg.solve(gram, rhs)[..., 0]
            v = (r_q @ ty[..., None])[..., 0]           # R_q T y
            v_norm_sq = (v.real ** 2 + v.imag ** 2).sum(axis=1)
            v_norm = np.sqrt(v_norm_sq)
            xi = _complex_normal(rng, (n_chunk, n_users_total + q))
            c_xi = (np.einsum("mu,uj->mj", amp * xi[:, :n_users_total], user_on_pilot)
                    + math.sqrt(b) * xi[:, n_users_total:])  # C^H xi
            # T^-1 R_q^H v - G^-1 C^H xi ||v||, then the user rows of W C y
            z = ((r_q.conj().transpose(0, 2, 1) @ v[..., None])[..., 0] / t
                 - c_xi * v_norm[:, None] / g_diag)
            wcy = (v_norm[:, None] * xi[:, :n_users_total]
                   + amp * np.einsum("mj,uj->mu", z, user_on_pilot))
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
