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

`measure_sinr` draws its channels and pilot noise in the span of those
vectors rather than in C^N.  Every quantity it forms (pilot correlations,
estimated book, its Gram matrix and solve, g^H h_u, ||g||^2) is an inner
product among the U unscaled channels and the B noise columns, p = U + B
i.i.d. CN(0, I_N) vectors.  Their joint law is that of the columns of the
d x p upper-trapezoidal factor R of the QR decomposition of the N x p
Gaussian matrix, d = min(N, p): independent |R_jj|^2 ~ Gamma(N - j + 1, 1)
on the diagonal and CN(0, 1) above it (the complex Bartlett decomposition,
Goodman 1963).  Drawing R is exact in distribution and costs O(p^2) numbers
per realization instead of O(N p).  `generate` keeps the explicit N-dim
draws and serves as the cross-check for that shortcut.

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


def _ill_conditioned(gram: np.ndarray) -> np.ndarray:
    """Where a (stack of) Hermitian Gram matrices has condition number
    lambda_max / lambda_min of at least _COND_LIMIT, or an undefined one
    (zero or non-finite spectrum)."""
    w = np.linalg.eigvalsh(gram)
    return ~(w[..., -1] < _COND_LIMIT * w[..., 0])


def _span_coords(rng: np.random.Generator, m: int, n: int, p: int) -> np.ndarray:
    """(m, d, p) coordinates of p i.i.d. CN(0, I_n) vectors in an orthonormal
    basis of their span, d = min(n, p): the upper-trapezoidal Bartlett factor,
    sqrt(Gamma(n - j, 1)) on the 0-based diagonal j and CN(0, 1) above it."""
    d = min(n, p)
    coords = np.zeros((m, d, p), dtype=complex)
    for j in range(d):  # strictly upper entries only, row by row
        pairs = rng.standard_normal((m, p - j - 1, 2))
        coords[:, j, j + 1:] = pairs.view(complex)[..., 0]
    coords *= math.sqrt(0.5)
    diag = np.arange(d)
    coords[:, diag, diag] = np.sqrt(rng.standard_gamma(n - diag, size=(m, d)))
    return coords


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


def _draw_positions(config: NetworkConfig, cells, mode: InterferenceMode,
                    rng: np.random.Generator, n_real: int) -> np.ndarray:
    """(n_real, U, 2) UE positions; worst-case mode pins out-of-cell UEs to
    the cell-edge point nearest the victim BS."""
    k = config.n_users
    r = config.cell_radius
    frac = config.min_ue_distance_frac
    out = np.empty((n_real, len(cells) * k, 2))
    for ci, cell in enumerate(cells):
        sl = slice(ci * k, (ci + 1) * k)
        if mode is InterferenceMode.WORST_CASE and cell != (0, 0):
            out[:, sl, :] = worst_case_position(cell, CellIndex(0, 0), r)
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

    positions = _draw_positions(config, cells, mode, rng, 1)[0]
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
    position averaging wrapping the channel/noise averaging); channels and
    noise are drawn as span coordinates (see the module docstring), so the
    antenna axis of every array here has length min(N, U + B).  The standard
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
    n, k, b = config.n_antennas, config.n_users, plan.pilot_len
    inv_snr = config.inv_snr
    rho = config.snr_linear
    n_users_total = len(cols)
    u_own = 0                              # user 1 of the origin cell, listed first
    i_target = cols[u_own]
    vmat = dft_pilot_matrix(b)
    pilot_rows = vmat.conj().T[cols]
    rhs = np.zeros(b)
    rhs[i_target] = 1.0

    sizes = [n_realizations // N_BATCHES] * N_BATCHES
    for i in range(n_realizations % N_BATCHES):
        sizes[i] += 1
    dim = min(n, n_users_total + b)
    # cap per-draw array sizes; batches are accumulated over sub-chunks
    max_chunk = max(1, (1 << 22) // max(1, dim * n_users_total))

    s1_sums = np.zeros(N_BATCHES, dtype=complex)
    pow_sums = np.zeros((N_BATCHES, n_users_total))
    gn_sums = np.zeros(N_BATCHES)

    for bi, batch_size in enumerate(sizes):
        left = batch_size
        while left > 0:
            n_chunk = min(left, max_chunk)
            left -= n_chunk
            positions = _draw_positions(config, cells, mode, rng, n_chunk)
            d_ratio, _, _ = _distance_fields(config, centers, positions)
            coords = _span_coords(rng, n_chunk, n, n_users_total + b)
            h_eff = np.sqrt(rho * d_ratio)[:, None, :] * coords[..., :n_users_total]
            noise = coords[..., n_users_total:]
            y_pilot = h_eff @ pilot_rows + noise
            if scheme is Scheme.MRC:
                # raw pilot correlation: psi-free scale
                g = (y_pilot @ vmat)[:, :, i_target]
            else:
                psi = _psi(d_ratio, cols, b, inv_snr)
                book = (y_pilot @ vmat) / psi[:, None, :]
                gram = np.einsum("rnb,rnc->rbc", book.conj(), book)
                if np.any(_ill_conditioned(gram)):
                    raise RankDeficient(
                        "estimated pilot book is numerically rank deficient")
                x = np.linalg.solve(gram, np.broadcast_to(rhs, (n_chunk, b))[..., None])
                g = (book @ x)[..., 0]
            cross = np.einsum("rn,rnu->ru", g.conj(), h_eff)
            s1_sums[bi] += cross[:, u_own].sum()
            pow_sums[bi] += (cross.real ** 2 + cross.imag ** 2).sum(axis=0)
            gn_sums[bi] += (g.real ** 2 + g.imag ** 2).sum()

    counts = np.array(sizes, dtype=float)

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
    own_cell = slice(0, k)
    terms = {
        "signal": coherent,
        "estimation_gap": float(pow_mean[u_own] - coherent),
        "intra_cell": float(pow_mean[own_cell].sum() - pow_mean[u_own]),
        "inter_cell": float(pow_mean[k:].sum()),
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
    chunk = max(1, min(n_realizations, (1 << 22) // max(1, n * len(cols))))
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
