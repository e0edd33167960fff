"""Reference implementations that the tests compare the library against.

The library keeps one code path per job: the closed forms the sweep
evaluates, and the link-level oracle `hexmimo.linklevel.measure_sinr`,
which draws only the UE positions and averages the rest exactly.  The
slower, literal forms of the same quantities live here, because only tests
call them:

* geometry: the tier disks around the origin and the closed-hexagon
  membership test;
* pilots: the per-user pilot rule `assign` (user k of a cell in reuse group
  g on pilot g K + k) and the inner product of two pilot sequences of an
  orthogonal book;
* closed forms: the "generic" SINRs, which sum over every (cell, user) pair
  with explicit pilot inner products, next to the library's collapsed forms;
* link level: an explicit coherence block in C^N (`generate`, a
  `Realization`), its LMMSE estimates in scalar and Kronecker form, the
  estimated pilot book and the MRC and zero-forcing combiners built from it,
  the estimation error, and the helpers that lay users out one by one (a
  center and a pilot column each), sum them by pilot slot, and pin and draw
  positions and pilot powers; `xi_measure_sinr`, the loop that samples W C
  (one Gamma number and U + q normals per realization), whose averages
  `measure_sinr` takes exactly; and `batched_measure`, the batch-and-chunk loop every sampled
  reference runs (its g^H h_own is random, so its standard error comes
  from batch means).  These cross-check `measure_sinr` and the LMMSE terms
  of the closed forms.

Import from a test module as ``from reference import ...``; pytest puts
``tests/`` on the import path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from hexmimo.config import InterferenceMode, NetworkConfig, Schedule
from hexmimo.errors import InsufficientAntennas
from hexmimo.hexgrid import (CellIndex, bs_position, cells_in_tier, reuse_group,
                             sample_ue_positions, sorted_tier_set,
                             worst_case_positions)
from hexmimo.linklevel import (_CHUNK_ELEMS, MeasuredSinr, _measured,
                               _squared_distances)
from hexmimo.spectral import Scheme, SinrInputs


class RankDeficient(RuntimeError):
    """Estimated channel book is numerically rank deficient."""


# ---------------------------------------------------------------------------
# geometry

# Outward edge normals of the unit hexagon (three axes; opposite edges share
# an axis) and its apothem.
_EDGE_AXES = np.array([(math.cos(a), math.sin(a))
                       for a in (math.pi / 6.0, math.pi / 2.0, 5.0 * math.pi / 6.0)])
_APOTHEM = math.sqrt(3.0) / 2.0


def cells_within_tier(tier: int) -> list[CellIndex]:
    """All cells with ring distance <= tier, origin first, sorted per tier."""
    out = []
    for t in range(tier + 1):
        out.extend(cells_in_tier(t))
    return out


def contains(cell: CellIndex, point: np.ndarray, radius: float,
             tol: float = 1e-12) -> bool:
    """Whether `point` lies in the closed hexagon of `cell`; points on shared
    edges are contained in both adjacent hexagons."""
    w = (np.asarray(point, dtype=float) - bs_position(cell, radius)) / radius
    return bool(np.max(np.abs(_EDGE_AXES @ w)) <= _APOTHEM + tol)


# ---------------------------------------------------------------------------
# pilot indices and inner products


def assign(schedule: Schedule, group: int, user: int) -> int:
    """Pilot index (1-based, in {1, ..., B}) of user `user` in a cell of
    reuse group `group`: slot `user` of the group's block of K pilots.

    Users are 1-based to match pilot indices; the map is bijective from
    (group, user) onto {1, ..., B}.
    """
    if not 0 <= group < schedule.reuse_factor:
        raise IndexError(f"group {group} out of range [0, {schedule.reuse_factor})")
    if not 1 <= user <= schedule.n_users:
        raise IndexError(f"user {user} out of range [1, {schedule.n_users}]")
    return group * schedule.n_users + user


def inner_product(i1: int, i2: int, pilot_len: int) -> float:
    """Inner product of two pilot sequences from an orthogonal book:
    B if the indices match, 0 otherwise."""
    if not (1 <= i1 <= pilot_len and 1 <= i2 <= pilot_len):
        raise IndexError(f"pilot indices must be in [1, {pilot_len}]")
    return float(pilot_len) if i1 == i2 else 0.0


# ---------------------------------------------------------------------------
# generic (literal) closed forms, checked against the collapsed ones


def _pilot_indices(schedule: Schedule, tier_set) -> list[list[int]]:
    """Pilot index of every (cell, user) pair in the tier set."""
    beta = schedule.reuse_factor
    return [[assign(schedule, reuse_group(c, beta), m)
             for m in range(1, schedule.n_users + 1)] for c in tier_set]


def sinr_mrc_generic(inputs: SinrInputs, user: int = 1) -> float:
    """MRC SINR by literal summation over every (cell, user) pair."""
    sched = inputs.schedule
    n, k, b, inv_snr = (float(sched.n_antennas), sched.n_users, sched.pilot_len,
                        inputs.config.inv_snr)
    cells = inputs.moments.offsets
    mu1 = [inputs.moments.entry(c).mu1 for c in cells]
    mu2 = [inputs.moments.entry(c).mu2 for c in cells]
    idx = _pilot_indices(sched, cells)
    i_target = assign(sched, reuse_group(CellIndex(0, 0), sched.reuse_factor), user)

    gain_deficit = sum(mu1) * k / n + inv_snr / n
    pilot_power = inv_snr
    contamination = 0.0
    for ci in range(len(cells)):
        for m in range(k):
            ip = inner_product(i_target, idx[ci][m], b)
            pilot_power += mu1[ci] * ip
            contamination += (mu2[ci] + (mu2[ci] - mu1[ci] ** 2) / n) * ip
    denom = gain_deficit * pilot_power + contamination - b
    return b / denom if denom > 0 else math.inf


def sinr_pzfc_generic(inputs: SinrInputs, user: int = 1) -> float:
    """PZFC SINR by literal summation over every (cell, user) pair."""
    sched = inputs.schedule
    n, k, b, inv_snr = (float(sched.n_antennas), sched.n_users, sched.pilot_len,
                        inputs.config.inv_snr)
    if sched.n_antennas <= sched.pilot_len:
        raise InsufficientAntennas(
            f"PZFC needs N > B, got N={sched.n_antennas}, B={sched.pilot_len}")
    cells = inputs.moments.offsets
    mu1 = [inputs.moments.entry(c).mu1 for c in cells]
    mu2 = [inputs.moments.entry(c).mu2 for c in cells]
    idx = _pilot_indices(sched, cells)
    i_target = assign(sched, reuse_group(CellIndex(0, 0), sched.reuse_factor), user)

    contamination = 0.0
    residual = inv_snr
    pilot_power = inv_snr
    for ci in range(len(cells)):
        for m in range(k):
            ip = inner_product(i_target, idx[ci][m], b)
            contamination += (mu2[ci] + (mu2[ci] - mu1[ci] ** 2) / (n - b)) * ip
            pilot_power += mu1[ci] * ip
            # contamination of the pilot direction this user was estimated on
            own_direction = inv_snr
            for cj in range(len(cells)):
                for m2 in range(k):
                    own_direction += mu1[cj] * inner_product(idx[ci][m], idx[cj][m2], b)
            residual += mu1[ci] * (1.0 - b * mu1[ci] / own_direction)
    denom = contamination + residual * pilot_power / (n - b) - b
    return b / denom if denom > 0 else math.inf


def asymptotic_sinr_generic(inputs: SinrInputs, user: int = 1) -> float:
    """Large-N SINR limit by literal summation."""
    sched = inputs.schedule
    b = sched.pilot_len
    cells = inputs.moments.offsets
    idx = _pilot_indices(sched, cells)
    i_target = assign(sched, reuse_group(CellIndex(0, 0), sched.reuse_factor), user)
    denom = -float(b)
    for ci, c in enumerate(cells):
        mu2 = inputs.moments.entry(c).mu2
        for m in range(sched.n_users):
            denom += mu2 * inner_product(i_target, idx[ci][m], b)
    return b / denom if denom > 0 else math.inf


# ---------------------------------------------------------------------------
# explicit link level in C^N, checked against measure_sinr


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
    schedule: Schedule
    cells: tuple[CellIndex, ...]
    mode: InterferenceMode
    positions: np.ndarray     # (U, 2) UE coordinates at the drawn cell radius
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
        k = self.schedule.n_users
        if not 1 <= user <= k:
            raise IndexError(f"user {user} out of range [1, {k}]")
        return self.cells.index(CellIndex(*cell)) * k + (user - 1)


def _user_layout(schedule: Schedule, cells):
    """Per-user metadata, cell by cell: each user's serving center (at unit
    radius) and 0-based pilot column, by the per-user rule `assign`."""
    k, beta = schedule.n_users, schedule.reuse_factor
    centers = np.array([bs_position(c, 1.0) for c in cells for _ in range(k)])
    cols = np.array([assign(schedule, reuse_group(c, beta), m) - 1
                     for c in cells for m in range(1, k + 1)])
    return centers, cols


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


def _pinned_positions(cells, mode: InterferenceMode) -> dict[int, np.ndarray]:
    """{cell rank: position} of the UEs that are not drawn: worst-case mode
    pins out-of-cell UEs to the cell-edge point nearest the victim BS (at
    unit radius).  `cells` is a tier set, so the own cell is at rank 0."""
    if mode is not InterferenceMode.WORST_CASE:
        return {}
    return dict(enumerate(worst_case_positions(cells[1:]), start=1))


def _draw_positions(config: NetworkConfig, k: int, cells,
                    pinned: dict[int, np.ndarray], rng: np.random.Generator,
                    n_real: int, radius: float = 1.0) -> np.ndarray:
    """(n_real, U, 2) positions of `k` UEs per cell on a grid of cell radius
    `radius`: the `pinned` ones (given at that radius), the rest drawn by
    one sampler call around the origin, realization-major and then in user
    order, each moved to its cell's center."""
    out = np.empty((n_real, len(cells), k, 2))
    drawn = [ci for ci in range(len(cells)) if ci not in pinned]
    for ci in pinned:
        out[:, ci] = pinned[ci]
    pts = sample_ue_positions(CellIndex(0, 0), radius, config.min_ue_distance_frac,
                              rng, n_real * len(drawn) * k)
    out[:, drawn] = pts.reshape(n_real, len(drawn), k, 2)
    for ci in drawn:
        out[:, ci] += bs_position(cells[ci], radius)
    return out.reshape(n_real, len(cells) * k, 2)


def _distance_fields(config: NetworkConfig, centers: np.ndarray,
                     positions: np.ndarray, pathloss_ref: float = 1.0):
    """(d_ratio, tx_power, d_victim) for positions of shape (..., U, 2), with
    channel variance pathloss_ref / distance^kappa."""
    half_kappa = config.pathloss_exponent / 2
    serving_sq, victim_sq = _squared_distances(positions, centers)
    d_ratio = (serving_sq / victim_sq) ** half_kappa
    tx_power = config.snr_linear * serving_sq ** half_kappa / pathloss_ref
    d_victim = pathloss_ref / victim_sq ** half_kappa
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


def generate(config: NetworkConfig, schedule: Schedule, cells,
             mode: InterferenceMode, rng: np.random.Generator, *,
             radius: float = 1.0, pathloss_ref: float = 1.0) -> Realization:
    """Draw one complete coherence-block realization at the victim BS.

    The physics is in absolute units: positions on a grid of cell radius
    `radius` and channel variance `pathloss_ref` / distance^kappa.  The
    power control inverts the pathloss to the serving BS, so both cancel
    from `d_ratio`, `h_eff` and `y_pilot` (to rounding), which is why the
    library's `NetworkConfig` holds neither.
    """
    schedule.check(config.coherence_block)
    cells = sorted_tier_set(cells)
    centers, cols = _user_layout(schedule, cells)
    centers = radius * centers
    pinned = {ci: radius * p for ci, p in _pinned_positions(cells, mode).items()}
    n, b = schedule.n_antennas, schedule.pilot_len

    positions = _draw_positions(config, schedule.n_users, cells, pinned, rng, 1,
                                radius)[0]
    d_ratio, tx_power, d_victim = _distance_fields(config, centers, positions,
                                                   pathloss_ref)

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

    return Realization(config=config, schedule=schedule, cells=cells, mode=mode,
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
    lift = np.kron(row, np.eye(realization.schedule.n_antennas))
    return realization.d_ratio[u] * (lift @ realization.y_pilot.flatten(order="F"))


def estimation_error_scale(realization: Realization, cell: CellIndex,
                           user: int) -> float:
    """Per-antenna variance of the estimation error; the MSE is N times this."""
    u = realization.user_index(cell, user)
    cfg = realization.config
    dr = realization.d_ratio[u]
    b = realization.schedule.pilot_len
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


def measure_estimation_mse(realization: Realization, n_realizations: int,
                           rng: np.random.Generator, cell: CellIndex,
                           user: int) -> tuple[float, float]:
    """Empirical MSE of the LMMSE estimate at fixed UE positions.

    Redraws channels and noise `n_realizations` times with the positions (and
    hence the error covariance) of `realization` held fixed; returns the mean
    squared error and its standard error.
    """
    cfg = realization.config
    n, b = realization.schedule.n_antennas, realization.schedule.pilot_len
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


# ---------------------------------------------------------------------------
# the sampled W C loop, whose conditional averages measure_sinr takes exactly


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) entries of the given shape."""
    pairs = rng.standard_normal((*shape, 2))
    pairs *= math.sqrt(0.5)
    return pairs.view(complex)[..., 0]


N_BATCHES = 20  # batch means behind the sampled references' standard error


def sampled_measured(sizes, s1_sums, pow_sums, gn_sums, n_own: int) -> MeasuredSinr:
    """The sample bound of sums over batches of `sizes` sampled realizations:
    per batch, of g^H h_own, of |g^H h_u|^2 per user u (the first `n_own` in
    the victim cell; the own user's whole) and of ||g||^2.  The coherent
    part |mean g^H h_own|^2 comes out of the own user's power, so the SINR
    is the bound of the sample.  g^H h_own is random here, so the standard
    error comes from the N_BATCHES batch SINRs, each the bound of its
    batch."""

    def bound(s1_sum, pow_sum, gn_sum, count):
        s1 = s1_sum / count
        pow_mean = pow_sum / count
        pow_mean[0] -= abs(s1) ** 2
        return _measured(s1, pow_mean, gn_sum / count, 0.0, n_own)

    batch_sinrs = [bound(*sums).sinr for sums in zip(s1_sums, pow_sums, gn_sums, sizes)]
    total = bound(s1_sums.sum(), pow_sums.sum(axis=0), gn_sums.sum(), sum(sizes))
    return replace(total, std_error=float(np.std(batch_sinrs, ddof=1)
                                          / math.sqrt(N_BATCHES)))


def batched_measure(n_realizations: int, max_chunk: int, n_own: int,
                    chunk_sums) -> MeasuredSinr:
    """`sampled_measured` of `n_realizations` sampled realizations in
    N_BATCHES batches (sizes differing by at most one, the larger first),
    each drawn in chunks of at most `max_chunk`: `chunk_sums(m)` draws m
    fresh realizations and returns their sums of g^H h_own, of |g^H h_u|^2
    per user u and of ||g||^2."""
    sizes = [n_realizations // N_BATCHES + (i < n_realizations % N_BATCHES)
             for i in range(N_BATCHES)]
    batch_sums = []
    for size in sizes:
        chunks = [chunk_sums(min(max_chunk, size - start))
                  for start in range(0, size, max_chunk)]
        batch_sums.append([sum(parts) for parts in zip(*chunks)])
    s1_sums, pow_sums, gn_sums = (np.array(column) for column in zip(*batch_sums))
    return sampled_measured(sizes, s1_sums, pow_sums, gn_sums, n_own)


def xi_measure_sinr(config: NetworkConfig, schedule: Schedule, cells,
                    mode: InterferenceMode, scheme: Scheme, n_realizations: int,
                    rng: np.random.Generator) -> MeasuredSinr:
    """`measure_sinr`'s estimand, sampled: every realization draws the UE
    positions (`_draw_positions`, the own cell's too), one Wishart number X
    and U + q normals xi, and forms W C y from them (the identity in the
    `hexmimo.linklevel` docstring).  With C holding sqrt(rho d_u) B on user
    u's pilot column and the DFT rows for the noise, the combiner is
    g = Z C y, g^H h_u = (W C y)_u^* sqrt(rho d_u) and ||g||^2 = ||v||^2:

    - MRC (q = 1, y = 1): X ~ Gamma(N, 1), a = X and ||v||^2 = g_i X;
    - zero-forcing (q = B): X ~ Gamma(N - B + 1, 1), a = 1 / (B rho) and
      ||v||^2 = g_i / ((B rho)^2 X).

    A drawn ||v||^2 that is zero or not finite is a singular W_q (or a zero
    MRC direction) and raises RankDeficient."""
    schedule.check(config.coherence_block, scheme)
    cells = sorted_tier_set(cells)
    centers, cols = _user_layout(schedule, cells)
    pinned = _pinned_positions(cells, mode)
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

    def chunk_sums(n_chunk):
        positions = _draw_positions(config, schedule.n_users, cells, pinned,
                                    rng, n_chunk)
        d_ratio, _, _ = _distance_fields(config, centers, positions)
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
        return (np.vdot(wcy[:, u_own], amp[:, u_own]),
                np.einsum("ij,ij->j", amp * amp, wcy.real ** 2 + wcy.imag ** 2),
                v_norm_sq.sum())

    return batched_measure(n_realizations,
                           max(1, _CHUNK_ELEMS // (n_users_total + q)),
                           schedule.n_users, chunk_sums)
