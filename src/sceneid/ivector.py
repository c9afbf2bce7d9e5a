"""Total-variability subspace training and iVector extraction.

A recording's supervector is modeled as the UBM supervector plus T w with a
standard normal prior on w; the iVector is the posterior mean of w given the
recording's Baum-Welch statistics. T is initialized by PCA over normalized
supervector residuals and refined by EM.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, qr
from scipy.linalg.lapack import dormqr, dpotri

from . import serialize
from .errors import SceneidError
from .gmm import GmmModel, SufficientStats, gmm_checksum

_TV_MAGIC = b"SCNT"
_TV_VERSION = 1
_IVEC_MAGIC = b"SCNI"
_IVEC_VERSION = 1

_LOG_2PI = float(np.log(2.0 * np.pi))

# Soft counts below this are raised to it in the PCA residual f_c / n_c.
_PCA_N_FLOOR = 1e-2

# Rows of every posterior GEMM: each chunk of recordings is zero-padded to
# this many rows, so the GEMM shape, and with it every row's rounding, never
# depends on how many recordings share a call. It also keeps the (chunk, R, R)
# precision and factor stacks small.
IVECTOR_CHUNK = 8

# Rows per block of the stored Gram: each block keeps columns from its first
# row to R, so the upper block-triangle is stored (15,000 of 22,500 entries at
# R=150).
_GRAM_ROW_BLOCK = 50


class IVectorError(SceneidError):
    pass


@dataclass
class TvMatrix:
    """Low-rank total-variability matrix stored as per-component blocks."""

    t: np.ndarray  # (C, F, R)
    ubm_checksum: str

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=np.float64)
        if self.t.ndim != 3:
            raise IVectorError("T must have shape (components, features, rank)")
        c, f, r = self.t.shape
        if r > c * f:
            raise IVectorError(f"rank {r} exceeds supervector dimension {c * f}")
        if not np.all(np.isfinite(self.t)):
            raise IVectorError("T contains non-finite entries")

    @property
    def rank(self) -> int:
        return self.t.shape[2]


@dataclass(frozen=True)
class IVector:
    w: np.ndarray  # (R,)
    posterior_precision_logdet: float


def _check_binding(tv: TvMatrix, ubm: GmmModel) -> None:
    found = gmm_checksum(ubm)
    if found != tv.ubm_checksum:
        raise IVectorError(
            f"UBM checksum mismatch: T was trained against {tv.ubm_checksum[:12]}..., "
            f"got {found[:12]}..."
        )


def _stats_arrays(stats_list) -> tuple[np.ndarray, np.ndarray]:
    n = np.stack([s.n for s in stats_list])  # (n_rec, C)
    f = np.stack([s.f for s in stats_list])  # (n_rec, C, F)
    return n, f


def _chunks(count: int):
    """Row slices of at most IVECTOR_CHUNK recordings covering range(count)."""
    for start in range(0, count, IVECTOR_CHUNK):
        yield slice(start, min(start + IVECTOR_CHUNK, count))


def _chol_logdet(chol: np.ndarray) -> float:
    """log det of L L' from its Cholesky factor L."""
    return 2.0 * float(np.log(np.diag(chol)).sum())


class _TvOperator:
    """The iVector E-step of a T bound to its UBM.

    Caches the upper block-triangle of the per-component Gram matrices
    T_c' Sigma_c^-1 T_c as a (C, S) matrix: row block [lo, hi) of every Gram
    keeps its columns lo..R-1, so S = sum over blocks of (hi - lo) * (R - lo).
    A component's Gram is built on first use, from T_c and Sigma_c^-1 T_c,
    when some recording occupies it; until then its row is zero, which gives
    the same bits, since its count is zero wherever it is used.

    Each chunk's precisions and linear terms are two GEMMs over exactly
    IVECTOR_CHUNK zero-padded rows: n times the Gram stack, and f Sigma^-1
    times T as a (C*F, R) matrix. The GEMM shape depends only on (C, F, R),
    so every row goes through the same kernel in the same order and a row of
    the output never depends on how many recordings share the call or which
    ones; a GEMM over a varying number of rows would round differently.
    """

    def __init__(self, tv: TvMatrix, ubm: GmmModel):
        _check_binding(tv, ubm)
        c, f, r = tv.t.shape
        self._t = tv.t
        self._t2d = tv.t.reshape(c * f, r)
        self._variances = ubm.variances
        self.rank = r
        self._eye = np.eye(r)
        # (lo, hi, columns of the stored upper part) per Gram row block.
        self._row_blocks = []
        size = 0
        for lo in range(0, r, _GRAM_ROW_BLOCK):
            hi = min(lo + _GRAM_ROW_BLOCK, r)
            self._row_blocks.append((lo, hi, slice(size, size + (hi - lo) * (r - lo))))
            size += (hi - lo) * (r - lo)
        self.gram_upper = np.zeros((c, size))
        self._built = np.zeros(c, dtype=bool)

    def _build_grams(self, components) -> None:
        """Computes the stored Gram blocks of `components` in place."""
        r = self.rank
        for comp in components:
            t_trans = self._t[comp].T
            t_over_var = self._t[comp] / self._variances[comp, :, None]  # Sigma_c^-1 T_c
            for lo, hi, cols in self._row_blocks:
                out = self.gram_upper[comp, cols].reshape(hi - lo, r - lo)  # a view
                np.matmul(t_trans[lo:hi], t_over_var[:, lo:], out=out)
            self._built[comp] = True

    def posterior(self, n: np.ndarray, f: np.ndarray):
        """Posterior means w (N, R) and lower Cholesky factors (N, R, R) of the
        precisions I + sum_c n_c T_c' S_c^-1 T_c, for stacked statistics n
        (N, C) and f (N, C, F) of N <= IVECTOR_CHUNK recordings."""
        if not (np.all(np.isfinite(n)) and np.all(np.isfinite(f))):
            raise IVectorError("sufficient statistics contain non-finite values")
        rows, r = n.shape[0], self.rank
        self._build_grams(np.flatnonzero((n != 0).any(axis=0) & ~self._built))
        n_tile = np.zeros((IVECTOR_CHUNK, n.shape[1]))
        n_tile[:rows] = n
        f_tile = np.zeros((IVECTOR_CHUNK, self._t2d.shape[0]))
        np.divide(f, self._variances, out=f_tile[:rows].reshape(f.shape))  # f Sigma^-1
        upper = n_tile @ self.gram_upper
        b = f_tile @ self._t2d
        precision = np.empty((rows, r, r))
        for lo, hi, cols in self._row_blocks:
            block = upper[:rows, cols].reshape(rows, hi - lo, r - lo)
            precision[:, lo:hi, lo:] = block
            precision[:, hi:, lo:hi] = block[:, :, hi - lo :].transpose(0, 2, 1)
        precision += self._eye
        chol = np.linalg.cholesky(precision)
        w = np.stack([cho_solve((low, True), b_i) for low, b_i in zip(chol, b[:rows])])
        return w, chol


def extract_ivector(tv: TvMatrix, ubm: GmmModel, stats: SufficientStats) -> IVector:
    """MAP estimate of w: solve (I + sum_c n_c T_c' S_c^-1 T_c) w = sum_c T_c' S_c^-1 f_c."""
    w, chol = _TvOperator(tv, ubm).posterior(stats.n[None], stats.f[None])
    return IVector(w[0], _chol_logdet(chol[0]))


def extract_ivectors(tv: TvMatrix, ubm: GmmModel, stats_list) -> np.ndarray:
    """Batch extraction, IVECTOR_CHUNK recordings at a time; returns an
    (n_recordings, R) matrix whose rows equal single-recording extractions."""
    stats_list = list(stats_list)
    op = _TvOperator(tv, ubm)
    w = np.empty((len(stats_list), tv.rank))
    for rows in _chunks(len(stats_list)):
        w[rows] = op.posterior(*_stats_arrays(stats_list[rows]))[0]
    return w


def init_tv_pca(stats_list, ubm: GmmModel, rank: int) -> TvMatrix:
    """PCA initialization of T from normalized supervector residuals.

    Each recording contributes the whitened residual f_c / max(n_c,
    _PCA_N_FLOOR) / sigma_c; the top-`rank` principal directions of the
    centered residuals, scaled by singular value / sqrt(n_recordings) and
    mapped back to raw supervector units, become the columns of T. Residual
    spread of rank below `rank` raises IVectorError.

    The (n_recordings, C*F) residual matrix is factored in place as resid' =
    Q R. The SVD of the small R gives the singular values and the directions
    in R's space, which Q maps back to supervector space.
    """
    stats_list = list(stats_list)
    count = len(stats_list)
    if count < rank:
        raise IVectorError(f"PCA init needs at least {rank} recordings, got {count}")
    n, resid = _stats_arrays(stats_list)  # resid is a fresh stack of f, built in place
    c, fdim = ubm.means.shape
    sigma = np.sqrt(ubm.variances)  # (C, F)
    resid /= np.maximum(n, _PCA_N_FLOOR)[:, :, None]
    resid /= sigma
    resid = resid.reshape(count, c * fdim)
    resid -= resid.mean(axis=0)

    # resid' is Fortran-ordered, so the QR overwrites resid with Q's
    # Householder vectors instead of copying it.
    (householder, tau), r_fact = qr(resid.T, mode="raw", overwrite_a=True)
    k = tau.size  # min(count, C*F)
    _, svals, vt = np.linalg.svd(r_fact.T, full_matrices=False)
    tol = max(svals[0] * 1e-10, 1e-12) if svals.size else 1e-12
    if int((svals > tol).sum()) < rank:
        raise IVectorError(
            f"residual spread has rank {int((svals > tol).sum())} < requested {rank}"
        )
    # T' = (Q V S / sqrt(count))' = (V S / sqrt(count))' Q', applied to the
    # (rank, C*F) Fortran-ordered transpose, so T comes out C-ordered.
    t_white_t = np.zeros((rank, c * fdim), order="F")
    t_white_t[:, :k] = vt[:rank] * (svals[:rank, None] / np.sqrt(count))
    reflectors = householder[:, :k]
    lwork = int(dormqr(b"R", b"T", reflectors, tau, t_white_t, -1)[1][0])
    t_raw = dormqr(b"R", b"T", reflectors, tau, t_white_t, lwork, overwrite_c=1)[0].T
    t_raw *= sigma.reshape(-1)[:, None]
    return TvMatrix(t_raw.reshape(c, fdim, rank), gmm_checksum(ubm))


def train_tv(stats_list, ubm: GmmModel, rank: int, n_iters: int = 5) -> TvMatrix:
    """PCA init followed by EM refinement of T.

    E-step: posterior mean and correlation E[ww'] per recording. M-step:
    per component solve T_c from sum_r f w' = T_c sum_r n_c E[ww']. A
    component with no occupancy anywhere keeps its current block.

    E[ww'] is symmetric, so each recording's E[ww'] and each component's sum
    sum_i n_ic E[ww']_i are kept as packed upper triangles: the R(R+1)/2
    entries (i, j), i <= j, in row-major order (11,325 values at R=150, not
    22,500). A component's sum is unpacked into the lower triangle of one
    (R, R) scratch matrix only for its own Cholesky solve.

    Arrays alive at once, beyond `stats_list`, the (N, C) counts and the
    (N, R) iVectors:
    - E-step: T, the operator's Gram store and the (N, R(R+1)/2) packed
      E[ww'] stack; the statistics are stacked one tile at a time;
    - M-step: the packed stack, an (N, C*F) stack of f and the (C, F, R)
      sum sum_i f_i w_i', which the solves turn into the new T in place;
      once f is freed, the (C, R(R+1)/2) packed sums replace the packed
      stack.
    Of the old T only the blocks of never-occupied components outlive the
    E-step.
    """
    stats_list = list(stats_list)
    tv = init_tv_pca(stats_list, ubm, rank)
    checksum = tv.ubm_checksum
    n = np.stack([s.n for s in stats_list])  # (N, C)
    count, (c, fdim) = len(stats_list), ubm.means.shape
    unoccupied = n.sum(axis=0) <= 1e-12
    upper_rows, upper_cols = np.triu_indices(rank)
    # Flat index of (j, i) for each packed position (i, j): the same entry of
    # a symmetric matrix, read from or written to its lower triangle.
    lower_flat = upper_cols * rank + upper_rows
    unpacked = np.zeros((rank, rank))  # its upper triangle stays 0

    for _ in range(n_iters):
        op = _TvOperator(tv, ubm)
        w = np.empty((count, rank))
        eww = np.empty((count, upper_rows.size))
        for rows in _chunks(count):
            w[rows], chol = op.posterior(*_stats_arrays(stats_list[rows]))
            for i, low in enumerate(chol, rows.start):
                cov = dpotri(low, lower=1)[0]  # lower triangle of (L L')^-1; upper stays 0
                ww = w[i].take(upper_rows) * w[i].take(upper_cols)
                np.add(cov.take(lower_flat), ww, out=eww[i])
        kept = tv.t[unoccupied]
        del op, tv  # frees the Gram store and the old T before the M-step's sums
        # Sums over recordings, so one GEMM each: sum_i f_i w_i' and sum_i n_ic E[ww']_i.
        f = np.stack([s.f for s in stats_list]).reshape(count, c * fdim)
        t_new = (f.T @ w).reshape(c, fdim, rank)  # each block is solved in place
        del f
        acc_a = n.T @ eww  # (C, R(R+1)/2)
        del eww
        for comp in range(c):
            if unoccupied[comp]:
                warnings.warn(
                    f"component {comp} has no occupancy; keeping its T block", RuntimeWarning
                )
                continue
            np.put(unpacked, lower_flat, acc_a[comp])
            chol = cho_factor(unpacked, lower=True)
            t_new[comp] = cho_solve(chol, t_new[comp].T).T
        t_new[unoccupied] = kept
        tv = TvMatrix(t_new, checksum)
    return tv


def tv_evidence(tv: TvMatrix, ubm: GmmModel, stats_list) -> float:
    """Total marginal log-likelihood of the statistics under the T model.

    The EM objective: log N(f; 0, D T T' D' + Lambda) summed over recordings,
    with D = diag(n_c I) and Lambda = diag(n_c Sigma_c). Components with zero
    occupancy contribute nothing. Non-decreasing across train_tv iterations.
    """
    stats_list = list(stats_list)
    op = _TvOperator(tv, ubm)
    total = 0.0
    for rows in _chunks(len(stats_list)):
        chunk = stats_list[rows]
        w, chol = op.posterior(*_stats_arrays(chunk))
        for s, w_i, chol_i in zip(chunk, w, chol):
            active = s.n > 1e-12
            f_act = s.f[active]
            lam = s.n[active, None] * ubm.variances[active]
            b = (f_act / ubm.variances[active]).reshape(-1) @ tv.t[active].reshape(-1, tv.rank)
            quad = float((f_act**2 / lam).sum() - b @ w_i)
            dim = f_act.size
            total += -0.5 * (
                dim * _LOG_2PI + float(np.log(lam).sum()) + _chol_logdet(chol_i) + quad
            )
    return total


def tv_to_bytes(tv: TvMatrix) -> bytes:
    buf = serialize.new_container(_TV_MAGIC, _TV_VERSION)
    serialize.pack_u32(buf, tv.t.shape[0])
    serialize.pack_u32(buf, tv.t.shape[1])
    serialize.pack_u32(buf, tv.t.shape[2])
    serialize.pack_str(buf, tv.ubm_checksum)
    serialize.pack_array(buf, tv.t)
    return buf.getvalue()


def tv_from_bytes(raw) -> TvMatrix:
    fh = serialize.open_container(raw, _TV_MAGIC, _TV_VERSION)
    c = serialize.unpack_u32(fh)
    f = serialize.unpack_u32(fh)
    r = serialize.unpack_u32(fh)
    checksum = serialize.unpack_str(fh)
    t = serialize.unpack_array(fh)
    serialize.close_container(fh)
    if t.shape != (c, f, r):
        raise serialize.ContainerError("inconsistent T dimensions")
    return TvMatrix(t, checksum)


def ivectors_to_bytes(ids, w_matrix: np.ndarray) -> bytes:
    """Recording-id keyed batch of iVectors."""
    ids = list(ids)
    w_matrix = np.asarray(w_matrix, dtype=np.float64)
    if w_matrix.ndim != 2 or w_matrix.shape[0] != len(ids):
        raise IVectorError("need one iVector row per recording id")
    buf = serialize.new_container(_IVEC_MAGIC, _IVEC_VERSION)
    serialize.pack_u32(buf, len(ids))
    for rid in ids:
        serialize.pack_str(buf, rid)
    serialize.pack_array(buf, w_matrix)
    return buf.getvalue()


def ivectors_from_bytes(raw) -> tuple[list[str], np.ndarray]:
    fh = serialize.open_container(raw, _IVEC_MAGIC, _IVEC_VERSION)
    count = serialize.unpack_u32(fh)
    ids = [serialize.unpack_str(fh) for _ in range(count)]
    w = serialize.unpack_array(fh)
    serialize.close_container(fh)
    if w.ndim != 2 or w.shape[0] != count:
        raise serialize.ContainerError("iVector count mismatch")
    return ids, w
