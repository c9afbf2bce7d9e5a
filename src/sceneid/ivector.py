"""Total-variability subspace training and iVector extraction.

A recording's supervector is modeled as the UBM supervector plus T w with a
standard normal prior on w; the iVector is the posterior mean of w given the
recording's Baum-Welch statistics. T is initialized by PCA over normalized
supervector residuals and refined by EM.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from io import BytesIO

import numpy as np
from scipy.linalg import cho_factor, cho_solve

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


class _TvOperator:
    """The iVector E-step: caches Sigma^-1 T blocks and per-component Gram
    matrices of a T bound to its UBM."""

    def __init__(self, tv: TvMatrix, ubm: GmmModel):
        _check_binding(tv, ubm)
        self.t_over_var = tv.t / ubm.variances[:, :, None]  # Sigma_c^{-1} T_c
        self.gram = np.einsum("cfr,cfs->crs", tv.t, self.t_over_var)
        self.rank = tv.rank
        self._eye = np.eye(tv.rank)

    def posterior(self, n: np.ndarray, f: np.ndarray):
        """Posterior precision L, mean w and Cholesky factor for one recording."""
        if not (np.all(np.isfinite(n)) and np.all(np.isfinite(f))):
            raise IVectorError("sufficient statistics contain non-finite values")
        precision = self._eye + np.einsum("c,crs->rs", n, self.gram)
        b = np.einsum("cfr,cf->r", self.t_over_var, f)
        chol = cho_factor(precision, lower=True)
        w = cho_solve(chol, b)
        return precision, w, chol


def extract_ivector(tv: TvMatrix, ubm: GmmModel, stats: SufficientStats) -> IVector:
    """MAP estimate of w: solve (I + sum_c n_c T_c' S_c^-1 T_c) w = sum_c T_c' S_c^-1 f_c."""
    _, w, chol = _TvOperator(tv, ubm).posterior(stats.n, stats.f)
    logdet = 2.0 * float(np.log(np.diag(chol[0])).sum())
    return IVector(w, logdet)


def extract_ivectors(tv: TvMatrix, ubm: GmmModel, stats_list) -> np.ndarray:
    """Batch extraction; returns an (n_recordings, R) matrix."""
    op = _TvOperator(tv, ubm)
    return np.stack([op.posterior(s.n, s.f)[1] for s in stats_list])


def init_tv_pca(stats_list, ubm: GmmModel, rank: int) -> TvMatrix:
    """PCA initialization of T from normalized supervector residuals.

    Each recording contributes the whitened residual f_c / max(n_c,
    _PCA_N_FLOOR) / sigma_c; the top-`rank` principal directions of the
    centered residuals, scaled by singular value / sqrt(n_recordings) and
    mapped back to raw supervector units, become the columns of T. Residual
    spread of rank below `rank` raises IVectorError.
    """
    stats_list = list(stats_list)
    if len(stats_list) < rank:
        raise IVectorError(f"PCA init needs at least {rank} recordings, got {len(stats_list)}")
    n, f = _stats_arrays(stats_list)
    c, fdim = ubm.means.shape
    sigma = np.sqrt(ubm.variances)  # (C, F)
    resid = f / np.maximum(n, _PCA_N_FLOOR)[:, :, None] / sigma  # (n_rec, C, F)
    resid = resid.reshape(len(stats_list), c * fdim)
    resid = resid - resid.mean(axis=0)

    _, svals, vt = np.linalg.svd(resid, full_matrices=False)
    tol = max(svals[0] * 1e-10, 1e-12) if svals.size else 1e-12
    if int((svals > tol).sum()) < rank:
        raise IVectorError(
            f"residual spread has rank {int((svals > tol).sum())} < requested {rank}"
        )
    t_white = vt[:rank].T * (svals[:rank] / np.sqrt(len(stats_list)))
    t_raw = t_white * sigma.reshape(-1)[:, None]
    return TvMatrix(t_raw.reshape(c, fdim, rank), gmm_checksum(ubm))


def train_tv(stats_list, ubm: GmmModel, rank: int, n_iters: int = 5) -> TvMatrix:
    """PCA init followed by EM refinement of T.

    E-step: posterior mean and correlation E[ww'] per recording. M-step:
    per component solve T_c from sum_r f w' = T_c sum_r n_c E[ww']. A
    component with no occupancy anywhere keeps its current block.
    """
    stats_list = list(stats_list)
    tv = init_tv_pca(stats_list, ubm, rank)
    n, f = _stats_arrays(stats_list)
    c, fdim = ubm.means.shape
    eye = np.eye(rank)

    for _ in range(n_iters):
        op = _TvOperator(tv, ubm)
        w_all = np.empty((len(stats_list), rank))
        eww_all = np.empty((len(stats_list), rank, rank))
        for i in range(len(stats_list)):
            _, w, chol = op.posterior(n[i], f[i])
            w_all[i] = w
            eww_all[i] = cho_solve(chol, eye) + np.outer(w, w)

        acc_a = np.einsum("ic,irs->crs", n, eww_all)  # (C, R, R)
        acc_c = np.einsum("icf,ir->cfr", f, w_all)  # (C, F, R)
        t_new = tv.t.copy()
        for comp in range(c):
            if n[:, comp].sum() <= 1e-12:
                warnings.warn(
                    f"component {comp} has no occupancy; keeping its T block", RuntimeWarning
                )
                continue
            chol = cho_factor(acc_a[comp], lower=True)
            t_new[comp] = cho_solve(chol, acc_c[comp].T).T
        tv = TvMatrix(t_new, tv.ubm_checksum)
    return tv


def tv_evidence(tv: TvMatrix, ubm: GmmModel, stats_list) -> float:
    """Total marginal log-likelihood of the statistics under the T model.

    The EM objective: log N(f; 0, D T T' D' + Lambda) summed over recordings,
    with D = diag(n_c I) and Lambda = diag(n_c Sigma_c). Components with zero
    occupancy contribute nothing. Non-decreasing across train_tv iterations.
    """
    op = _TvOperator(tv, ubm)
    total = 0.0
    for s in stats_list:
        active = s.n > 1e-12
        n_act = s.n[active]
        f_act = s.f[active]
        var_act = ubm.variances[active]
        lam = n_act[:, None] * var_act
        _, w, chol = op.posterior(s.n, s.f)
        logdet_l = 2.0 * float(np.log(np.diag(chol[0])).sum())
        b = np.einsum("cfr,cf->r", tv.t[active] / var_act[:, :, None], f_act)
        quad = float((f_act**2 / lam).sum() - b @ w)
        dim = f_act.size
        total += -0.5 * (dim * _LOG_2PI + float(np.log(lam).sum()) + logdet_l + quad)
    return total


def save_tv(tv: TvMatrix, path) -> None:
    buf = BytesIO()
    serialize.pack_u32(buf, tv.t.shape[0])
    serialize.pack_u32(buf, tv.t.shape[1])
    serialize.pack_u32(buf, tv.t.shape[2])
    serialize.pack_str(buf, tv.ubm_checksum)
    serialize.pack_array(buf, tv.t)
    serialize.write_container(path, _TV_MAGIC, _TV_VERSION, buf.getvalue())


def load_tv(path) -> TvMatrix:
    fh = serialize.read_container(path, _TV_MAGIC, _TV_VERSION)
    c = serialize.unpack_u32(fh)
    f = serialize.unpack_u32(fh)
    r = serialize.unpack_u32(fh)
    checksum = serialize.unpack_str(fh)
    t = serialize.unpack_array(fh)
    if t.shape != (c, f, r):
        raise serialize.ContainerError(f"{path}: inconsistent T dimensions")
    return TvMatrix(t, checksum)


def save_ivectors(ids, w_matrix: np.ndarray, path) -> None:
    """Recording-id keyed batch of iVectors."""
    ids = list(ids)
    w_matrix = np.asarray(w_matrix, dtype=np.float64)
    if w_matrix.ndim != 2 or w_matrix.shape[0] != len(ids):
        raise IVectorError("need one iVector row per recording id")
    buf = BytesIO()
    serialize.pack_u32(buf, len(ids))
    for rid in ids:
        serialize.pack_str(buf, rid)
    serialize.pack_array(buf, w_matrix)
    serialize.write_container(path, _IVEC_MAGIC, _IVEC_VERSION, buf.getvalue())


def load_ivectors(path) -> tuple[list[str], np.ndarray]:
    fh = serialize.read_container(path, _IVEC_MAGIC, _IVEC_VERSION)
    count = serialize.unpack_u32(fh)
    ids = [serialize.unpack_str(fh) for _ in range(count)]
    w = serialize.unpack_array(fh)
    if w.shape[0] != count:
        raise serialize.ContainerError(f"{path}: iVector count mismatch")
    return ids, w
