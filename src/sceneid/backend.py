"""Gaussian backend over iVectors with regularized class covariances.

Each class gets a mean and a full covariance; the shared covariance is the
unweighted average of the class covariances and the operating covariance is
the blend alpha * shared + (1 - alpha) * class. Scoring is the Gaussian
log-likelihood up to a class-independent constant; the shared mode drops the
log-determinant term (it cancels) and uses the shared covariance for all
classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from io import BytesIO

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from . import serialize
from .errors import SceneidError

_BACKEND_MAGIC = b"SCNB"
_BACKEND_VERSION = 1

_RIDGE_ATTEMPTS = 12

MODE_CLASS = "class_dependent"
MODE_SHARED = "shared"


class BackendError(SceneidError):
    pass


def _chol_with_ridge(matrix: np.ndarray) -> tuple[tuple, float]:
    """Cholesky factor, adding an escalating ridge only if factorization fails."""
    eps = 0.0
    base = 1e-8 * float(np.trace(matrix)) / matrix.shape[0]
    if base <= 0.0:
        base = 1e-12
    for attempt in range(_RIDGE_ATTEMPTS + 1):
        try:
            work = matrix if eps == 0.0 else matrix + eps * np.eye(matrix.shape[0])
            return cho_factor(work, lower=True), eps
        except LinAlgError:
            eps = base * (10.0**attempt)
    raise BackendError("covariance not positive definite even after maximum ridge")


@dataclass
class BackendModel:
    class_labels: list
    mu: np.ndarray  # (L, R)
    sigma_c: np.ndarray  # (L, R, R) per-class covariances
    sigma_s: np.ndarray  # (R, R) unweighted average of sigma_c
    alpha: float
    sigma_tilde: np.ndarray  # (L, R, R) blended covariances
    ridge: np.ndarray  # (L,) ridge applied to each sigma_tilde
    shared_ridge: float
    class_counts: np.ndarray  # (L,) training sample counts
    _chol_tilde: list = field(default_factory=list, compare=False, repr=False)
    _logdet_tilde: np.ndarray = field(default=None, compare=False, repr=False)
    _chol_shared: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.rebuild_cache()

    @property
    def rank(self) -> int:
        return self.mu.shape[1]

    def rebuild_cache(self) -> None:
        """Refactorize the blended and shared covariances (after load/train)."""
        self._chol_tilde = []
        logdets = []
        for c in range(len(self.class_labels)):
            mat = self.sigma_tilde[c]
            if self.ridge[c] > 0.0:
                mat = mat + self.ridge[c] * np.eye(self.rank)
            chol = cho_factor(mat, lower=True)
            self._chol_tilde.append(chol)
            logdets.append(2.0 * float(np.log(np.diag(chol[0])).sum()))
        self._logdet_tilde = np.array(logdets)
        mat = self.sigma_s
        if self.shared_ridge > 0.0:
            mat = mat + self.shared_ridge * np.eye(self.rank)
        self._chol_shared = cho_factor(mat, lower=True)


def train_backend(ivectors: np.ndarray, labels, alpha: float) -> BackendModel:
    """Fit per-class Gaussians with ML (N-denominator) covariances.

    Classes are ordered lexicographically; ridge repair is applied per
    covariance only when its factorization fails, and the applied epsilons
    are kept in the model for audit.
    """
    x = np.asarray(ivectors, dtype=np.float64)
    labels = list(labels)
    if x.ndim != 2 or x.shape[0] != len(labels):
        raise BackendError("need one label per iVector row")
    if not 0.0 <= alpha <= 1.0:
        raise BackendError(f"alpha must lie in [0, 1], got {alpha}")
    class_labels = sorted(set(labels))
    if len(class_labels) < 2:
        raise BackendError("need at least two classes")

    rank = x.shape[1]
    mu = np.empty((len(class_labels), rank))
    sigma_c = np.empty((len(class_labels), rank, rank))
    counts = np.empty(len(class_labels))
    label_arr = np.array(labels)
    for idx, lab in enumerate(class_labels):
        rows = x[label_arr == lab]
        if rows.shape[0] < 2:
            raise BackendError(f"class {lab!r} has {rows.shape[0]} samples; need at least 2")
        mu[idx] = rows.mean(axis=0)
        centered = rows - mu[idx]
        sigma_c[idx] = centered.T @ centered / rows.shape[0]
        counts[idx] = rows.shape[0]

    sigma_s = sigma_c.mean(axis=0)
    sigma_tilde = alpha * sigma_s + (1.0 - alpha) * sigma_c

    ridge = np.zeros(len(class_labels))
    for idx in range(len(class_labels)):
        _, ridge[idx] = _chol_with_ridge(sigma_tilde[idx])
    _, shared_ridge = _chol_with_ridge(sigma_s)

    return BackendModel(
        class_labels=class_labels,
        mu=mu,
        sigma_c=sigma_c,
        sigma_s=sigma_s,
        alpha=float(alpha),
        sigma_tilde=sigma_tilde,
        ridge=ridge,
        shared_ridge=float(shared_ridge),
        class_counts=counts,
    )


def score(model: BackendModel, w, mode: str = MODE_CLASS) -> np.ndarray:
    """Per-class scores for one iVector.

    class_dependent: -1/2 log|sigma_tilde_c| - 1/2 (w-mu)' sigma_tilde_c^-1 (w-mu)
    shared:          -1/2 (w-mu)' sigma_s^-1 (w-mu)
    """
    return score_many(model, np.asarray(w, dtype=np.float64).reshape(1, -1), mode)[0]


def score_many(model: BackendModel, w_matrix: np.ndarray, mode: str = MODE_CLASS) -> np.ndarray:
    x = np.asarray(w_matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.rank:
        raise BackendError(f"iVectors must be (n, {model.rank})")
    n_classes = len(model.class_labels)
    out = np.empty((x.shape[0], n_classes))
    if mode == MODE_CLASS:
        for c in range(n_classes):
            d = x - model.mu[c]
            quad = (d * cho_solve(model._chol_tilde[c], d.T).T).sum(axis=1)
            out[:, c] = -0.5 * model._logdet_tilde[c] - 0.5 * quad
    elif mode == MODE_SHARED:
        for c in range(n_classes):
            d = x - model.mu[c]
            quad = (d * cho_solve(model._chol_shared, d.T).T).sum(axis=1)
            out[:, c] = -0.5 * quad
    else:
        raise BackendError(f"unknown scoring mode {mode!r}")
    return out


def classify_many(model: BackendModel, w_matrix: np.ndarray, mode: str = MODE_CLASS) -> list:
    """Label of the maximal score per row; ties go to the earlier class label."""
    scores = score_many(model, w_matrix, mode)
    return [model.class_labels[i] for i in scores.argmax(axis=1)]


def save_backend(model: BackendModel, path) -> None:
    buf = BytesIO()
    serialize.pack_u32(buf, len(model.class_labels))
    for lab in model.class_labels:
        serialize.pack_str(buf, lab)
    serialize.pack_f64(buf, model.alpha)
    serialize.pack_f64(buf, model.shared_ridge)
    serialize.pack_array(buf, model.mu)
    serialize.pack_array(buf, model.sigma_c)
    serialize.pack_array(buf, model.sigma_s)
    serialize.pack_array(buf, model.sigma_tilde)
    serialize.pack_array(buf, model.ridge)
    serialize.pack_array(buf, model.class_counts)
    serialize.write_container(path, _BACKEND_MAGIC, _BACKEND_VERSION, buf.getvalue())


def load_backend(path, raw: bytes | None = None) -> BackendModel:
    fh = serialize.read_container(path, _BACKEND_MAGIC, _BACKEND_VERSION, raw)
    n_classes = serialize.unpack_u32(fh)
    labels = [serialize.unpack_str(fh) for _ in range(n_classes)]
    alpha = serialize.unpack_f64(fh)
    shared_ridge = serialize.unpack_f64(fh)
    mu = serialize.unpack_array(fh)
    sigma_c = serialize.unpack_array(fh)
    sigma_s = serialize.unpack_array(fh)
    sigma_tilde = serialize.unpack_array(fh)
    ridge = serialize.unpack_array(fh)
    counts = serialize.unpack_array(fh)
    return BackendModel(
        class_labels=labels,
        mu=mu,
        sigma_c=sigma_c,
        sigma_s=sigma_s,
        alpha=alpha,
        sigma_tilde=sigma_tilde,
        ridge=ridge,
        shared_ridge=shared_ridge,
        class_counts=counts,
    )
