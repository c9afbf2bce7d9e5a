"""Gaussian backend over iVectors with regularized class covariances.

Each class gets a mean and a full covariance; the shared covariance is the
unweighted average of the class covariances and the operating covariance is
the blend alpha * shared + (1 - alpha) * class. Scoring is the Gaussian
log-likelihood up to a class-independent constant. At alpha = 1 every class
operates on the shared covariance, so the decisions are those of the
shared-covariance (LDA-style) backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from . import serialize
from .errors import SceneidError

# Class labels, alpha, class means, class covariances, class counts. Version
# 1 also stored the derived covariances and ridges.
_BACKEND_FORMAT = serialize.Format(b"SCNB", 2, ("strs", "f64", "array", "array", "array"))

_RIDGE_ATTEMPTS = 12


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
    """What training fits: per-class means and covariances, and alpha.

    The shared and blended covariances, the blends' ridges and Cholesky
    factors are derived from these once, in __post_init__.
    """

    class_labels: list
    mu: np.ndarray  # (L, R)
    sigma_c: np.ndarray  # (L, R, R) per-class covariances
    alpha: float
    class_counts: np.ndarray  # (L,) training sample counts
    sigma_s: np.ndarray = field(init=False, repr=False)  # (R, R) mean of sigma_c
    sigma_tilde: np.ndarray = field(init=False, repr=False)  # (L, R, R) blends
    ridge: np.ndarray = field(init=False, repr=False)  # (L,) ridge of each blend
    _chol_tilde: list = field(init=False, compare=False, repr=False)
    _logdet_tilde: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        """Check the fitted parameters, then blend the covariances and factor
        each once, adding a ridge only where a factorization fails."""
        if not 0.0 <= self.alpha <= 1.0:
            raise BackendError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not all(np.all(np.isfinite(a)) for a in (self.mu, self.sigma_c, self.class_counts)):
            raise BackendError("backend parameters contain NaN or infinity")
        self.sigma_s = self.sigma_c.mean(axis=0)
        self.sigma_tilde = self.alpha * self.sigma_s + (1.0 - self.alpha) * self.sigma_c
        factored = [_chol_with_ridge(mat) for mat in self.sigma_tilde]
        self._chol_tilde = [chol for chol, _ in factored]
        self.ridge = np.array([eps for _, eps in factored])
        self._logdet_tilde = np.array(
            [2.0 * float(np.log(np.diag(chol[0])).sum()) for chol in self._chol_tilde]
        )

    @property
    def rank(self) -> int:
        return self.mu.shape[1]


def train_backend(ivectors: np.ndarray, labels, alpha: float) -> BackendModel:
    """Fit per-class Gaussians with ML (N-denominator) covariances.

    Classes are ordered lexicographically; the model blends and factors the
    covariances (BackendModel.__post_init__).
    """
    x = np.asarray(ivectors, dtype=np.float64)
    labels = list(labels)
    if x.ndim != 2 or x.shape[0] != len(labels):
        raise BackendError("need one label per iVector row")
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

    return BackendModel(
        class_labels=class_labels,
        mu=mu,
        sigma_c=sigma_c,
        alpha=float(alpha),
        class_counts=counts,
    )


def score(model: BackendModel, w) -> np.ndarray:
    """Per-class scores for one iVector:
    -1/2 log|sigma_tilde_c| - 1/2 (w-mu_c)' sigma_tilde_c^-1 (w-mu_c)."""
    return score_many(model, np.asarray(w, dtype=np.float64).reshape(1, -1))[0]


@np.errstate(over="ignore", invalid="ignore")  # an overflow fails the check below
def score_many(model: BackendModel, w_matrix: np.ndarray) -> np.ndarray:
    """(n, L) scores of iVector rows; a score that is not finite, as from a
    class mean far out of range, raises BackendError."""
    x = np.asarray(w_matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.rank:
        raise BackendError(f"iVectors must be (n, {model.rank})")
    out = np.empty((x.shape[0], len(model.class_labels)))
    for c, (chol, logdet) in enumerate(zip(model._chol_tilde, model._logdet_tilde)):
        d = x - model.mu[c]
        quad = (d * cho_solve(chol, d.T, check_finite=False).T).sum(axis=1)
        out[:, c] = -0.5 * logdet - 0.5 * quad
    if not np.all(np.isfinite(out)):
        raise BackendError("backend scores are not finite")
    return out


def classify_many(model: BackendModel, w_matrix: np.ndarray) -> list:
    """Label of each iVector row (`best_labels` of its scores)."""
    return best_labels(model, score_many(model, w_matrix))


def best_labels(model: BackendModel, scores: np.ndarray) -> list:
    """Label of the maximal score per row of (n, L) `score_many` output;
    ties go to the earlier class label."""
    return [model.class_labels[i] for i in scores.argmax(axis=1)]


def backend_to_bytes(model: BackendModel) -> bytes:
    return _BACKEND_FORMAT.encode(
        model.class_labels, model.alpha, model.mu, model.sigma_c, model.class_counts
    )


def backend_from_bytes(raw) -> BackendModel:
    labels, alpha, mu, sigma_c, counts = _BACKEND_FORMAT.decode(raw)
    n_classes = len(labels)
    rank = mu.shape[-1] if mu.ndim == 2 else -1
    if (mu.shape, sigma_c.shape, counts.shape) != (
        (n_classes, rank), (n_classes, rank, rank), (n_classes,)
    ):
        raise SceneidError("inconsistent backend dimensions")
    return BackendModel(labels, mu, sigma_c, alpha, counts)
