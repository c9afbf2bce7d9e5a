"""Diagonal-covariance GMM universal background model.

Training is seeded k-means++ followed by EM with variance flooring; the
model then serves as the reference for per-recording Baum-Welch statistics
(soft counts and mean-centered first-order sums) feeding the total
variability extractor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from . import serialize
from .errors import SceneidError
from .features import FeatureMatrix

_GMM_MAGIC = b"SCNG"
_GMM_VERSION = 1

_LOG_2PI = float(np.log(2.0 * np.pi))

_TINY = np.finfo(np.float64).tiny  # smallest normal double

# Variances never drop below this times the pooled per-dimension variance.
_VAR_FLOOR_SCALE = 1e-3


class GmmError(SceneidError):
    pass


@dataclass
class GmmModel:
    weights: np.ndarray  # (C,) simplex
    means: np.ndarray  # (C, F)
    variances: np.ndarray  # (C, F), >= var_floor
    var_floor: np.ndarray  # (F,)
    seed: int = 0
    ll_history: list = field(default_factory=list, compare=False)  # not serialized

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.variances = np.asarray(self.variances, dtype=np.float64)
        self.var_floor = np.asarray(self.var_floor, dtype=np.float64)
        if abs(self.weights.sum() - 1.0) > 1e-10:
            raise GmmError(f"weights sum to {self.weights.sum()!r}, not 1")
        if np.any(self.variances < self.var_floor - 1e-300):
            raise GmmError("variance below floor")

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def n_features(self) -> int:
        return self.means.shape[1]


@dataclass
class SufficientStats:
    """Zeroth/first-order Baum-Welch statistics of one recording."""

    n: np.ndarray  # (C,) soft counts
    f: np.ndarray  # (C, F) first-order sums centered on the UBM means

    def __add__(self, other: "SufficientStats") -> "SufficientStats":
        return SufficientStats(self.n + other.n, self.f + other.f)


def _component_log_densities(model: GmmModel, x: np.ndarray) -> np.ndarray:
    """log N(x_t; mu_c, diag sigma_c^2) for all frames and components, (T, C)."""
    inv_var = 1.0 / model.variances
    const = -0.5 * (
        model.n_features * _LOG_2PI + np.log(model.variances).sum(axis=1)
    )  # (C,)
    quad = (
        x**2 @ inv_var.T
        - 2.0 * (x @ (model.means * inv_var).T)
        + (model.means**2 * inv_var).sum(axis=1)
    )
    return const - 0.5 * quad


def _weighted_log_densities(model: GmmModel, x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):  # zero weights are legal
        log_w = np.log(model.weights)
    return _component_log_densities(model, x) + log_w


def log_likelihood(model: GmmModel, frame) -> float:
    """Stable log sum_c w_c N(x; mu_c, sigma_c^2) of a single frame."""
    x = np.asarray(frame, dtype=np.float64).reshape(1, -1)
    if x.shape[1] != model.n_features:
        raise GmmError(f"frame has {x.shape[1]} dims, model expects {model.n_features}")
    return float(logsumexp(_weighted_log_densities(model, x), axis=1)[0])


def _e_step(model: GmmModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior gamma_t(c), shape (T, C), and the per-frame log-likelihood, (T,).

    Posteriors below the smallest normal double are set to exact zero: they
    add nothing to a sum of normal-sized counts, and every BLAS product over
    the statistics built from them would take the slow subnormal path.
    """
    log_joint = _weighted_log_densities(model, x)
    per_frame = logsumexp(log_joint, axis=1)
    gamma = np.exp(log_joint - per_frame[:, None])
    gamma[gamma < _TINY] = 0.0
    return gamma, per_frame


def responsibilities(model: GmmModel, x: np.ndarray) -> np.ndarray:
    """Posterior gamma_t(c), rows summing to one."""
    return _e_step(model, np.asarray(x, dtype=np.float64))[0]


def _kmeans_plus_plus(x: np.ndarray, k: int, rng: np.random.Generator, n_iters: int):
    """Seeded k-means++ initialization plus a few Lloyd refinement passes."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[c] = x[rng.integers(n)]
        else:
            centers[c] = x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((x - centers[c]) ** 2).sum(axis=1))

    x_sq = (x**2).sum(axis=1)
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(n_iters):
        dists = x_sq[:, None] - 2.0 * (x @ centers.T) + (centers**2).sum(axis=1)
        assign = dists.argmin(axis=1)
        for c in range(k):
            mask = assign == c
            if mask.any():
                centers[c] = x[mask].mean(axis=0)
            else:  # re-seed empty clusters on the farthest point
                far = dists.min(axis=1).argmax()
                centers[c] = x[far]
                assign[far] = c
    return centers, assign


def train_ubm(
    features,
    n_components: int,
    n_iters: int = 25,
    seed: int = 0,
    kmeans_iters: int = 10,
) -> GmmModel:
    """Fit the diagonal GMM by EM; per-iteration mean log-likelihood is kept
    in model.ll_history. Variances never drop below _VAR_FLOOR_SCALE times
    the pooled per-dimension variance."""
    x = features.rows if isinstance(features, FeatureMatrix) else np.asarray(features, float)
    if x.ndim != 2:
        raise GmmError("training features must be a 2-D frame matrix")
    if not np.all(np.isfinite(x)):
        raise GmmError("training features contain NaN or infinity")
    n_frames = x.shape[0]
    if n_frames < n_components:
        raise GmmError(f"{n_frames} frames cannot support {n_components} components")

    floor = _VAR_FLOOR_SCALE * np.maximum(x.var(axis=0), 1e-30)
    rng = np.random.default_rng(seed)
    centers, assign = _kmeans_plus_plus(x, n_components, rng, kmeans_iters)

    weights = np.empty(n_components)
    variances = np.empty_like(centers)
    for c in range(n_components):
        mask = assign == c
        weights[c] = max(mask.sum(), 1) / n_frames
        variances[c] = x[mask].var(axis=0) if mask.sum() > 1 else floor / _VAR_FLOOR_SCALE
    weights /= weights.sum()
    variances = np.maximum(variances, floor)

    model = GmmModel(weights, centers, variances, floor, seed=seed)
    history = []
    for _ in range(n_iters):
        gamma, per_frame = _e_step(model, x)
        history.append(float(per_frame.mean()))

        nk = gamma.sum(axis=0)
        safe_nk = np.maximum(nk, 1e-12)
        means = gamma.T @ x / safe_nk[:, None]
        second = gamma.T @ (x**2) / safe_nk[:, None]
        keep = nk < 1e-8  # starved components hold their previous parameters
        variances = np.maximum(second - means**2, floor)
        means[keep] = model.means[keep]
        variances[keep] = model.variances[keep]
        model = GmmModel(nk / n_frames, means, variances, floor, seed=seed)
    model.ll_history = history
    return model


def accumulate_stats(model: GmmModel, feats) -> SufficientStats:
    """Baum-Welch statistics: n_c = sum_t gamma, f_c = sum_t gamma (x_t - mu_c)."""
    x = feats.rows if isinstance(feats, FeatureMatrix) else np.asarray(feats, float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise GmmError("cannot accumulate statistics over an empty feature matrix")
    if x.shape[1] != model.n_features:
        raise GmmError(f"frames have {x.shape[1]} dims, model expects {model.n_features}")
    gamma = responsibilities(model, x)
    n = gamma.sum(axis=0)
    f = gamma.T @ x - n[:, None] * model.means
    return SufficientStats(n, f)


def gmm_to_bytes(model: GmmModel) -> bytes:
    buf = serialize.new_container(_GMM_MAGIC, _GMM_VERSION)
    serialize.pack_u32(buf, model.n_components)
    serialize.pack_u32(buf, model.n_features)
    serialize.pack_array(buf, model.weights)
    serialize.pack_array(buf, model.means)
    serialize.pack_array(buf, model.variances)
    serialize.pack_array(buf, model.var_floor)
    serialize.pack_u64(buf, model.seed & 0xFFFFFFFFFFFFFFFF)
    return buf.getvalue()


def gmm_checksum(model: GmmModel) -> str:
    """Content hash of the container payload, used to bind downstream models
    to this UBM."""
    return serialize.sha256_hex(memoryview(gmm_to_bytes(model))[serialize.HEADER_BYTES:])


def gmm_from_bytes(raw: bytes) -> GmmModel:
    fh = serialize.open_container(raw, _GMM_MAGIC, _GMM_VERSION)
    n_components = serialize.unpack_u32(fh)
    n_features = serialize.unpack_u32(fh)
    weights = serialize.unpack_array(fh)
    means = serialize.unpack_array(fh)
    variances = serialize.unpack_array(fh)
    floor = serialize.unpack_array(fh)
    seed = serialize.unpack_u64(fh)
    if means.shape != (n_components, n_features):
        raise serialize.ContainerError("inconsistent GMM dimensions")
    return GmmModel(weights, means, variances, floor, seed=seed)
