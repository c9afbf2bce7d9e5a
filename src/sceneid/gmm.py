"""Diagonal-covariance GMM universal background model.

Training is seeded k-means++ followed by EM with variance flooring; the
model then serves as the reference for per-recording Baum-Welch statistics
(soft counts and mean-centered first-order sums) feeding the total
variability extractor.

One E-step (`_e_step`) makes every posterior. It walks the frames in fixed
blocks of `_FRAME_BLOCK`, and the EM, the statistics, `responsibilities` and
`log_likelihood` each consume its blocks, so no (frames, components) matrix
is kept whole unless a caller asks for one. The block size is a constant,
not a setting: sums are added in the same order on every run, so reruns stay
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .errors import SceneidError
from .features import FeatureMatrix

_GMM_MAGIC = b"SCNG"
_GMM_VERSION = 1

_LOG_2PI = float(np.log(2.0 * np.pi))

_TINY = np.finfo(np.float64).tiny  # smallest normal double

# Frames per E-step block. A constant, not a setting: the statistics are
# summed block by block, so the block size fixes their rounding.
_FRAME_BLOCK = 4096

# A seeding distance below this fraction of |x|^2 + |c|^2 is rounding error
# of the expanded form (bounded by about 2F ulps, F <= 1024 features).
_CANCELLATION = 1e-12

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


def _frames(feats, what: str) -> np.ndarray:
    """The (T, F) frame matrix of `feats`, which must be 2-D, non-empty and finite."""
    x = feats.rows if isinstance(feats, FeatureMatrix) else np.asarray(feats, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise GmmError(f"{what} must be a non-empty 2-D frame matrix")
    if not np.all(np.isfinite(x)):
        raise GmmError(f"{what} contain NaN or infinity")
    return x


def _e_step(model: GmmModel, x: np.ndarray):
    """Yield (rows, x_block, gamma, per_frame_ll) over blocks of _FRAME_BLOCK frames.

    gamma is the block's posterior gamma_t(c), shape (block, C), rows summing
    to one; per_frame_ll is log sum_c w_c N(x_t; mu_c, sigma_c^2), shape
    (block,). The log joint x^2 . a_c + x . b_c + k_c is one GEMM of
    [x^2, x, 1] with a, b and k built once per call; the block's rows are
    then normalized in place by max-subtract, exp, row sum and division.

    Posteriors below the smallest normal double are set to exact zero: they
    add nothing to a sum of normal-sized counts, and every BLAS product over
    the statistics built from them would take the slow subnormal path.
    """
    inv_var = 1.0 / model.variances
    with np.errstate(divide="ignore"):  # zero weights are legal
        log_w = np.log(model.weights)
    const = log_w - 0.5 * (
        model.n_features * _LOG_2PI
        + np.log(model.variances).sum(axis=1)
        + (model.means**2 * inv_var).sum(axis=1)
    )
    coef = np.vstack([-0.5 * inv_var.T, (model.means * inv_var).T, const])  # (2F + 1, C)
    for start in range(0, x.shape[0], _FRAME_BLOCK):
        rows = slice(start, start + _FRAME_BLOCK)
        xb = x[rows]
        gamma = np.hstack([xb * xb, xb, np.ones((xb.shape[0], 1))]) @ coef
        peak = gamma.max(axis=1, keepdims=True)
        gamma -= peak
        np.exp(gamma, out=gamma)
        total = gamma.sum(axis=1, keepdims=True)
        gamma /= total
        gamma[gamma < _TINY] = 0.0
        yield rows, xb, gamma, np.log(total[:, 0]) + peak[:, 0]


def log_likelihood(model: GmmModel, frame) -> float:
    """Stable log sum_c w_c N(x; mu_c, sigma_c^2) of a single frame."""
    x = np.asarray(frame, dtype=np.float64).reshape(1, -1)
    if x.shape[1] != model.n_features:
        raise GmmError(f"frame has {x.shape[1]} dims, model expects {model.n_features}")
    ((_, _, _, per_frame),) = _e_step(model, x)
    return float(per_frame[0])


def responsibilities(model: GmmModel, x: np.ndarray) -> np.ndarray:
    """Posterior gamma_t(c), rows summing to one."""
    x = np.asarray(x, dtype=np.float64)
    gamma = np.empty((x.shape[0], model.n_components))
    for rows, _, block, _ in _e_step(model, x):
        gamma[rows] = block
    return gamma


def _seed_distances(x: np.ndarray, x_sq: np.ndarray, i: int) -> np.ndarray:
    """Squared distances of every frame to frame i, |x|^2 - 2 x.x_i + |x_i|^2.

    Where that is within rounding error of zero (a frame equal or next to
    frame i) the distance is taken from the difference instead, so a
    duplicate of frame i is at exactly zero.
    """
    d2 = x_sq - 2.0 * (x @ x[i]) + x_sq[i]
    near = d2 < _CANCELLATION * (x_sq + x_sq[i])
    d2[near] = ((x[near] - x[i]) ** 2).sum(axis=1)
    return d2


def _kmeans_plus_plus(x: np.ndarray, k: int, rng: np.random.Generator, n_iters: int):
    """Seeded k-means++ initialization plus a few Lloyd refinement passes."""
    n = x.shape[0]
    x_sq = (x**2).sum(axis=1)
    centers = np.empty((k, x.shape[1]))
    pick = rng.integers(n)
    d2 = _seed_distances(x, x_sq, pick)
    centers[0] = x[pick]
    for c in range(1, k):
        total = d2.sum()
        pick = rng.integers(n) if total <= 0 else rng.choice(n, p=d2 / total)
        centers[c] = x[pick]
        d2 = np.minimum(d2, _seed_distances(x, x_sq, pick))

    assign = np.zeros(n, dtype=np.int64)
    for _ in range(n_iters):
        dists = x_sq[:, None] - 2.0 * (x @ centers.T) + (centers**2).sum(axis=1)
        assign = dists.argmin(axis=1)
        counts = np.bincount(assign, minlength=k)
        empty = counts == 0
        if empty.any():
            # Empty clusters are re-seeded in cluster order on the farthest
            # frame, which ends in the last of them; a cluster after the first
            # empty one is averaged without that frame.
            far = dists.min(axis=1).argmax()
            owner = assign[far]
            if empty.argmax() < owner:
                counts[owner] -= 1
                empty[owner] = counts[owner] == 0
                assign[far] = np.flatnonzero(empty)[-1]
        sums = np.zeros_like(centers)
        np.add.at(sums, assign, x)  # in frame order, the order a per-cluster mean adds in
        full = ~empty
        centers[full] = sums[full] / counts[full, None]
        if not full.all():
            centers[empty] = x[far]
            assign[far] = np.flatnonzero(empty)[-1]
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
    x = _frames(features, "training features")
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
        nk = np.zeros(n_components)
        sum_x = np.zeros_like(model.means)
        sum_xx = np.zeros_like(model.means)
        ll_sum = 0.0
        for _, xb, gamma, per_frame in _e_step(model, x):
            nk += gamma.sum(axis=0)
            sum_x += gamma.T @ xb
            sum_xx += gamma.T @ (xb * xb)
            ll_sum += float(per_frame.sum())
        history.append(ll_sum / n_frames)

        safe_nk = np.maximum(nk, 1e-12)
        means = sum_x / safe_nk[:, None]
        second = sum_xx / safe_nk[:, None]
        keep = nk < 1e-8  # starved components hold their previous parameters
        variances = np.maximum(second - means**2, floor)
        means[keep] = model.means[keep]
        variances[keep] = model.variances[keep]
        model = GmmModel(nk / n_frames, means, variances, floor, seed=seed)
    model.ll_history = history
    return model


def accumulate_stats(model: GmmModel, feats) -> SufficientStats:
    """Baum-Welch statistics: n_c = sum_t gamma, f_c = sum_t gamma (x_t - mu_c)."""
    x = _frames(feats, "statistics features")
    if x.shape[1] != model.n_features:
        raise GmmError(f"frames have {x.shape[1]} dims, model expects {model.n_features}")
    n = np.zeros(model.n_components)
    first = np.zeros_like(model.means)
    for _, xb, gamma, _ in _e_step(model, x):
        n += gamma.sum(axis=0)
        first += gamma.T @ xb
    return SufficientStats(n, first - n[:, None] * model.means)


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


def gmm_from_bytes(raw) -> GmmModel:
    fh = serialize.open_container(raw, _GMM_MAGIC, _GMM_VERSION)
    n_components = serialize.unpack_u32(fh)
    n_features = serialize.unpack_u32(fh)
    weights = serialize.unpack_array(fh)
    means = serialize.unpack_array(fh)
    variances = serialize.unpack_array(fh)
    floor = serialize.unpack_array(fh)
    seed = serialize.unpack_u64(fh)
    serialize.close_container(fh)
    if means.shape != (n_components, n_features):
        raise serialize.ContainerError("inconsistent GMM dimensions")
    return GmmModel(weights, means, variances, floor, seed=seed)
