"""Diagonal-covariance GMM universal background model.

Training is seeded k-means++ followed by EM with variance flooring; the
model then serves as the reference for per-recording Baum-Welch statistics
(soft counts and mean-centered first-order sums) feeding the total
variability extractor.

One E-step (`_e_step`) makes every posterior. It walks the frames in fixed
blocks of `_FRAME_BLOCK`, and the EM, the statistics and `log_likelihood`
each consume its blocks, so no (frames, components) matrix is kept whole.
The block size is a constant, not a setting: sums are added in the same
order on every run, so reruns stay byte-identical.

`train_ubm` takes the training frames as one pooled (N, F) matrix and makes
no other matrix of that size, nor an (N, C) one: beyond the pool it holds
O(_FRAME_BLOCK (F + C)) values and a few N-long vectors. It walks the pool
in the same blocks for the finiteness check, the squared norms of
k-means++, each Lloyd pass's distances (one GEMM per block, with their
argmin and minimum), and the per-cluster sums behind the Lloyd means, the
variance floor and the initial variances (`_add_rows`). Those sums add
each frame in frame order, the order numpy reduces a column in, so they
keep their bits. A GEMM row can round differently in a block than in the whole pool,
because OpenBLAS picks its kernel by where its row split puts the row: 8 of
30 random shapes (N up to 4 blocks, C=2-256, F=76, OpenBLAS 0.3.31 on a
2-core x86-64 VM, 1 or 2 threads) had some rows differ in the last bits.
That can only change a Lloyd decision that is a tie within rounding, which
takes duplicate centres, i.e. fewer distinct frames than components. The
k-means++ seeding distances stay one GEMV `x @ x[i]` over the whole pool:
blocked, they differed in 16 of the same 30 shapes at 2 threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .errors import SceneidError

# Components, features, weights, means, variances, variance floor, seed.
_GMM_FORMAT = serialize.Format(
    b"SCNG", 1, ("u32", "u32", "array", "array", "array", "array", "u64")
)

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
        if not all(np.all(np.isfinite(a)) for a in (self.weights, self.means, self.variances,
                                                    self.var_floor)):
            raise GmmError("GMM parameters contain NaN or infinity")
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


def _blocks(n: int) -> list:
    """Slices of `_FRAME_BLOCK` consecutive rows covering n rows, the last
    one ragged."""
    return [slice(start, min(start + _FRAME_BLOCK, n)) for start in range(0, n, _FRAME_BLOCK)]


def _frames(feats, what: str) -> np.ndarray:
    """`feats` as a (T, F) float64 frame matrix, which must be 2-D, non-empty
    and finite."""
    x = np.asarray(feats, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise GmmError(f"{what} must be a non-empty 2-D frame matrix")
    if not all(np.isfinite(x[rows]).all() for rows in _blocks(x.shape[0])):
        raise GmmError(f"{what} contain NaN or infinity")
    return x


def _add_rows(sums: np.ndarray, groups: np.ndarray, rows: np.ndarray) -> None:
    """sums[groups[t]] += rows[t] for every row t, in row order.

    One flat `np.add.at` over the (C, F) sums: each sum gets its rows in the
    order a 2-D `np.add.at(sums, groups, rows)` adds them, and that numpy's
    axis-0 reduction adds the rows of a matrix of two or more columns.
    """
    f = sums.shape[1]
    np.add.at(sums.reshape(-1), (groups[:, None] * f + np.arange(f)).ravel(), rows.ravel())


def _group_variances(x: np.ndarray, groups: np.ndarray, k: int) -> np.ndarray:
    """(k, F): row c is `x[groups == c].var(axis=0)`, bit for bit, and 0 for
    an empty group.

    The sums and then the squared deviations from each group's mean are
    added in frame order, block by block (`_add_rows`). Numpy sums a single
    column pairwise rather than row by row, so a one-feature pool is reduced
    group by group instead; each group is then at most N values.
    """
    counts = np.bincount(groups, minlength=k)
    if x.shape[1] == 1:
        return np.array([x[groups == c].var(axis=0) if counts[c] else [0.0] for c in range(k)])
    sums = np.zeros((k, x.shape[1]))
    for rows in _blocks(x.shape[0]):
        _add_rows(sums, groups[rows], x[rows])
    divisor = np.maximum(counts, 1)[:, None]
    means = sums / divisor
    squares = np.zeros_like(sums)
    for rows in _blocks(x.shape[0]):
        dev = x[rows] - means[groups[rows]]
        dev *= dev
        _add_rows(squares, groups[rows], dev)
    return squares / divisor


def _e_step(model: GmmModel, x: np.ndarray):
    """Yield (x_block, gamma, per_frame_ll) over blocks of _FRAME_BLOCK frames.

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
    for rows in _blocks(x.shape[0]):
        xb = x[rows]
        gamma = np.hstack([xb * xb, xb, np.ones((xb.shape[0], 1))]) @ coef
        peak = gamma.max(axis=1, keepdims=True)
        gamma -= peak
        np.exp(gamma, out=gamma)
        total = gamma.sum(axis=1, keepdims=True)
        gamma /= total
        gamma[gamma < _TINY] = 0.0
        yield xb, gamma, np.log(total[:, 0]) + peak[:, 0]


def log_likelihood(model: GmmModel, frame) -> float:
    """Stable log sum_c w_c N(x; mu_c, sigma_c^2) of a single frame."""
    x = np.asarray(frame, dtype=np.float64).reshape(1, -1)
    if x.shape[1] != model.n_features:
        raise GmmError(f"frame has {x.shape[1]} dims, model expects {model.n_features}")
    ((_, _, per_frame),) = _e_step(model, x)
    return float(per_frame[0])


def _seed_distances(x: np.ndarray, x_sq: np.ndarray, i: int) -> np.ndarray:
    """Squared distances of every frame to frame i, |x|^2 - 2 x.x_i + |x_i|^2.

    Where that is within rounding error of zero (a frame equal or next to
    frame i) the distance is taken from the difference instead, so a
    duplicate of frame i is at exactly zero.
    """
    d2 = x_sq - 2.0 * (x @ x[i]) + x_sq[i]
    near = np.flatnonzero(d2 < _CANCELLATION * (x_sq + x_sq[i]))
    for start in range(0, near.size, _FRAME_BLOCK):
        rows = near[start:start + _FRAME_BLOCK]
        d2[rows] = ((x[rows] - x[i]) ** 2).sum(axis=1)
    return d2


def _kmeans_plus_plus(x: np.ndarray, k: int, rng: np.random.Generator, n_iters: int):
    """Seeded k-means++ initialization plus a few Lloyd refinement passes."""
    n = x.shape[0]
    x_sq = np.empty(n)
    for rows in _blocks(n):
        x_sq[rows] = (x[rows] ** 2).sum(axis=1)
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
    nearest = np.empty(n)  # each frame's squared distance to its centre
    for _ in range(n_iters):
        c_sq = (centers**2).sum(axis=1)
        for rows in _blocks(n):
            dists = x_sq[rows, None] - 2.0 * (x[rows] @ centers.T) + c_sq
            assign[rows] = dists.argmin(axis=1)
            nearest[rows] = dists.min(axis=1)
        counts = np.bincount(assign, minlength=k)
        empty = counts == 0
        if empty.any():
            # Empty clusters are re-seeded in cluster order on the farthest
            # frame, which ends in the last of them; a cluster after the first
            # empty one is averaged without that frame.
            far = nearest.argmax()
            owner = assign[far]
            if empty.argmax() < owner:
                counts[owner] -= 1
                empty[owner] = counts[owner] == 0
                assign[far] = np.flatnonzero(empty)[-1]
        sums = np.zeros_like(centers)
        for rows in _blocks(n):  # in frame order, the order a per-cluster mean adds in
            _add_rows(sums, assign[rows], x[rows])
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

    pooled = _group_variances(x, np.zeros(n_frames, dtype=np.int64), 1)[0]
    floor = _VAR_FLOOR_SCALE * np.maximum(pooled, 1e-30)
    rng = np.random.default_rng(seed)
    centers, assign = _kmeans_plus_plus(x, n_components, rng, kmeans_iters)

    counts = np.bincount(assign, minlength=n_components)
    weights = np.maximum(counts, 1) / n_frames
    weights /= weights.sum()
    variances = _group_variances(x, assign, n_components)
    variances[counts <= 1] = floor / _VAR_FLOOR_SCALE
    variances = np.maximum(variances, floor)

    model = GmmModel(weights, centers, variances, floor, seed=seed)
    history = []
    for _ in range(n_iters):
        nk = np.zeros(n_components)
        sum_x = np.zeros_like(model.means)
        sum_xx = np.zeros_like(model.means)
        ll_sum = 0.0
        for xb, gamma, per_frame in _e_step(model, x):
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
    for xb, gamma, _ in _e_step(model, x):
        n += gamma.sum(axis=0)
        first += gamma.T @ xb
    return SufficientStats(n, first - n[:, None] * model.means)


def gmm_to_bytes(model: GmmModel) -> bytes:
    return _GMM_FORMAT.encode(
        model.n_components, model.n_features, model.weights, model.means,
        model.variances, model.var_floor, model.seed & 0xFFFFFFFFFFFFFFFF,
    )


def gmm_checksum(model: GmmModel) -> str:
    """Content hash of the container payload, used to bind downstream models
    to this UBM."""
    return serialize.sha256_hex(memoryview(gmm_to_bytes(model))[serialize.HEADER_BYTES:])


def gmm_from_bytes(raw) -> GmmModel:
    n_components, n_features, weights, means, variances, floor, seed = _GMM_FORMAT.decode(raw)
    if means.shape != (n_components, n_features):
        raise SceneidError("inconsistent GMM dimensions")
    return GmmModel(weights, means, variances, floor, seed=seed)
