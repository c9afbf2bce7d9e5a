import struct
from dataclasses import dataclass

import numpy as np
import pytest

from sceneid.audio import AudioBuffer
from sceneid.gmm import GmmModel
from sceneid.noisefloor import NoiseFloorError, SppParams


def make_wav_bytes(payload: bytes, format_tag=1, channels=1, rate=16000, bits=16) -> bytes:
    """Hand-rolled RIFF writer so tests control every header field."""
    block = channels * max(bits // 8, 1)
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        format_tag,
        channels,
        rate,
        rate * block,
        block,
        bits,
        b"data",
        len(payload),
    )
    return header + payload


def pcm16_wav_bytes(values, channels=1, rate=16000) -> bytes:
    payload = np.asarray(values, dtype="<i2").tobytes()
    return make_wav_bytes(payload, channels=channels, rate=rate, bits=16)


def tone(freq_hz, duration_s, rate, amplitude=1.0, phase=0.0) -> AudioBuffer:
    t = np.arange(int(round(duration_s * rate))) / rate
    return AudioBuffer(amplitude * np.sin(2 * np.pi * freq_hz * t + phase), rate)


def eq2_labels(model, probes) -> list:
    """Labels of the shared-covariance backend (Eq. 2): per probe, the class
    maximizing -1/2 (w - mu_c)' sigma_s^-1 (w - mu_c), ties to the earlier
    label. A dense solve, independent of the backend's Cholesky factors."""
    probes = np.asarray(probes, dtype=np.float64)
    scores = np.empty((probes.shape[0], len(model.class_labels)))
    for c, mu in enumerate(model.mu):
        d = probes - mu
        scores[:, c] = -0.5 * (d * np.linalg.solve(model.sigma_s, d.T).T).sum(axis=1)
    return [model.class_labels[i] for i in scores.argmax(axis=1)]


# One-frame reference of the noise-floor tracker, step by step as the cited
# method states it. `noisefloor.track_noise_floor` runs the same recursion
# batched and in place, and must equal `update_loop` bit for bit.

# Raw smoothed-probability level above which the clamp engages.
_STUCK_THRESHOLD = 0.99


@dataclass(frozen=True)
class NoiseFloorState:
    noise_psd: np.ndarray  # previous floor estimate, >= psd_floor
    smoothed_spp: np.ndarray  # stuck-detector memory, in [0, 1]


def init_state(first_frames, params: SppParams = SppParams()) -> NoiseFloorState:
    """Seed the floor with the per-bin mean of the first init_frames periodograms."""
    rows = np.atleast_2d(np.asarray(first_frames, dtype=np.float64))
    if rows.size == 0:
        raise NoiseFloorError("cannot initialize noise floor from an empty spectrogram")
    n_init = params.init_frames
    if rows.shape[0] < n_init:
        raise NoiseFloorError(f"need {n_init} initialization frames, got {rows.shape[0]}")
    psd = np.maximum(rows[:n_init].mean(axis=0), params.psd_floor)
    return NoiseFloorState(psd, np.full(psd.shape, 0.5))


def speech_presence_prob(periodogram, noise_psd, params: SppParams) -> np.ndarray:
    """Posterior P(speech active | observation) per bin.

    P = 1 / (1 + ((1-q)/q) (1+xi) exp(-(|X|^2/sigma^2) xi/(1+xi)))
    with xi the fixed prior SNR and q the speech prior.
    """
    per = np.asarray(periodogram, dtype=np.float64)
    psd = np.asarray(noise_psd, dtype=np.float64)
    if psd.size and psd.min() <= 0.0:
        raise NoiseFloorError("noise PSD must be strictly positive")
    xi = params.xi_h1
    q = params.prior_h1
    glr_inv = (1.0 - q) / q * (1.0 + xi) * np.exp(-(per / psd) * (xi / (1.0 + xi)))
    return 1.0 / (1.0 + glr_inv)


def noise_periodogram_estimate(periodogram, prev_psd, spp) -> np.ndarray:
    """Posterior noise periodogram: (1-P)|X|^2 + P * previous floor."""
    per = np.asarray(periodogram, dtype=np.float64)
    prev = np.asarray(prev_psd, dtype=np.float64)
    p = np.asarray(spp, dtype=np.float64)
    return (1.0 - p) * per + p * prev


def update(
    state: NoiseFloorState,
    periodogram,
    params: SppParams = SppParams(),
    spp=None,
) -> tuple[NoiseFloorState, np.ndarray]:
    """Advance the tracker by one frame; returns (new state, new floor).

    `spp` overrides the computed speech posterior (used verbatim, no clamp);
    forcing 0 turns the tracker into plain exponential smoothing of the
    periodogram.
    """
    per = np.asarray(periodogram, dtype=np.float64)
    if per.shape != state.noise_psd.shape:
        raise NoiseFloorError(
            f"periodogram has {per.shape} bins, state tracks {state.noise_psd.shape}"
        )
    if spp is None:
        p = speech_presence_prob(per, state.noise_psd, params)
        smoothed = params.spp_smooth * state.smoothed_spp + (1.0 - params.spp_smooth) * p
        p = np.where(smoothed > _STUCK_THRESHOLD, np.minimum(p, params.spp_clamp), p)
    else:
        p = np.clip(np.broadcast_to(np.asarray(spp, dtype=np.float64), per.shape), 0.0, 1.0)
        smoothed = params.spp_smooth * state.smoothed_spp + (1.0 - params.spp_smooth) * p
    estimate = noise_periodogram_estimate(per, state.noise_psd, p)
    psd = params.psd_smooth * state.noise_psd + (1.0 - params.psd_smooth) * estimate
    psd = np.maximum(psd, params.psd_floor)
    return NoiseFloorState(psd, smoothed), psd


def update_loop(rows, params=SppParams()):
    """Reference floor of one recording: init_state, then update() per frame."""
    n_init = params.init_frames
    state = init_state(rows[:n_init], params)
    out = np.empty_like(rows)
    out[:n_init] = state.noise_psd
    for t in range(n_init, rows.shape[0]):
        state, out[t] = update(state, rows[t], params)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


# Reference UBM initialization: k-means++ and the initial GMM as they were
# first written, over the whole pooled frame matrix at once. `gmm.train_ubm`
# walks the pool in blocks instead, and with n_iters=0 must return this
# reference's model bit for bit, except where a Lloyd pass meets a tie within
# rounding (see `reference_kmeans`).

# Distances closer than this fraction of |x|^2 + |c|^2 are within rounding
# error of the expanded form (about 2F ulps, F <= 1024 features).
_CANCELLATION = 1e-12

# Variances never drop below this times the pooled per-dimension variance.
_VAR_FLOOR_SCALE = 1e-3


def reference_seed_distances(x, x_sq, i):
    """Squared distances of every frame to frame i, by the expanded form,
    except where that is within rounding error of zero."""
    d2 = x_sq - 2.0 * (x @ x[i]) + x_sq[i]
    near = d2 < _CANCELLATION * (x_sq + x_sq[i])
    d2[near] = ((x[near] - x[i]) ** 2).sum(axis=1)
    return d2


def reference_kmeans(x, k, rng, n_iters):
    """k-means++ seeding, then Lloyd passes on the full (N, k) distance
    matrix with one 2-D `np.add.at` of the frames per pass.

    Returns (centers, assign, tied). `tied` says that some Lloyd decision was
    a tie within rounding error: a frame's two nearest centres, or, when a
    cluster is re-seeded, the two farthest frames. The pooled GEMM and a
    blocked one round a row differently depending on where the BLAS splits
    the rows, so they may break such a tie differently; no other decision
    can differ between them.
    """
    n = x.shape[0]
    x_sq = (x**2).sum(axis=1)
    centers = np.empty((k, x.shape[1]))
    pick = rng.integers(n)
    d2 = reference_seed_distances(x, x_sq, pick)
    centers[0] = x[pick]
    for c in range(1, k):
        total = d2.sum()
        pick = rng.integers(n) if total <= 0 else rng.choice(n, p=d2 / total)
        centers[c] = x[pick]
        d2 = np.minimum(d2, reference_seed_distances(x, x_sq, pick))

    assign = np.zeros(n, dtype=np.int64)
    tied = False
    for _ in range(n_iters):
        c_sq = (centers**2).sum(axis=1)
        dists = x_sq[:, None] - 2.0 * (x @ centers.T) + c_sq
        rounding = _CANCELLATION * (x_sq.max() + c_sq.max())
        if k > 1:
            nearest_two = np.partition(dists, 1, axis=1)
            tied |= bool(np.any(nearest_two[:, 1] - nearest_two[:, 0] <= rounding))
        assign = dists.argmin(axis=1)
        counts = np.bincount(assign, minlength=k)
        empty = counts == 0
        if empty.any():
            nearest = dists.min(axis=1)
            far = nearest.argmax()
            tied |= bool(np.count_nonzero(nearest >= nearest[far] - rounding) > 1)
            owner = assign[far]
            if empty.argmax() < owner:
                counts[owner] -= 1
                empty[owner] = counts[owner] == 0
                assign[far] = np.flatnonzero(empty)[-1]
        sums = np.zeros_like(centers)
        np.add.at(sums, assign, x)
        full = ~empty
        centers[full] = sums[full] / counts[full, None]
        if not full.all():
            centers[empty] = x[far]
            assign[far] = np.flatnonzero(empty)[-1]
    return centers, assign, tied


def reference_init(x, centers, assign, seed):
    """The initial GMM of k-means `centers` and `assign`: the floor from
    `x.var`, and each cluster's weight and variance from one boolean-mask
    pass over the frames per cluster."""
    n_frames = x.shape[0]
    floor = _VAR_FLOOR_SCALE * np.maximum(x.var(axis=0), 1e-30)
    weights = np.empty(centers.shape[0])
    variances = np.empty_like(centers)
    for c in range(centers.shape[0]):
        mask = assign == c
        weights[c] = max(mask.sum(), 1) / n_frames
        variances[c] = x[mask].var(axis=0) if mask.sum() > 1 else floor / _VAR_FLOOR_SCALE
    weights /= weights.sum()
    return GmmModel(weights, centers, np.maximum(variances, floor), floor, seed=seed)
