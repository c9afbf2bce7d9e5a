"""Streaming per-bin background power estimation.

Tracks a slowly varying noise floor through frames that may contain loud
foreground speech. Each bin's periodogram estimate is a convex combination
of the observation and the previous floor, weighted by the posterior
probability that speech is active in that bin, and the result is smoothed
with a fixed factor. The stuck-detector clamp keeps the tracker from
latching onto a raised floor when the speech posterior saturates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SceneidError
from .features import Spectrogram

# Raw smoothed-probability level above which the clamp engages.
_STUCK_THRESHOLD = 0.99


class NoiseFloorError(SceneidError):
    pass


@dataclass(frozen=True)
class SppParams:
    """Speech-presence-probability and smoothing constants.

    The functional form and most defaults follow the published MMSE tracker
    this scheme is adopted from (uninformative speech prior, 0.9/0.8
    smoothing for the probability and the floor, 0.99 stagnation clamp).
    The default prior SNR under the speech hypothesis is 20 dB rather than
    the cited method's 15 dB: at 15 dB, false alarms on noise peaks feed
    back into the floor and bias it about -1.2 dB on speech-free input,
    which breaks per-bin accuracy targets; 20 dB cuts the false-alarm rate
    while leaving loud foreground speech fully gated. Set xi_h1_db=15.0 to
    reproduce the published configuration.
    """

    xi_h1_db: float = 20.0
    prior_h1: float = 0.5
    spp_smooth: float = 0.9
    psd_smooth: float = 0.8
    spp_clamp: float = 0.99
    psd_floor: float = 1e-12

    def __post_init__(self) -> None:
        try:
            finite = math.isfinite(self.xi_h1_db) and math.isfinite(self.xi_h1)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"xi_h1_db must give a finite prior SNR, got {self.xi_h1_db}")
        for name in ("prior_h1", "spp_smooth", "psd_smooth", "spp_clamp"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"SppParams.{name} must lie in (0, 1), got {v}")
        if not 0.0 < self.psd_floor < math.inf:
            raise ValueError(f"psd_floor must be finite and positive, got {self.psd_floor}")

    @property
    def xi_h1(self) -> float:
        """Prior SNR as a linear power ratio."""
        return 10.0 ** (self.xi_h1_db / 10.0)


@dataclass(frozen=True)
class NoiseFloorState:
    noise_psd: np.ndarray  # previous floor estimate, >= psd_floor
    smoothed_spp: np.ndarray  # stuck-detector memory, in [0, 1]
    frame_index: int = 0


def init_state(first_frames, n_init: int, params: SppParams = SppParams()) -> NoiseFloorState:
    """Seed the floor with the per-bin mean of the first n_init periodograms."""
    rows = np.atleast_2d(np.asarray(first_frames, dtype=np.float64))
    if rows.size == 0:
        raise NoiseFloorError("cannot initialize noise floor from an empty spectrogram")
    if n_init < 1:
        raise ValueError("n_init must be >= 1")
    if rows.shape[0] < n_init:
        raise NoiseFloorError(f"need {n_init} initialization frames, got {rows.shape[0]}")
    psd = np.maximum(rows[:n_init].mean(axis=0), params.psd_floor)
    return NoiseFloorState(psd, np.full(psd.shape, 0.5), 0)


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
    return NoiseFloorState(psd, smoothed, state.frame_index + 1), psd


def check_tracker_length(n_frames: int, n_init: int) -> None:
    """The tracker needs its n_init seed frames plus at least one to track."""
    if n_frames <= n_init:
        raise NoiseFloorError(
            f"spectrogram has {n_frames} frames; need more than n_init={n_init}"
        )


def track_noise_floor(stack: np.ndarray, params: SppParams = SppParams(), n_init: int = 5) -> None:
    """Replace each row of an (N, T, B) periodogram stack with the tracked floor.

    Runs in place, one step per frame over all N recordings at once. Each step
    applies the elementwise operations of `update()` in the same order, so
    every recording's output equals the `update()` loop bit for bit. The
    first n_init rows of each recording emit its initialization estimate.
    """
    n_recordings, n_frames, n_bins = stack.shape
    check_tracker_length(n_frames, n_init)
    psd = np.empty((n_recordings, n_bins))
    for i in range(n_recordings):
        psd[i] = init_state(stack[i, :n_init], n_init, params).noise_psd
    stack[:, :n_init] = psd[:, None, :]
    smoothed = np.full_like(psd, 0.5)
    p = np.empty_like(psd)
    tmp = np.empty_like(psd)
    stuck = np.empty(psd.shape, dtype=bool)

    xi = params.xi_h1
    q = params.prior_h1
    odds = (1.0 - q) / q * (1.0 + xi)
    slope = xi / (1.0 + xi)
    for t in range(n_init, n_frames):
        per = stack[:, t]
        # speech_presence_prob
        np.divide(per, psd, out=p)
        np.negative(p, out=p)
        np.multiply(p, slope, out=p)
        np.exp(p, out=p)
        np.multiply(odds, p, out=p)
        np.add(1.0, p, out=p)
        np.divide(1.0, p, out=p)
        # stuck detector
        np.multiply(params.spp_smooth, smoothed, out=smoothed)
        np.multiply(1.0 - params.spp_smooth, p, out=tmp)
        np.add(smoothed, tmp, out=smoothed)
        np.greater(smoothed, _STUCK_THRESHOLD, out=stuck)
        np.minimum(p, params.spp_clamp, out=p, where=stuck)
        # noise_periodogram_estimate, then the smoothed floor
        np.subtract(1.0, p, out=tmp)
        np.multiply(tmp, per, out=tmp)
        np.multiply(p, psd, out=p)
        np.add(tmp, p, out=tmp)
        np.multiply(params.psd_smooth, psd, out=psd)
        np.multiply(1.0 - params.psd_smooth, tmp, out=tmp)
        np.add(psd, tmp, out=psd)
        np.maximum(psd, params.psd_floor, out=psd)
        per[...] = psd


def noise_floor_spectrogram(
    spec: Spectrogram, params: SppParams = SppParams(), n_init: int = 5
) -> Spectrogram:
    """Replace each spectrogram row with the tracked floor after that row.

    The first n_init rows emit the initialization estimate unchanged, so the
    output has the same shape as the input.
    """
    stack = spec.frames[None].copy()
    track_noise_floor(stack, params, n_init)
    return Spectrogram(stack[0], spec.bin_hz, spec.frame_hop_s)
