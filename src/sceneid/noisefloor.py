"""Streaming per-bin background power estimation.

Tracks a slowly varying noise floor through frames that may contain loud
foreground speech. Each bin's periodogram estimate is a convex combination
of the observation and the previous floor, weighted by the posterior
probability that speech is active in that bin, and the result is smoothed
with a fixed factor. The stuck-detector clamp keeps the tracker from
latching onto a raised floor when the speech posterior saturates.

`track_noise_floor` is the one implementation of the recursion. Its
one-frame reference, written step by step as the cited method states it,
lives in the test suite (`tests/conftest.py`), which checks the two bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SceneidError

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
    init_frames: int = 5  # periodograms averaged to seed the floor

    def __post_init__(self) -> None:
        # A prior SNR of 0 (xi_h1_db below about -3236) times an infinite
        # |X|^2 / psd is NaN in the tracker's posterior.
        try:
            finite = math.isfinite(self.xi_h1_db) and 0.0 < self.xi_h1 < math.inf
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(
                f"xi_h1_db must give a finite positive prior SNR, got {self.xi_h1_db}"
            )
        for name in ("prior_h1", "spp_smooth", "psd_smooth", "spp_clamp"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"SppParams.{name} must lie in (0, 1), got {v}")
        if not 0.0 < self.psd_floor < math.inf:
            raise ValueError(f"psd_floor must be finite and positive, got {self.psd_floor}")
        if self.init_frames < 1:
            raise ValueError(f"init_frames must be at least 1, got {self.init_frames}")
        if not math.isfinite(self.odds):
            raise ValueError(f"prior_h1={self.prior_h1} with xi_h1_db={self.xi_h1_db} "
                             "gives infinite posterior odds")

    @property
    def xi_h1(self) -> float:
        """Prior SNR as a linear power ratio."""
        return 10.0 ** (self.xi_h1_db / 10.0)

    @property
    def odds(self) -> float:
        """Prior odds against speech times (1 + xi_h1), the posterior's scale."""
        return (1.0 - self.prior_h1) / self.prior_h1 * (1.0 + self.xi_h1)


def check_tracker_length(n_frames: int, params: SppParams) -> None:
    """The tracker needs its init_frames seed frames plus at least one to track."""
    if n_frames <= params.init_frames:
        raise NoiseFloorError(
            f"spectrogram has {n_frames} frames; need more than init_frames={params.init_frames}"
        )


# At a subnormal floor |X|^2 / psd overflows to inf and the speech posterior
# saturates to 1, the formula's limit. Every other step stays within the
# range of its operands: means, products with a factor in [0, 1], and convex
# combinations.
@np.errstate(over="ignore")
def track_noise_floor(stack: np.ndarray, params: SppParams = SppParams()) -> None:
    """Replace each row of an (N, T, B) periodogram stack with the tracked floor.

    Runs in place, one step per frame over all N recordings at once. The
    first init_frames rows of each recording emit its initialization
    estimate, the per-bin mean of those rows. Each step applies the
    elementwise operations of the one-frame reference in `tests/conftest.py`
    in the same order, so every recording's output equals that reference's
    loop bit for bit.
    """
    _, n_frames, n_bins = stack.shape
    check_tracker_length(n_frames, params)
    if n_bins == 0:
        raise NoiseFloorError("cannot initialize noise floor from an empty spectrogram")
    n_init = params.init_frames
    psd = np.maximum(stack[:, :n_init].mean(axis=1), params.psd_floor)
    stack[:, :n_init] = psd[:, None, :]
    smoothed = np.full_like(psd, 0.5)
    p = np.empty_like(psd)
    tmp = np.empty_like(psd)
    stuck = np.empty(psd.shape, dtype=bool)

    xi = params.xi_h1
    odds = params.odds
    slope = xi / (1.0 + xi)
    for t in range(n_init, n_frames):
        per = stack[:, t]
        # speech posterior P = 1 / (1 + ((1-q)/q) (1+xi) exp(-(|X|^2/psd) xi/(1+xi)))
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
        # noise periodogram (1-P)|X|^2 + P psd, then the smoothed floor
        np.subtract(1.0, p, out=tmp)
        np.multiply(tmp, per, out=tmp)
        np.multiply(p, psd, out=p)
        np.add(tmp, p, out=tmp)
        np.multiply(params.psd_smooth, psd, out=psd)
        np.multiply(1.0 - params.psd_smooth, tmp, out=tmp)
        np.add(psd, tmp, out=psd)
        np.maximum(psd, params.psd_floor, out=psd)
        per[...] = psd


def noise_floor_spectrogram(spec, params: SppParams = SppParams()) -> np.ndarray:
    """Replace each row of a (T, B) power spectrogram with the tracked floor
    after that row; the input is not modified.

    The first init_frames rows emit the initialization estimate unchanged, so
    the output has the same shape as the input. The input must be 2-D with no
    negative entry.
    """
    frames = np.array(spec, dtype=np.float64)  # a copy: the tracker runs in place
    if frames.ndim != 2:
        raise ValueError("spectrogram frames must be 2-D (T x B)")
    if frames.size and frames.min() < 0:
        raise ValueError("spectrogram entries must be non-negative")
    track_noise_floor(frames[None], params)
    return frames
