"""Level measurement and speech/background mixing at exact SBRs.

The speech-to-background ratio of a mix is defined as the active speech
level (dB) minus the background RMS level (dB). Mixing measures both levels,
applies the gain that realizes the requested SBR, and only ever attenuates
jointly when the sum would clip, so the ratio is preserved exactly.

This module is signal code only and does no file I/O: `sceneid.pipeline`
reads the recordings, mixes them here and writes the results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioBuffer
from .errors import SceneidError
from .manifest import CorpusManifest, ManifestEntry

ACTIVITY_MARGIN_DB = 40.0  # frames within this of the loudest frame count as active
ACTIVITY_FRAME_MS = 10.0
ACTIVITY_SMOOTH_MS = 16.0


@dataclass(frozen=True)
class MixSpec:
    """Provenance of one mix; enough to rebuild it bit for bit."""

    background_id: str
    speech_id: str
    target_sbr_db: float
    speech_gain: float
    headroom_gain: float
    speech_offset: int
    rng_seed: int


def _require_finite(buf: AudioBuffer) -> None:
    if not np.isfinite(buf.samples).all():
        raise SceneidError("signal has NaN or infinite samples: its level is undefined")


def rms_level(buf: AudioBuffer) -> float:
    """20*log10 of the root-mean-square amplitude, in dB."""
    if buf.samples.size == 0:
        raise SceneidError("empty signal has no RMS level")
    _require_finite(buf)
    mean_sq = float(np.mean(buf.samples**2))
    if mean_sq == 0.0:
        raise SceneidError("all-zero signal has no defined level")
    return 10.0 * math.log10(mean_sq)


def _active_frame_energies(buf: AudioBuffer) -> np.ndarray:
    """Smoothed mean-square energy of consecutive 10 ms frames.

    The energy of a frame is the mean over its F samples of a 16 ms (L-tap)
    moving average of the squared signal, aligned as numpy's "same"
    convolution aligns it. That is one fixed trapezoid of L+F-1 taps (the
    convolution of an F-box with an L-box, over F*L) dotted with the squared
    samples, so every frame's energy is one row of a GEMV over strided
    windows of the zero-padded squares, and no full-length envelope is
    built. The pad in front is L//2 zeros, or more when the signal is
    shorter than L: numpy then centres the "same" output on the kernel, L
    samples long.

    Running sums (a double `cumsum`) would be cheaper still, but their error
    grows with the signal: about 4e-8 of the peak energy over 30 s, enough
    to move a frame across the 40 dB activity margin.
    """
    x = buf.samples
    smooth_len = max(1, int(round(ACTIVITY_SMOOTH_MS * buf.sample_rate / 1000.0)))
    frame_len = max(1, int(round(ACTIVITY_FRAME_MS * buf.sample_rate / 1000.0)))
    if x.size < frame_len:  # shorter than a frame: the head of the L-long "same" envelope
        envelope = np.convolve(x**2, np.full(smooth_len, 1.0 / smooth_len), mode="same")
        return envelope[:frame_len].mean(keepdims=True)
    width = smooth_len + frame_len - 1
    lag = np.arange(width)
    taps = np.minimum(np.minimum(lag + 1, width - lag), min(smooth_len, frame_len))
    taps = taps / float(smooth_len * frame_len)
    front = smooth_len - 1 - (min(x.size, smooth_len) - 1) // 2
    n_frames = max(x.size, smooth_len) // frame_len
    padded = np.zeros(max(front + x.size, n_frames * frame_len + smooth_len - 1))
    np.square(x, out=padded[front : front + x.size])
    windows = sliding_window_view(padded, width)[: n_frames * frame_len : frame_len]
    return windows @ taps


def active_speech_level(buf: AudioBuffer) -> float:
    """RMS level over active frames only, in dB.

    A 10 ms frame is active when its smoothed energy is within 40 dB of the
    loudest frame; smoothing is a 16 ms moving average of the squared signal.
    """
    if buf.samples.size == 0:
        raise SceneidError("empty signal has no active level")
    _require_finite(buf)
    energies = _active_frame_energies(buf)
    peak = float(energies.max())
    if peak <= 0.0:
        raise SceneidError("no active frames: signal is silent")
    active = energies >= peak * 10.0 ** (-ACTIVITY_MARGIN_DB / 10.0)
    return 10.0 * math.log10(float(energies[active].mean()))


def align_speech(speech: np.ndarray, length: int, offset: int) -> np.ndarray:
    """Circularly tile speech from `offset` to cover `length` samples."""
    reps = (offset + length) // speech.size + 1
    return np.tile(speech, reps)[offset : offset + length]


def mix_at_sbr(
    background: AudioBuffer,
    speech: AudioBuffer,
    target_sbr_db: float,
    rng_seed: int,
    background_id: str = "",
    speech_id: str = "",
) -> tuple[AudioBuffer, MixSpec]:
    """Add speech to a background at an exact speech-to-background ratio.

    speech_gain = 10^((target + bg_rms_db - speech_active_db) / 20), with the
    active level measured on the looped/offset speech actually added. If the
    sum would clip, the whole mix is attenuated (SBR unchanged) and the
    applied headroom gain recorded. An SBR with no finite, audible mix is a ValueError.
    """
    if background.sample_rate != speech.sample_rate:
        raise SceneidError(
            f"background at {background.sample_rate} Hz, speech at {speech.sample_rate} Hz"
        )
    bg_rms_db = rms_level(background)  # rejects a silent background
    if not np.any(speech.samples):
        raise SceneidError("speech signal is silent")

    rng = np.random.default_rng(rng_seed)
    offset = int(rng.integers(0, speech.samples.size))
    aligned = align_speech(speech.samples, background.samples.size, offset)
    speech_active_db = active_speech_level(AudioBuffer(aligned, speech.sample_rate))

    gain_db = target_sbr_db + bg_rms_db - speech_active_db
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as one error
        gain = float(np.float64(10.0) ** (gain_db / 20.0))
        mix = background.samples + gain * aligned
    peak = float(np.max(np.abs(mix)))
    if not (gain > 0.0 and math.isfinite(peak)):
        raise ValueError(f"a {target_sbr_db} dB SBR needs a speech gain of {gain}: no usable mix")
    headroom = 1.0 if peak <= 1.0 else 1.0 / peak
    if headroom != 1.0:
        mix = mix * headroom
    spec = MixSpec(
        background_id=background_id,
        speech_id=speech_id,
        target_sbr_db=float(target_sbr_db),
        speech_gain=float(gain),
        headroom_gain=float(headroom),
        speech_offset=offset,
        rng_seed=int(rng_seed),
    )
    return AudioBuffer(mix, background.sample_rate), spec


def condition_tag(sbr_db) -> str:
    """Manifest condition tag for one mixing condition (None = no speech)."""
    return "clean" if sbr_db is None else f"sbr{sbr_db:+g}dB"


def usable_speech_pool(
    speech_pool: CorpusManifest | None, sbr_list, exclude_speakers=()
) -> list[ManifestEntry]:
    """Speech pool entries not spoken by an excluded speaker.

    Raises ValueError when a numeric SBR in `sbr_list` is left with no speech.
    """
    excluded = set(exclude_speakers)
    entries = speech_pool.entries if speech_pool is not None else []
    pool = [e for e in entries if e.speaker_id not in excluded]
    if not pool and any(c is not None for c in sbr_list):
        raise ValueError("speech pool is empty (or fully excluded) but numeric SBRs requested")
    return pool


def draw_speech(
    pool, root_seed: int, condition_index: int, entry_index: int
) -> tuple[int, ManifestEntry]:
    """Seed of one mix and the speech entry it draws from the pool.

    Depends only on the root seed and the (condition, entry) position, so a
    sweep and a built corpus with the same seed mix the same clips.
    """
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=(condition_index, entry_index))
    seed = int(ss.generate_state(1)[0])
    rng = np.random.default_rng(seed)
    return seed, pool[int(rng.integers(0, len(pool)))]
