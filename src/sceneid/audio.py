"""WAV ingestion, channel downmix, resampling and frame slicing.

Everything downstream works on mono float64 waveforms with amplitudes in
[-1, 1]; this module is the only place that touches sample formats. All
operations are pure functions over immutable buffers.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.signal import firwin, get_window, resample_poly

from .errors import SceneidError

WINDOW_NAMES = ("hann", "hamming", "rect")

_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE


class WavError(SceneidError):
    """Base class for WAV parsing failures."""


class WavCorruptError(WavError):
    """Header is malformed or the file is truncated."""


class WavCodecError(WavError):
    """Compressed or otherwise unsupported sample format."""


@dataclass(frozen=True)
class AudioBuffer:
    """Sampled waveform; multichannel data is interleaved."""

    samples: np.ndarray
    sample_rate: int
    channel_count: int = 1

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("samples must be a 1-D interleaved array")
        object.__setattr__(self, "samples", samples)
        if int(self.sample_rate) <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "sample_rate", int(self.sample_rate))
        if self.channel_count < 1:
            raise ValueError(f"channel_count must be >= 1, got {self.channel_count}")
        if samples.size % self.channel_count != 0:
            raise ValueError(
                f"{samples.size} samples not divisible by {self.channel_count} channels"
            )

    @property
    def frame_count(self) -> int:
        """Number of per-channel sample frames."""
        return self.samples.size // self.channel_count

    @property
    def duration_s(self) -> float:
        return self.frame_count / self.sample_rate

    def channels(self) -> np.ndarray:
        """De-interleaved (frame_count, channel_count) view."""
        return self.samples.reshape(-1, self.channel_count)


@dataclass(frozen=True)
class FrameConfig:
    """Analysis framing: 40 ms frames with 50% overlap by default."""

    frame_len_ms: float = 40.0
    overlap_fraction: float = 0.5
    window: str = "hann"

    def __post_init__(self) -> None:
        if self.frame_len_ms <= 0:
            raise ValueError("frame_len_ms must be positive")
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise ValueError("overlap_fraction must lie in [0, 1)")
        if self.window not in WINDOW_NAMES:
            raise ValueError(f"window must be one of {WINDOW_NAMES}, got {self.window!r}")

    def frame_len(self, sample_rate: int) -> int:
        """Frame length in samples; must come out integral for the rate."""
        exact = self.frame_len_ms * sample_rate / 1000.0
        n = int(round(exact)) if math.isfinite(exact) else 0
        if abs(exact - n) > 1e-9 or n < 1:
            raise ValueError(
                f"{self.frame_len_ms} ms at {sample_rate} Hz is not an integer sample count"
            )
        return n

    def hop(self, sample_rate: int) -> int:
        hop = int(round(self.frame_len(sample_rate) * (1.0 - self.overlap_fraction)))
        if hop < 1:
            raise ValueError("overlap too large: hop collapses to zero samples")
        return hop


@dataclass(frozen=True)
class Frames:
    """Windowed analysis frames plus the timing metadata downstream needs."""

    data: np.ndarray  # (n_frames, frame_len), window already applied
    sample_rate: int
    hop: int

    @property
    def frame_len(self) -> int:
        return self.data.shape[1]


def read_wav(path) -> AudioBuffer:
    """Read a PCM WAV file (16/24/32-bit integer or 32-bit float).

    Integer samples are normalized by 2^(bits-1). Raises FileNotFoundError,
    WavCodecError (compressed/unsupported format) or WavCorruptError
    (malformed or truncated file, or non-finite float samples) so callers
    can tell the cases apart. The messages leave naming the file to the caller.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise WavCorruptError("not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (chunk_size,) = struct.unpack("<I", raw[pos + 4 : pos + 8])
        body = raw[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise WavCorruptError("fmt chunk truncated")
            fmt = struct.unpack("<HHIIHH", body[:16])
            if fmt[0] == _WAVE_FORMAT_EXTENSIBLE:
                if len(body) < 26:
                    raise WavCorruptError("extensible fmt chunk truncated")
                sub_format = struct.unpack("<H", body[24:26])[0]
                fmt = (sub_format,) + fmt[1:]
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise WavCorruptError("data chunk truncated")
            payload = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word aligned

    if fmt is None or payload is None:
        raise WavCorruptError("missing fmt or data chunk")
    format_tag, channels, rate, _byte_rate, _block_align, bits = fmt
    if channels < 1 or rate <= 0:
        raise WavCorruptError("nonsensical fmt fields")

    if format_tag == _WAVE_FORMAT_PCM:
        if bits not in (16, 24, 32):
            raise WavCodecError(f"unsupported PCM width {bits} bits")
    elif format_tag == _WAVE_FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise WavCodecError(f"unsupported float width {bits} bits")
    else:
        raise WavCodecError(f"non-PCM codec (format tag {format_tag:#06x})")
    width = bits // 8
    if len(payload) % width != 0:
        raise WavCorruptError(f"{bits}-bit payload not a multiple of {width} bytes")

    if format_tag == _WAVE_FORMAT_IEEE_FLOAT:
        samples = np.frombuffer(payload, dtype="<f4").astype(np.float64)
        if not np.all(np.isfinite(samples)):
            raise WavCorruptError("non-finite (NaN or infinite) float samples")
    else:
        if bits == 24:
            b = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
            vals = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
            vals -= (vals >> 23 & 1) << 24  # sign extend
            ints = vals.astype(np.float64)
        else:
            ints = np.frombuffer(payload, dtype=f"<i{width}").astype(np.float64)
        samples = ints / float(2 ** (bits - 1))

    if samples.size % channels != 0:
        raise WavCorruptError("payload length inconsistent with channel count")
    return AudioBuffer(samples, rate, channels)


def write_wav(path, buf: AudioBuffer, bits: int = 16) -> None:
    with open(path, "wb") as fh:
        fh.write(wav_bytes(buf, bits))


def wav_bytes(buf: AudioBuffer, bits: int = 16) -> bytes:
    """Encode PCM WAV (16-bit integer or 32-bit float).

    Amplitudes outside [-1, 1] are rejected rather than wrapped.
    """
    peak = float(np.max(np.abs(buf.samples))) if buf.samples.size else 0.0
    if peak > 1.0 + 1e-12:
        raise ValueError(f"samples exceed full scale (peak {peak:.6f}); refusing to clip")
    if bits == 16:
        scaled = np.round(buf.samples * 32768.0)
        payload = np.clip(scaled, -32768, 32767).astype("<i2").tobytes()
        format_tag, block = _WAVE_FORMAT_PCM, 2 * buf.channel_count
    elif bits == 32:
        payload = buf.samples.astype("<f4").tobytes()
        format_tag, block = _WAVE_FORMAT_IEEE_FLOAT, 4 * buf.channel_count
    else:
        raise ValueError(f"unsupported output width {bits} bits")
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        format_tag,
        buf.channel_count,
        buf.sample_rate,
        buf.sample_rate * block,
        block,
        bits,
        b"data",
        len(payload),
    )
    return header + payload


def downmix_mono(buf: AudioBuffer) -> AudioBuffer:
    """Average all channels into one; mono input passes through unchanged."""
    if buf.channel_count == 1:
        return AudioBuffer(buf.samples.copy(), buf.sample_rate, 1)
    mono = buf.channels().mean(axis=1)
    return AudioBuffer(mono, buf.sample_rate, 1)


def resample(buf: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Band-limited polyphase resampling of a mono buffer.

    Windowed-sinc anti-aliasing filter with cutoff at 0.45x the lower of the
    two rates; output length is round(n * target_rate / source_rate).
    """
    if buf.channel_count != 1:
        raise ValueError("resample expects a mono buffer; downmix first")
    if int(target_rate) <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    target_rate = int(target_rate)
    if target_rate == buf.sample_rate:
        return AudioBuffer(buf.samples.copy(), target_rate, 1)

    g = math.gcd(buf.sample_rate, target_rate)
    up, down = target_rate // g, buf.sample_rate // g
    x = buf.samples
    out_len = int(math.floor(x.size * target_rate / buf.sample_rate + 0.5))

    half_len = 10 * max(up, down)
    hi_rate = buf.sample_rate * up
    cutoff_hz = 0.45 * min(buf.sample_rate, target_rate)
    h = firwin(2 * half_len + 1, cutoff_hz, fs=hi_rate, window=("kaiser", 8.0))
    # resample_poly scales h by `up` and rounds the output length up.
    y = resample_poly(x, up, down, window=h)[:out_len]
    return AudioBuffer(y, target_rate, 1)


@functools.lru_cache(maxsize=16)
def window_values(name: str, n: int) -> np.ndarray:
    """Periodic analysis window ('rect' means all ones), cached per (name, n).

    The array is shared by every caller, so it is read-only.
    """
    win = np.ones(n) if name == "rect" else get_window(name, n, fftbins=True)
    win.setflags(write=False)
    return win


def frame_signal(buf: AudioBuffer, cfg: FrameConfig) -> Frames:
    """Slice a mono buffer into overlapping windowed frames.

    hop = frame_len * (1 - overlap); a trailing partial frame is dropped.
    """
    if buf.channel_count != 1:
        raise ValueError("frame_signal expects a mono buffer")
    flen = cfg.frame_len(buf.sample_rate)
    hop = cfg.hop(buf.sample_rate)
    if buf.samples.size < flen:
        raise ValueError(
            f"buffer of {buf.samples.size} samples is shorter than one {flen}-sample frame"
        )
    views = np.lib.stride_tricks.sliding_window_view(buf.samples, flen)[::hop]
    data = views * window_values(cfg.window, flen)
    return Frames(np.ascontiguousarray(data), buf.sample_rate, hop)
