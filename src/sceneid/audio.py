"""WAV ingestion, resampling and frame slicing.

Audio is one channel from the decoder on: `read_wav` averages the channels
of a multichannel file as it decodes, so everything downstream works on
mono float64 waveforms with amplitudes in [-1, 1]. This module is the only
place that touches sample formats. All operations are pure functions over
immutable buffers.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import i0

from .errors import SceneidError

WINDOW_NAMES = ("hann", "hamming", "rect")

# General-cosine coefficients of the periodic windows, as scipy.signal's
# `get_window` defines them. Hamming's second term is 1 - 0.54, which differs
# from a literal 0.46 in the last bit.
_COSINE_WINDOWS = {
    "hann": (0.5, 0.5),
    "hamming": (0.54, 1.0 - 0.54),
}

# Longest anti-aliasing filter `resample` designs, in taps (32 MB of
# coefficients). Coprime rates such as 16001 -> 16000 Hz need 320,021; a
# nonsense header rate would ask for billions.
MAX_FILTER_TAPS = 1 << 22
# Largest factor `resample` raises the rate by. Memory follows the output, so
# a header rate of 1 Hz would turn each input sample into 16,000 at 16 kHz.
MAX_UPSAMPLE = 16
# Stored taps of one rate pair's resampling matrix (192 KB). A pair whose
# filter is longer stores it once.
_MATRIX_TAPS = 1 << 14
# Most input samples one product with that matrix reads (512 KB), unless a
# single window of them is longer.
_WINDOW_LIMIT = 1 << 16

_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE


@dataclass(frozen=True)
class AudioBuffer:
    """Mono waveform: one float64 sample per instant, at `sample_rate` Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("samples must be a 1-D array")
        object.__setattr__(self, "samples", samples)
        if int(self.sample_rate) <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "sample_rate", int(self.sample_rate))


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


def read_wav(path) -> AudioBuffer:
    """Read a PCM WAV file (16/24/32-bit integer or 32-bit float) as mono.

    Integer samples are normalized by 2^(bits-1); the channels of a
    multichannel file are averaged frame by frame. A missing file raises
    FileNotFoundError; a compressed or unsupported format, a malformed or
    truncated file, or non-finite float samples raise SceneidError, which
    the message tells apart. The messages leave naming the file to the caller.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise SceneidError("not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (chunk_size,) = struct.unpack("<I", raw[pos + 4 : pos + 8])
        body = raw[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise SceneidError("fmt chunk truncated")
            fmt = struct.unpack("<HHIIHH", body[:16])
            if fmt[0] == _WAVE_FORMAT_EXTENSIBLE:
                if len(body) < 26:
                    raise SceneidError("extensible fmt chunk truncated")
                sub_format = struct.unpack("<H", body[24:26])[0]
                fmt = (sub_format,) + fmt[1:]
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise SceneidError("data chunk truncated")
            payload = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word aligned

    if fmt is None or payload is None:
        raise SceneidError("missing fmt or data chunk")
    format_tag, channels, rate, _byte_rate, _block_align, bits = fmt
    if channels < 1 or rate <= 0:
        raise SceneidError("nonsensical fmt fields")

    if format_tag == _WAVE_FORMAT_PCM:
        if bits not in (16, 24, 32):
            raise SceneidError(f"unsupported PCM width {bits} bits")
    elif format_tag == _WAVE_FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise SceneidError(f"unsupported float width {bits} bits")
    else:
        raise SceneidError(f"non-PCM codec (format tag {format_tag:#06x})")
    width = bits // 8
    if len(payload) % width != 0:
        raise SceneidError(f"{bits}-bit payload not a multiple of {width} bytes")

    if format_tag == _WAVE_FORMAT_IEEE_FLOAT:
        with np.errstate(invalid="ignore"):  # a signalling NaN, rejected below
            samples = np.frombuffer(payload, dtype="<f4").astype(np.float64)
        if not np.all(np.isfinite(samples)):
            raise SceneidError("non-finite (NaN or infinite) float samples")
    else:
        if bits == 24:
            b = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
            vals = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
            vals -= (vals >> 23 & 1) << 24  # sign extend
            samples = vals.astype(np.float64)
        else:
            samples = np.frombuffer(payload, dtype=f"<i{width}").astype(np.float64)
        samples /= float(2 ** (bits - 1))  # in place: one array per recording

    if samples.size % channels != 0:
        raise SceneidError("payload length inconsistent with channel count")
    if channels > 1:
        samples = samples.reshape(-1, channels).mean(axis=1)
    return AudioBuffer(samples, rate)


def wav_bytes(buf: AudioBuffer) -> bytes:
    """Encode 16-bit mono PCM WAV.

    Amplitudes outside [-1, 1] are rejected rather than wrapped.
    """
    peak = float(np.max(np.abs(buf.samples))) if buf.samples.size else 0.0
    if peak > 1.0 + 1e-12:
        raise ValueError(f"samples exceed full scale (peak {peak:.6f}); refusing to clip")
    scaled = np.round(buf.samples * 32768.0)
    payload = np.clip(scaled, -32768, 32767).astype("<i2").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        _WAVE_FORMAT_PCM,
        1,  # one channel, two bytes a sample
        buf.sample_rate,
        buf.sample_rate * 2,
        2,
        16,
        b"data",
        len(payload),
    )
    return header + payload


def _filter_half_len(source_rate: int, target_rate: int) -> int:
    """half_len of a rate pair's anti-aliasing filter, which has 2*half_len + 1
    taps. A filter over MAX_FILTER_TAPS raises ValueError naming both rates."""
    g = math.gcd(source_rate, target_rate)
    half_len = 10 * max(source_rate, target_rate) // g
    numtaps = 2 * half_len + 1
    if numtaps > MAX_FILTER_TAPS:
        raise ValueError(
            f"resampling {source_rate} Hz to {target_rate} Hz needs a {numtaps}-tap "
            f"filter, over the limit of {MAX_FILTER_TAPS}"
        )
    return half_len


@functools.lru_cache(maxsize=8)
def _polyphase_matrix(source_rate: int, target_rate: int):
    """The anti-aliasing filter of a rate pair, as the sparse matrix `resample`
    applies.

    The filter is scipy.signal's `firwin(2*half_len + 1, 0.45 * min(rates),
    fs=source_rate*up, window=("kaiser", 8.0))`, scaled by `up` and pre-padded
    as `resample_poly` does, with the same arithmetic, so its coefficients
    have the same bits. The kept outputs fall into `up` classes: output
    i*up + c sums, over s = 0..taps-1, coefs[s, c] times sample j0[c] + s +
    i*down of the input with taps - 1 zeros in front.

    The matrix stacks `per` outputs of each class: its row k*up + c holds
    class c's taps at columns j0[c] + k*down + s, in ascending input index.
    Output i*rows + r of a clip is row r times the matrix's width of padded
    input from i*stride on, stride = per*down. scipy.sparse's CSR product
    adds each row's products in stored order, starting from 0.0: the order
    `resample_poly` adds them in.

    Returns (stride, matrix), cached per pair, its arrays read-only. A filter
    over MAX_FILTER_TAPS raises ValueError naming both rates.
    """
    half_len = _filter_half_len(source_rate, target_rate)
    g = math.gcd(source_rate, target_rate)
    up, down = target_rate // g, source_rate // g
    numtaps = 2 * half_len + 1
    cutoff = 0.45 * min(source_rate, target_rate) / (0.5 * (source_rate * up))
    alpha = 0.5 * (numtaps - 1)
    pre = down - half_len % down
    lo = (half_len + pre) // down  # outputs resample_poly drops in front
    taps = -(-(pre + numtaps) // up)
    table = np.zeros(taps * up)

    # The filter is designed in place, in its slice of the table, with one
    # more array for n - alpha and one for the sinc. Every operation is
    # firwin's, so the coefficients keep its bits.
    h = table[pre : pre + numtaps]
    x = np.arange(-half_len, half_len + 1, dtype=np.float64)  # n - alpha, exact
    np.divide(x, alpha, out=h)
    h **= 2.0
    np.subtract(1, h, out=h)
    np.sqrt(h, out=h)
    h *= 8.0
    i0(h, out=h)
    h /= i0(8.0)  # the Kaiser window, beta 8
    x *= cutoff
    x *= np.pi
    x[half_len] = 1.0  # sinc(0) is 1, set below; this keeps 0 / 0 out
    sinc = np.sin(x)
    sinc /= x
    sinc[half_len] = 1.0
    del x
    sinc *= cutoff
    h *= sinc
    del sinc
    h /= np.sum(h)  # unit gain at DC
    h *= up

    positions = (lo + np.arange(up)) * down  # each class's first output, up-sampled grid
    coefs = table.reshape(taps, up)[::-1, positions % up]  # (taps, up)
    del table, h
    j0 = positions // up

    per = max(1, _MATRIX_TAPS // (up * taps))
    rows = per * up
    width = per * down + int(j0[-1]) + taps
    starts = (np.arange(per)[:, None] * down + j0).reshape(-1, 1).astype(np.int32)
    matrix = sparse.csr_array(
        (
            np.tile(coefs.T, (per, 1)).reshape(-1),
            (starts + np.arange(taps, dtype=np.int32)).reshape(-1),
            np.arange(0, rows * taps + 1, taps, dtype=np.int32),
        ),
        shape=(rows, width),
    )
    for arr in (matrix.data, matrix.indices, matrix.indptr):
        arr.setflags(write=False)
    return per * down, matrix


def resample(buf: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Band-limited polyphase resampling.

    Windowed-sinc anti-aliasing filter with cutoff at 0.45x the lower of the
    two rates; output length is round(n * target_rate / source_rate). The
    output has the bits of scipy.signal's `resample_poly` with that filter:
    each output starts from 0.0 and adds its taps' products one at a time in
    ascending input index. A pair of rates whose filter would exceed
    MAX_FILTER_TAPS, or that raises the rate more than MAX_UPSAMPLE times,
    raises ValueError. At equal rates `buf` itself is returned.
    """
    if int(target_rate) <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    target_rate = int(target_rate)
    if target_rate == buf.sample_rate:
        return buf
    if target_rate > MAX_UPSAMPLE * buf.sample_rate:
        raise ValueError(
            f"resampling {buf.sample_rate} Hz to {target_rate} Hz raises the rate more than "
            f"{MAX_UPSAMPLE} times"
        )

    _filter_half_len(buf.sample_rate, target_rate)  # refuse the pair even for no output
    x = buf.samples
    out_len = int(math.floor(x.size * target_rate / buf.sample_rate + 0.5))
    if out_len == 0:
        return AudioBuffer(np.zeros(0), target_rate)
    stride, matrix = _polyphase_matrix(buf.sample_rate, target_rate)
    rows, width = matrix.shape
    taps = int(matrix.indptr[1])  # taps of each row
    n = -(-out_len // rows)  # windows of input the matrix is applied to
    padded = np.zeros((n - 1) * stride + width)  # holds taps - 1 zeros, then all of x
    padded[taps - 1 : taps - 1 + x.size] = x
    windows = np.lib.stride_tricks.sliding_window_view(padded, width)[::stride]
    y = np.empty((n, rows))
    step = max(1, _WINDOW_LIMIT // width)  # windows per product
    for i in range(0, n, step):
        y[i : i + step] = (matrix @ windows[i : i + step].T).T
    return AudioBuffer(y.reshape(-1)[:out_len], target_rate)


@functools.lru_cache(maxsize=16)
def window_values(name: str, n: int) -> np.ndarray:
    """Periodic analysis window ('rect' means all ones), cached per (name, n).

    A cosine window has the bits of scipy.signal's `get_window(name, n,
    fftbins=True)`: the symmetric general-cosine window of n + 1 points on
    linspace(-pi, pi), its last point dropped. The array is shared by every
    caller, so it is read-only.
    """
    if name == "rect" or n <= 1:
        win = np.ones(n)
    else:
        fac = np.linspace(-np.pi, np.pi, n + 1)
        win = np.zeros(n + 1)
        for k, a in enumerate(_COSINE_WINDOWS[name]):
            win += a * np.cos(k * fac)
        win = win[:-1]
    win.setflags(write=False)
    return win


def frame_count(n_samples: int, sample_rate: int, cfg: FrameConfig) -> int:
    """Rows of `frame_signal` for `n_samples` samples at `sample_rate`; a
    buffer shorter than one frame raises ValueError."""
    flen = cfg.frame_len(sample_rate)
    hop = cfg.hop(sample_rate)
    if n_samples < flen:
        raise ValueError(f"buffer of {n_samples} samples is shorter than one {flen}-sample frame")
    return (n_samples - flen) // hop + 1


def frame_signal(buf: AudioBuffer, cfg: FrameConfig) -> np.ndarray:
    """Slice a buffer into overlapping frames, window applied: the
    (n_frames, frame_len) matrix.

    hop = frame_len * (1 - overlap); a trailing partial frame is dropped.
    """
    frame_count(buf.samples.size, buf.sample_rate, cfg)  # rejects a too-short buffer
    flen = cfg.frame_len(buf.sample_rate)
    hop = cfg.hop(buf.sample_rate)
    views = np.lib.stride_tricks.sliding_window_view(buf.samples, flen)[::hop]
    return np.ascontiguousarray(views * window_values(cfg.window, flen))
