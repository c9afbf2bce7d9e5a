"""MFCC and shifted-delta-cepstral features computed from power spectrograms.

The static front end keeps 21 cepstral coefficients (c0 included) from 40
mel bands; temporal context comes from shifted delta blocks instead of
conventional derivative appends. Both optional stages are values of
`FeatureConfig`: `sdc` and `noise_floor`, a tracked floor of the spectrogram
substituted before the mel stage (see sceneid.noisefloor).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft

from .audio import AudioBuffer, FrameConfig, Frames, frame_signal
from .errors import SceneidError
from .noisefloor import SppParams, check_tracker_length, track_noise_floor

MEL_LOG_FLOOR = 1e-10  # added to band energies before log; keeps silence finite

# Widest feature row a config may ask for: n_ceps + (2k+1)n is 76 in the paper.
MAX_FEATURE_DIM = 1024

# Longest analysis frame, in samples: 21.8 s at 48 kHz. The config check
# builds arrays over the frame's FFT bins before any audio is read.
MAX_FRAME_LEN = 1 << 20

# Largest SDC spread m or block step p, in frames. Shifts only move clamped
# frame indices, so larger ones change nothing on any real clip.
MAX_SDC_SHIFT = 10_000


class FeatureDimError(SceneidError):
    """Shapes of spectrogram, filter bank or feature matrix do not line up."""


@dataclass(frozen=True)
class Spectrogram:
    """Per-frame one-sided power spectra (T x B, B = fft_size/2 + 1)."""

    frames: np.ndarray
    bin_hz: float
    frame_hop_s: float

    def __post_init__(self) -> None:
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 2:
            raise ValueError("spectrogram frames must be 2-D (T x B)")
        if frames.size and frames.min() < 0:
            raise ValueError("spectrogram entries must be non-negative")
        object.__setattr__(self, "frames", frames)

    @property
    def n_bins(self) -> int:
        return self.frames.shape[1]


@dataclass(frozen=True)
class MelFilterBank:
    """Triangular unit-peak filters, centers equally spaced on the mel scale."""

    weights: np.ndarray  # (M, B)
    center_freqs_hz: np.ndarray  # (M,) strictly increasing

    @property
    def n_filters(self) -> int:
        return self.weights.shape[0]

    @property
    def row_sums(self) -> np.ndarray:
        return self.weights.sum(axis=1)


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-frame feature vectors with source metadata."""

    rows: np.ndarray  # (T, dim) float64
    recording_id: str = ""

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError("feature rows must be 2-D (T x dim)")
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @property
    def n_frames(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True)
class SdcConfig:
    """Shifted-delta parameters: spread m, k context blocks per side, first n
    coefficients differenced, blocks p frames apart."""

    m: int = 2
    k: int = 2
    n: int = 11
    p: int = 3

    def __post_init__(self) -> None:
        for name in ("m", "k", "n", "p"):
            if getattr(self, name) < 1:
                raise ValueError(f"SdcConfig.{name} must be strictly positive")

    @property
    def appended_dim(self) -> int:
        return (2 * self.k + 1) * self.n


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def power_spectrogram(frames: Frames) -> Spectrogram:
    """Squared FFT magnitudes of windowed frames, bins 0..fft/2.

    fft size is the next power of two at or above the frame length.
    """
    if frames.data.shape[0] == 0:
        raise ValueError("no frames to transform")
    fft_size = 1 << (frames.frame_len - 1).bit_length()
    power = np.empty((frames.data.shape[0], fft_size // 2 + 1))
    _power_into(frames, fft_size, power)
    return Spectrogram(power, frames.sample_rate / fft_size, frames.hop / frames.sample_rate)


def _power_into(frames: Frames, fft_size: int, out: np.ndarray) -> None:
    spectrum = np.fft.rfft(frames.data, n=fft_size, axis=1)
    np.square(spectrum.real, out=out)
    out += spectrum.imag**2


def make_mel_bank(
    n_filters: int,
    fft_size: int,
    sample_rate: int,
    fmin_hz: float = 0.0,
    fmax_hz: float | None = None,
) -> MelFilterBank:
    """Triangular filters with M+2 vertices equally spaced in mel.

    Uses the HTK mel map mel(f) = 2595*log10(1 + f/700). Triangles have unit
    peak; adjacent filters overlap so interior bins are covered with total
    weight at most one.
    """
    hz_pts, bin_freqs = _check_mel_bank(n_filters, fft_size, sample_rate, fmin_hz, fmax_hz)
    lower = hz_pts[:-2, None]
    center = hz_pts[1:-1, None]
    upper = hz_pts[2:, None]
    rising = (bin_freqs - lower) / (center - lower)
    falling = (upper - bin_freqs) / (upper - center)
    weights = np.maximum(0.0, np.minimum(rising, falling))
    return MelFilterBank(weights, hz_pts[1:-1].copy())


def _check_mel_bank(n_filters, fft_size, sample_rate, fmin_hz, fmax_hz):
    """`make_mel_bank`'s argument checks, made without building the bank.

    Returns the M+2 filter vertices (Hz, fmax_hz None read as Nyquist) and
    the FFT bin frequencies. A filter is empty unless its vertices strictly
    increase and an FFT bin lies strictly between its lower and upper edge.
    """
    nyquist = sample_rate / 2.0
    fmax_hz = nyquist if fmax_hz is None else fmax_hz
    if not (0.0 <= fmin_hz < fmax_hz <= nyquist):
        raise ValueError(f"need 0 <= fmin_hz < fmax_hz <= Nyquist, got [{fmin_hz}, {fmax_hz}]")
    n_bins = fft_size // 2 + 1
    if not 1 <= n_filters <= n_bins:
        raise ValueError(f"need 1 to {n_bins} mel filters (the FFT bin count), got {n_filters}")
    hz_pts = mel_to_hz(np.linspace(hz_to_mel(fmin_hz), hz_to_mel(fmax_hz), n_filters + 2))
    bin_freqs = np.arange(n_bins) * (sample_rate / fft_size)
    lower, center, upper = hz_pts[:-2], hz_pts[1:-1], hz_pts[2:]
    inside = np.searchsorted(bin_freqs, upper, "left") - np.searchsorted(bin_freqs, lower, "right")
    if not np.all((lower < center) & (center < upper) & (inside > 0)):
        raise ValueError(f"{n_filters} mel filters over {n_bins} FFT bins leave a filter empty")
    return hz_pts, bin_freqs


def mfcc(spec: Spectrogram, bank: MelFilterBank, n_ceps: int) -> FeatureMatrix:
    """Orthonormal DCT-II of log mel band powers, coefficients 0..n_ceps-1.

    Band powers are normalized by each filter's total weight so that a flat
    spectrum maps to a flat mel vector (all information about flat gain ends
    up in c0 only). c0 is kept and not normalized.
    """
    if bank.weights.shape[1] != spec.n_bins:
        raise FeatureDimError(
            f"bank built for {bank.weights.shape[1]} bins, spectrogram has {spec.n_bins}"
        )
    if n_ceps > bank.n_filters:
        raise ValueError(f"n_ceps={n_ceps} exceeds n_filters={bank.n_filters}")
    with np.errstate(over="ignore"):  # reported below as one error
        band_power = spec.frames @ bank.weights.T / bank.row_sums
    log_mel = np.log(band_power + MEL_LOG_FLOOR)
    if not np.isfinite(log_mel).all():
        raise ValueError("log mel band powers are not finite")
    ceps = scipy.fft.dct(log_mel, type=2, norm="ortho", axis=1)
    return FeatureMatrix(np.ascontiguousarray(ceps[:, :n_ceps]))


def append_sdc(feats: FeatureMatrix, cfg: SdcConfig) -> FeatureMatrix:
    """Concatenate 2k+1 shifted delta blocks to each static vector.

    The delta at frame u is c[0:n](u+m) - c[0:n](u-m); blocks are taken at
    offsets {-k*p .. -p, 0, p .. k*p} around the current frame and frame
    indices are clamped to the valid range, so edge frames are retained.
    """
    rows = feats.rows
    n_frames, dim = rows.shape
    if n_frames < 1:
        raise ValueError("feature matrix is empty")
    if cfg.n > dim:
        raise FeatureDimError(f"SDC needs {cfg.n} static coefficients, only {dim} present")

    t = np.arange(n_frames)
    blocks = []
    for j in range(-cfg.k, cfg.k + 1):
        base = t + j * cfg.p
        hi = np.clip(base + cfg.m, 0, n_frames - 1)
        lo = np.clip(base - cfg.m, 0, n_frames - 1)
        blocks.append(rows[hi, : cfg.n] - rows[lo, : cfg.n])
    out = np.hstack([rows] + blocks)
    return replace(feats, rows=out)


@dataclass(frozen=True)
class FeatureConfig:
    """Everything needed to turn a mono waveform into feature rows."""

    sample_rate: int = 16000
    frame: FrameConfig = FrameConfig()
    n_mels: int = 40
    n_ceps: int = 21
    fmin_hz: float = 0.0
    fmax_hz: float | None = None
    sdc: SdcConfig | None = SdcConfig()  # None: static MFCCs only
    noise_floor: SppParams | None = None  # None: MFCCs of the raw spectrogram

    def __post_init__(self) -> None:
        self.frame.hop(self.sample_rate)
        frame_len = self.frame.frame_len(self.sample_rate)
        if frame_len > MAX_FRAME_LEN:
            raise ValueError(f"a frame of {frame_len} samples exceeds {MAX_FRAME_LEN}")
        _check_mel_bank(self.n_mels, self.fft_size(), self.sample_rate, self.fmin_hz, self.fmax_hz)
        if not 1 <= self.n_ceps <= self.n_mels:
            raise ValueError(f"need 1 <= n_ceps <= n_mels={self.n_mels}, got {self.n_ceps}")
        if self.sdc is not None and self.sdc.n > self.n_ceps:
            raise ValueError(f"sdc_n={self.sdc.n} exceeds n_ceps={self.n_ceps}")
        if self.sdc is not None and self.n_ceps + self.sdc.appended_dim > MAX_FEATURE_DIM:
            raise ValueError(
                f"feature width n_ceps + (2*sdc_k+1)*sdc_n = "
                f"{self.n_ceps + self.sdc.appended_dim} exceeds {MAX_FEATURE_DIM}"
            )
        if self.sdc is not None and max(self.sdc.m, self.sdc.p) > MAX_SDC_SHIFT:
            raise ValueError(
                f"sdc_m={self.sdc.m} and sdc_p={self.sdc.p} must be at most {MAX_SDC_SHIFT} frames"
            )

    def fft_size(self) -> int:
        return 1 << (self.frame.frame_len(self.sample_rate) - 1).bit_length()


def extract_features(
    buf: AudioBuffer, config: FeatureConfig = FeatureConfig(), recording_id: str = ""
) -> FeatureMatrix:
    """Full front end: frame -> power spectrogram -> [noise floor] -> MFCC -> [SDC]."""
    (feats,) = extract_features_many([buf], config, [recording_id])
    return feats


@contextmanager
def _naming(recording_id: str):
    """Prefix an error raised for one recording with its id; the type is kept."""
    try:
        yield
    except (SceneidError, ValueError) as exc:
        if not recording_id:
            raise
        raise type(exc)(f"{recording_id}: {exc}") from exc


def extract_features_many(
    bufs, config: FeatureConfig = FeatureConfig(), recording_ids=None
) -> list[FeatureMatrix]:
    """`extract_features` for several recordings, in their order.

    Power spectra of recordings with the same frame count share one (N, T, B)
    stack, and the noise tracker runs over each stack in place, one step per
    frame for all of its recordings. The output equals per-recording
    `extract_features` bit for bit. An error raised for one recording names
    its id.
    """
    bufs = list(bufs)
    ids = [""] * len(bufs) if recording_ids is None else list(recording_ids)
    if len(ids) != len(bufs):
        raise ValueError(f"{len(bufs)} buffers but {len(ids)} recording ids")
    if not bufs:
        return []

    framed = []
    by_length: dict[int, list[int]] = {}
    for i, (buf, rid) in enumerate(zip(bufs, ids)):
        with _naming(rid):
            if buf.sample_rate != config.sample_rate:
                raise ValueError(
                    f"buffer rate {buf.sample_rate} differs from configured {config.sample_rate}"
                )
            frames = frame_signal(buf, config.frame)
            if config.noise_floor is not None:
                check_tracker_length(len(frames.data), config.noise_floor)
        framed.append(frames)
        by_length.setdefault(len(frames.data), []).append(i)

    fft_size = config.fft_size()
    bin_hz = config.sample_rate / fft_size
    hop_s = framed[0].hop / config.sample_rate
    bank = make_mel_bank(
        config.n_mels, fft_size, config.sample_rate, config.fmin_hz, config.fmax_hz
    )
    out: list = [None] * len(bufs)
    for n_frames, members in by_length.items():
        stack = np.empty((len(members), n_frames, fft_size // 2 + 1))
        for j, i in enumerate(members):
            _power_into(framed[i], fft_size, stack[j])
            framed[i] = None
        if config.noise_floor is not None:
            track_noise_floor(stack, config.noise_floor)
        for j, i in enumerate(members):
            with _naming(ids[i]):
                feats = mfcc(Spectrogram(stack[j], bin_hz, hop_s), bank, config.n_ceps)
                if config.sdc is not None:
                    feats = append_sdc(feats, config.sdc)
            out[i] = replace(feats, recording_id=ids[i])
    return out


def feature_csv(feats: FeatureMatrix) -> str:
    """Lossless CSV: a `frame,f0,...` header, then per row the frame index and
    the `repr` of each float64 value, which reads back to the same bits."""
    lines = ["frame," + ",".join(f"f{i}" for i in range(feats.dim))]
    lines += [f"{t}," + ",".join(repr(float(v)) for v in row) for t, row in enumerate(feats.rows)]
    return "\n".join(lines) + "\n"
