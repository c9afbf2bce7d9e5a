"""MFCC and shifted-delta-cepstral features computed from power spectrograms.

The static front end keeps 21 cepstral coefficients (c0 included) from 40
mel bands; temporal context comes from shifted delta blocks instead of
conventional derivative appends. Both optional stages are values of
`FeatureConfig`: `sdc` and `noise_floor`, a tracked floor of the spectrogram
substituted before the mel stage (see sceneid.noisefloor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .audio import AudioBuffer, FrameConfig, frame_count, frame_signal
from .errors import SceneidError
from .noisefloor import SppParams, check_tracker_length, track_noise_floor

MEL_LOG_FLOOR = 1e-10  # added to band energies before log; keeps silence finite

# Widest feature row a config may ask for: n_ceps + (2k+1)n is 76 in the paper.
MAX_FEATURE_DIM = 1024

# Longest analysis frame, in samples: 21.8 s at 48 kHz. The config check
# builds arrays over the frame's FFT bins before any audio is read.
MAX_FRAME_LEN = 1 << 20

# Most weights a mel bank may hold, n_mels x (fft/2 + 1): 256 MiB of float64.
# The default 40 filters at MAX_FRAME_LEN hold 20,971,560.
MAX_MEL_BANK_ENTRIES = 1 << 25

# Largest SDC spread m or block step p, in frames. Shifts only move clamped
# frame indices, so larger ones change nothing on any real clip.
MAX_SDC_SHIFT = 10_000

# Bound on psd_floor x (fft/2 + 1) with the noise floor on. A tracked bin
# never exceeds max(psd_floor, its periodograms) and mel weights are at most
# 1, so each band's weighted sum in `mfcc` then stays finite.
MAX_FLOOR_BAND_SUM = float(np.finfo(np.float64).max) / 2


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


def fft_size_for(frame_len: int) -> int:
    """FFT size for a frame: the next power of two at or above its length."""
    return 1 << (frame_len - 1).bit_length()


def power_spectrogram(frames: np.ndarray) -> np.ndarray:
    """(T, B) squared FFT magnitudes of a (T, frame_len) matrix of windowed
    frames (see `frame_signal`): bins 0..fft/2 of an `fft_size_for` FFT,
    B = fft/2 + 1."""
    if frames.shape[0] == 0:
        raise ValueError("no frames to transform")
    fft_size = fft_size_for(frames.shape[1])
    power = np.empty((frames.shape[0], fft_size // 2 + 1))
    _power_into(frames, fft_size, power)
    return power


def _power_into(frames: np.ndarray, fft_size: int, out: np.ndarray) -> None:
    spectrum = np.fft.rfft(frames, n=fft_size, axis=1)
    np.square(spectrum.real, out=out)
    out += spectrum.imag**2


def make_mel_bank(
    n_filters: int,
    fft_size: int,
    sample_rate: int,
    fmin_hz: float = 0.0,
    fmax_hz: float | None = None,
) -> np.ndarray:
    """(M, B) weights of M triangular filters over B FFT bins, with M+2
    vertices equally spaced in mel.

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
    return np.maximum(0.0, np.minimum(rising, falling))


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


def mfcc(spec: np.ndarray, bank: np.ndarray, n_ceps: int) -> np.ndarray:
    """(T, n_ceps) orthonormal DCT-II of log mel band powers of a (T, B) power
    spectrogram, coefficients 0..n_ceps-1.

    `bank` is the (M, B) weight array of `make_mel_bank`. Band powers are
    normalized by each filter's total weight so that a flat spectrum maps to
    a flat mel vector (all information about flat gain ends up in c0 only).
    c0 is kept and not normalized.
    """
    n_filters, n_bins = bank.shape
    if n_bins != spec.shape[1]:
        raise SceneidError(f"bank built for {n_bins} bins, spectrogram has {spec.shape[1]}")
    if n_ceps > n_filters:
        raise ValueError(f"n_ceps={n_ceps} exceeds n_filters={n_filters}")
    with np.errstate(over="ignore"):  # reported below as one error
        band_power = spec @ bank.T / bank.sum(axis=1)
    log_mel = np.log(band_power + MEL_LOG_FLOOR)
    if not np.isfinite(log_mel).all():
        raise ValueError("log mel band powers are not finite")
    ceps = scipy.fft.dct(log_mel, type=2, norm="ortho", axis=1)
    return np.ascontiguousarray(ceps[:, :n_ceps])


def append_sdc(rows: np.ndarray, cfg: SdcConfig) -> np.ndarray:
    """Concatenate 2k+1 shifted delta blocks to each static (T, D) row.

    The delta at frame u is c[0:n](u+m) - c[0:n](u-m); blocks are taken at
    offsets {-k*p .. -p, 0, p .. k*p} around the current frame and frame
    indices are clamped to the valid range, so edge frames are retained.
    """
    n_frames, dim = rows.shape
    if n_frames < 1:
        raise ValueError("feature matrix is empty")
    if cfg.n > dim:
        raise SceneidError(f"SDC needs {cfg.n} static coefficients, only {dim} present")

    t = np.arange(n_frames)
    blocks = []
    for j in range(-cfg.k, cfg.k + 1):
        base = t + j * cfg.p
        hi = np.clip(base + cfg.m, 0, n_frames - 1)
        lo = np.clip(base - cfg.m, 0, n_frames - 1)
        blocks.append(rows[hi, : cfg.n] - rows[lo, : cfg.n])
    return np.hstack([rows] + blocks)


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
        fft_size = self.fft_size()
        n_bins = fft_size // 2 + 1
        if self.n_mels * n_bins > MAX_MEL_BANK_ENTRIES:
            raise ValueError(
                f"a bank of {self.n_mels} mel filters over {n_bins} FFT bins "
                f"exceeds {MAX_MEL_BANK_ENTRIES} weights"
            )
        _check_mel_bank(self.n_mels, fft_size, self.sample_rate, self.fmin_hz, self.fmax_hz)
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
        if self.noise_floor is not None and (
            self.noise_floor.psd_floor * n_bins >= MAX_FLOOR_BAND_SUM
        ):
            raise ValueError(
                f"psd_floor={self.noise_floor.psd_floor} times {n_bins} FFT bins must stay "
                f"below {MAX_FLOOR_BAND_SUM:.4g}, or the mel band sums overflow"
            )

    def fft_size(self) -> int:
        return fft_size_for(self.frame.frame_len(self.sample_rate))

    def mel_bank(self) -> np.ndarray:
        """The (n_mels, fft/2 + 1) `make_mel_bank` weights of this config."""
        return make_mel_bank(
            self.n_mels, self.fft_size(), self.sample_rate, self.fmin_hz, self.fmax_hz
        )


def check_buffer(buf: AudioBuffer, config: FeatureConfig) -> int:
    """Frame count of one recording, checked before any of it is transformed:
    its rate is the configured one, it holds at least one frame and, with the
    noise floor on, more than the tracker's `init_frames`."""
    if buf.sample_rate != config.sample_rate:
        raise ValueError(
            f"buffer rate {buf.sample_rate} differs from configured {config.sample_rate}"
        )
    n_frames = frame_count(buf.samples.size, buf.sample_rate, config.frame)
    if config.noise_floor is not None:
        check_tracker_length(n_frames, config.noise_floor)
    return n_frames


def extract_features(buf: AudioBuffer, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Full front end: frame -> power spectrogram -> [noise floor] -> MFCC -> [SDC].

    Returns the (T, D) float64 feature rows."""
    (feats,) = extract_features_many([buf], config)
    return feats


def extract_features_many(bufs, config: FeatureConfig = FeatureConfig()) -> list[np.ndarray]:
    """`extract_features` for several recordings, in their order.

    Power spectra of recordings with the same frame count share one (N, T, B)
    stack, and the noise tracker runs over each stack in place, one step per
    frame for all of its recordings. Every recording is checked
    (`check_buffer`) before any is transformed, and each is framed only just
    before its row of the stack is filled, so one framed matrix is alive at a
    time. The output equals per-recording `extract_features` bit for bit.
    """
    bufs = list(bufs)
    by_length: dict[int, list[int]] = {}
    for i, buf in enumerate(bufs):
        by_length.setdefault(check_buffer(buf, config), []).append(i)

    fft_size = config.fft_size()
    bank = config.mel_bank()
    out: list = [None] * len(bufs)
    for n_frames, members in by_length.items():
        stack = np.empty((len(members), n_frames, fft_size // 2 + 1))
        for j, i in enumerate(members):
            _power_into(frame_signal(bufs[i], config.frame), fft_size, stack[j])
        if config.noise_floor is not None:
            track_noise_floor(stack, config.noise_floor)
        for j, i in enumerate(members):
            out[i] = cepstral_features(stack[j], bank, config)
    return out


def cepstral_features(spec: np.ndarray, bank: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """The (T, D) feature rows of one (T, B) spectrogram, raw or tracked:
    `mfcc` over `bank` (`config.mel_bank()`), then `append_sdc` when
    `config.sdc` is set."""
    rows = mfcc(spec, bank, config.n_ceps)
    return rows if config.sdc is None else append_sdc(rows, config.sdc)


def feature_csv(rows: np.ndarray) -> str:
    """Lossless CSV of a (T, D) array: a `frame,f0,...` header, then per row
    the frame index and the `repr` of each float64 value, which reads back to
    the same bits."""
    lines = ["frame," + ",".join(f"f{i}" for i in range(rows.shape[1]))]
    lines += [f"{t}," + ",".join(repr(float(v)) for v in row) for t, row in enumerate(rows)]
    return "\n".join(lines) + "\n"
