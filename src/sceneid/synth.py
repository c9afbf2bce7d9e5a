"""Synthetic corpus generator: colored-noise scenes and speech surrogates.

Lets the whole pipeline (including SBR mixing and sweeps) run end to end
without any external dataset. Scene classes are stationary noises with
distinct spectral envelopes; the speech surrogate alternates voiced
harmonic bursts and fricative-like hisses separated by digital silence, so
it has a well-defined active level, broadband energy, and exercises the
speech-presence gating of the noise tracker.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .audio import AudioBuffer, wav_bytes
from .manifest import CorpusManifest, ManifestEntry
from .pipeline import write_output


def _rumble(f, jit):
    return 1.0 / (1.0 + (f / (250.0 * jit[0])) ** 2)


def _midtone(f, jit):
    return np.exp(-(((f - 1200.0 * jit[0]) / 300.0) ** 2)) + 0.04


def _bright(f, jit):
    return (f / 8000.0) ** 1.5 * jit[0] + 0.015


def _dualband(f, jit):
    return (
        np.exp(-(((f - 600.0 * jit[0]) / 180.0) ** 2))
        + np.exp(-(((f - 4500.0 * jit[1]) / 600.0) ** 2))
        + 0.025
    )


# Longest clip `generate_corpus` makes, in samples: 17.5 min at 16 kHz, 43.7 s
# at 384 kHz. Each clip is built in float64 with a few full-length temporaries.
MAX_CLIP_SAMPLES = 1 << 24

SCENE_CLASSES = (
    ("rumble", _rumble),
    ("midtone", _midtone),
    ("bright", _bright),
    ("dualband", _dualband),
)


def scene_clip(class_index: int, n_samples: int, sample_rate: int, rng) -> np.ndarray:
    """Colored noise shaped by the class envelope, RMS around -26 dBFS."""
    _, envelope = SCENE_CLASSES[class_index % len(SCENE_CLASSES)]
    spectrum = np.fft.rfft(rng.standard_normal(n_samples))
    freqs = np.fft.rfftfreq(n_samples, 1.0 / sample_rate)
    spectrum *= envelope(freqs, rng.uniform(0.97, 1.03, size=2))
    x = np.fft.irfft(spectrum, n=n_samples)
    target_db = -26.0 + rng.uniform(-2.0, 2.0)
    x *= 10.0 ** (target_db / 20.0) / np.sqrt(np.mean(x**2))
    peak = np.max(np.abs(x))
    if peak > 0.99:
        x *= 0.99 / peak
    return x


def _voiced_burst(n: int, sample_rate: int, rng, f0: float) -> np.ndarray:
    """Harmonic stack with formant-like emphasis around 500 and 1500 Hz."""
    t = np.arange(n) / sample_rate
    out = np.zeros(n)
    for h in range(1, max(2, int(4000.0 // f0)) + 1):
        freq = h * f0
        amp = (1.0 / h**0.7) * (
            1.0
            + 2.0 * np.exp(-(((freq - 500.0) / 250.0) ** 2))
            + 1.0 * np.exp(-(((freq - 1500.0) / 400.0) ** 2))
        )
        out += amp * np.sin(2.0 * np.pi * freq * t + rng.uniform(0.0, 2.0 * np.pi))
    return out


def _unvoiced_burst(n: int, sample_rate: int, rng) -> np.ndarray:
    """Fricative-like hiss: noise shaped toward 2.5-6 kHz."""
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    spectrum *= np.exp(-(((freqs - 4000.0) / 1800.0) ** 2)) + 0.01
    return np.fft.irfft(spectrum, n=n)


def speech_clip(n_samples: int, sample_rate: int, rng, f0: float) -> np.ndarray:
    """Syllable-like bursts (voiced stacks and fricative hisses) with silent
    gaps; one fixed pitch per speaker. Has a well-defined active level and
    broadband energy so it genuinely disturbs scene features when dominant.
    """
    x = np.zeros(n_samples)
    ramp_len = int(0.010 * sample_rate)
    pos = 0
    while pos < n_samples:
        voiced = rng.uniform() < 0.7
        if voiced:
            burst_len = int(rng.uniform(0.15, 0.35) * sample_rate)
            burst = _voiced_burst(burst_len, sample_rate, rng, f0 * rng.uniform(0.96, 1.04))
        else:
            burst_len = int(rng.uniform(0.08, 0.18) * sample_rate)
            burst = _unvoiced_burst(burst_len, sample_rate, rng)
        burst = burst / np.sqrt(np.mean(burst**2))
        gap_len = int(rng.uniform(0.10, 0.25) * sample_rate)

        envelope = np.ones(burst_len)
        n_ramp = min(ramp_len, burst_len // 2)
        if n_ramp > 0:
            ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(n_ramp) / n_ramp))
            envelope[:n_ramp] = ramp
            envelope[-n_ramp:] = ramp[::-1]
        end = min(pos + burst_len, n_samples)
        x[pos:end] = (burst * envelope)[: end - pos]
        pos = end + gap_len
    active = np.abs(x) > 0
    x *= 10.0 ** (-26.0 / 20.0) / np.sqrt(np.mean(x[active] ** 2))
    peak = np.max(np.abs(x))
    if peak > 0.99:
        x *= 0.99 / peak
    return x


def _rng_for(seed: int, stream: int, item: int):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream, item)))


def generate_corpus(
    out_dir,
    n_classes: int = 4,
    train_per_class: int = 30,
    test_per_class: int = 20,
    clip_seconds: float = 10.0,
    sample_rate: int = 16000,
    n_speakers_train: int = 10,
    n_speakers_eval: int = 6,
    clips_per_speaker: int = 2,
    seed: int = 0,
) -> dict:
    """Write scene and speech WAVs plus manifests; returns the manifest paths.

    Speech speakers are split into disjoint train-mix and eval-mix pools so
    multi-condition training never reuses an evaluation speaker.
    """
    if not 1 <= n_classes <= len(SCENE_CLASSES):
        raise ValueError(f"need 1 to {len(SCENE_CLASSES)} scene classes, got {n_classes}")
    if min(train_per_class, test_per_class) < 0:
        raise ValueError("clips per class must not be negative")
    # 8 kHz keeps the speech surrogate's 4 kHz harmonics below Nyquist.
    if not 8000 <= sample_rate <= 384000:
        raise ValueError(f"sample rate must lie in [8000, 384000] Hz, got {sample_rate}")
    # Shorter clips end inside the first 10 ms onset ramp of a speech burst.
    if not (np.isfinite(clip_seconds) and clip_seconds >= 0.01):
        raise ValueError(f"clip length must be finite and at least 0.01 s, got {clip_seconds}")
    n_samples = int(round(clip_seconds * sample_rate))
    if n_samples > MAX_CLIP_SAMPLES:
        raise ValueError(f"a clip of {n_samples} samples exceeds {MAX_CLIP_SAMPLES}")
    out_dir = Path(out_dir)
    scenes_dir = out_dir / "scenes"
    speech_dir = out_dir / "speech"
    scenes_dir.mkdir(parents=True, exist_ok=True)
    speech_dir.mkdir(parents=True, exist_ok=True)

    train_entries, test_entries = [], []
    item = 0
    for class_index in range(n_classes):
        label = SCENE_CLASSES[class_index][0]
        for split, count, entries in (
            ("train", train_per_class, train_entries),
            ("test", test_per_class, test_entries),
        ):
            for i in range(count):
                rng = _rng_for(seed, 0, item)
                item += 1
                name = f"{split}_{label}_{i:03d}.wav"
                write_output(scenes_dir / name, wav_bytes(AudioBuffer(
                    scene_clip(class_index, n_samples, sample_rate, rng), sample_rate)))
                entries.append(ManifestEntry(path=f"scenes/{name}", label=label))

    def make_pool(prefix: str, n_speakers: int, stream: int) -> list[ManifestEntry]:
        entries = []
        for s in range(n_speakers):
            speaker = f"{prefix}{s:02d}"
            f0 = float(_rng_for(seed, stream, s).uniform(110.0, 260.0))
            for j in range(clips_per_speaker):
                rng = _rng_for(seed, stream + 1, s * clips_per_speaker + j)
                name = f"{speaker}_{j}.wav"
                write_output(speech_dir / name, wav_bytes(AudioBuffer(
                    speech_clip(n_samples, sample_rate, rng, f0), sample_rate)))
                entries.append(
                    ManifestEntry(path=f"speech/{name}", label="speech", speaker_id=speaker)
                )
        return entries

    pool_train = make_pool("trnspk", n_speakers_train, 10)
    pool_eval = make_pool("evlspk", n_speakers_eval, 20)

    paths = {
        "train": out_dir / "train.jsonl",
        "test": out_dir / "test.jsonl",
        "speech_train": out_dir / "speech_train.jsonl",
        "speech_eval": out_dir / "speech_eval.jsonl",
    }
    for path, entries in zip(paths.values(), (train_entries, test_entries, pool_train, pool_eval)):
        write_output(path, CorpusManifest(entries).to_bytes())
    return paths
