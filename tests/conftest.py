import struct

import numpy as np
import pytest

from sceneid.audio import AudioBuffer


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
