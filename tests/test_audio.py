import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import firwin, get_window, resample_poly

from sceneid import audio
from sceneid.audio import (
    MAX_FILTER_TAPS,
    WINDOW_NAMES,
    AudioBuffer,
    FrameConfig,
    frame_count,
    frame_signal,
    read_wav,
    resample,
    wav_bytes,
    window_values,
)
from sceneid.errors import SceneidError

from conftest import make_wav_bytes, pcm16_wav_bytes, tone


# Payloads of every supported sample format, as (payload, format tag, bits,
# channels), cut and mutated by the fuzz test.
FUZZ_BASES = {
    "pcm16": (np.arange(-20, 20, dtype="<i2").tobytes(), 1, 16, 1),
    "pcm16-stereo": (np.arange(-20, 20, dtype="<i2").tobytes(), 1, 16, 2),
    "pcm24": (bytes(range(60)), 1, 24, 1),
    "pcm32": (np.arange(-10, 10, dtype="<i4").tobytes(), 1, 32, 1),
    "float32": (np.linspace(-1, 1, 20).astype("<f4").tobytes(), 3, 32, 1),
}


class TestReadWav:
    def test_silence_16bit_mono(self, tmp_path):
        path = tmp_path / "silence.wav"
        path.write_bytes(pcm16_wav_bytes(np.zeros(16000, dtype=np.int16)))
        buf = read_wav(path)
        assert buf.sample_rate == 16000
        assert buf.samples.size == 16000
        assert np.all(buf.samples == 0.0)

    def test_16bit_scaling(self, tmp_path):
        path = tmp_path / "half.wav"
        path.write_bytes(pcm16_wav_bytes([16384, -16384, 32767, -32768]))
        buf = read_wav(path)
        assert buf.samples[0] == pytest.approx(0.5, abs=1 / 32768)
        assert buf.samples[1] == pytest.approx(-0.5, abs=1 / 32768)
        assert buf.samples[2] == pytest.approx(32767 / 32768)
        assert buf.samples[3] == -1.0

    def test_24bit_scaling(self, tmp_path):
        payload = b"\x00\x00\x40" + b"\x00\x00\xc0"  # +2^22, -2^22 (sign-extended)
        path = tmp_path / "w24.wav"
        path.write_bytes(make_wav_bytes(payload, bits=24))
        buf = read_wav(path)
        assert buf.samples[0] == pytest.approx(0.5)
        assert buf.samples[1] == pytest.approx(-0.5)

    def test_32bit_int(self, tmp_path):
        payload = np.array([2**30, -(2**30)], dtype="<i4").tobytes()
        path = tmp_path / "w32.wav"
        path.write_bytes(make_wav_bytes(payload, bits=32))
        buf = read_wav(path)
        np.testing.assert_allclose(buf.samples, [0.5, -0.5])

    def test_float32(self, tmp_path):
        payload = np.array([0.25, -0.75], dtype="<f4").tobytes()
        path = tmp_path / "f32.wav"
        path.write_bytes(make_wav_bytes(payload, format_tag=3, bits=32))
        buf = read_wav(path)
        np.testing.assert_allclose(buf.samples, [0.25, -0.75])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_float32_non_finite_rejected_naming_file(self, tmp_path, bad):
        payload = np.array([0.25, bad, -0.75], dtype="<f4").tobytes()
        path = tmp_path / "nonfinite.wav"
        path.write_bytes(make_wav_bytes(payload, format_tag=3, bits=32))
        # read_wav leaves naming the file to its caller (see test_cli.py).
        with pytest.raises(SceneidError, match="non-finite"):
            read_wav(path)

    def test_stereo_interleaved(self, tmp_path):
        # Interleaved L/R sample pairs come back as one mono sample each.
        path = tmp_path / "st.wav"
        path.write_bytes(pcm16_wav_bytes([100, 300, 200, -200], channels=2))
        buf = read_wav(path)
        assert np.array_equal(buf.samples, [200 / 32768, 0.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "nope.wav")

    def test_corrupt_riff_magic(self, tmp_path):
        data = bytearray(pcm16_wav_bytes([0] * 10))
        data[0:4] = b"\x00\x00\x00\x00"
        path = tmp_path / "bad.wav"
        path.write_bytes(bytes(data))
        with pytest.raises(SceneidError, match="not a RIFF/WAVE file"):
            read_wav(path)

    def test_truncated_data_chunk(self, tmp_path):
        data = pcm16_wav_bytes([1] * 100)
        path = tmp_path / "trunc.wav"
        path.write_bytes(data[:-50])
        with pytest.raises(SceneidError, match="data chunk truncated"):
            read_wav(path)

    def test_non_pcm_codec(self, tmp_path):
        path = tmp_path / "alaw.wav"
        path.write_bytes(make_wav_bytes(b"\x00" * 32, format_tag=6, bits=8))
        with pytest.raises(SceneidError, match="non-PCM codec"):
            read_wav(path)

    def test_unsupported_width(self, tmp_path):
        path = tmp_path / "w8.wav"
        path.write_bytes(make_wav_bytes(b"\x00" * 32, format_tag=1, bits=8))
        with pytest.raises(SceneidError, match="unsupported PCM width 8 bits"):
            read_wav(path)

    @pytest.mark.parametrize(
        "payload, format_tag, bits",
        [(b"\x01\x00\x02", 1, 16), (b"\x00" * 6, 1, 32), (b"\x00" * 7, 3, 32)],
        ids=["16-bit-odd", "32-bit-int", "float32"],
    )
    def test_payload_not_whole_samples_rejected_naming_file(
        self, tmp_path, payload, format_tag, bits
    ):
        path = tmp_path / "ragged.wav"
        path.write_bytes(make_wav_bytes(payload, format_tag=format_tag, bits=bits))
        with pytest.raises(SceneidError, match=rf"{bits}-bit payload not a multiple"):
            read_wav(path)

    @settings(deadline=None, max_examples=300)
    @given(
        base=st.sampled_from(sorted(FUZZ_BASES)),
        payload_len=st.integers(min_value=0, max_value=80),
        edits=st.lists(
            st.tuples(st.integers(min_value=0, max_value=200), st.integers(0, 255)), max_size=4
        ),
        keep=st.one_of(st.none(), st.integers(min_value=0, max_value=200)),
    )
    def test_mutated_or_truncated_file_raises_only_wav_errors(
        self, tmp_path_factory, base, payload_len, edits, keep
    ):
        # A well-formed header over a payload cut to any length, then byte
        # edits anywhere and a cut of the file itself.
        payload, format_tag, bits, channels = FUZZ_BASES[base]
        data = bytearray(
            make_wav_bytes(payload[:payload_len], format_tag=format_tag, channels=channels,
                           bits=bits)
        )
        for pos, value in edits:
            data[pos % len(data)] = value
        if keep is not None:
            data = data[:keep]
        path = tmp_path_factory.mktemp("fuzz") / "mutated.wav"
        path.write_bytes(bytes(data))
        try:
            buf = read_wav(path)
        except SceneidError:
            return
        assert isinstance(buf, AudioBuffer)
        assert buf.samples.ndim == 1

    def test_roundtrip_16bit_exact(self, tmp_path, rng):
        values = rng.integers(-32768, 32768, size=4000).astype(np.int16)
        src = tmp_path / "src.wav"
        src.write_bytes(pcm16_wav_bytes(values))
        buf = read_wav(src)
        dst = tmp_path / "dst.wav"
        dst.write_bytes(wav_bytes(buf))
        again = read_wav(dst)
        assert np.array_equal(buf.samples, again.samples)

    def test_write_rejects_clipping(self):
        buf = AudioBuffer(np.array([0.0, 1.5]), 16000)
        with pytest.raises(ValueError, match="full scale"):
            wav_bytes(buf)


class TestDownmix:
    """`read_wav` averages a multichannel file's channels as it decodes."""

    def test_symmetric_stereo_cancels(self, tmp_path):
        path = tmp_path / "st.wav"
        path.write_bytes(pcm16_wav_bytes([16384, -16384] * 100, channels=2))
        out = read_wav(path)
        assert np.all(out.samples == 0.0)
        assert out.samples.size == 100

    def test_mean_of_channels(self, tmp_path):
        path = tmp_path / "st.wav"
        path.write_bytes(pcm16_wav_bytes([16384, 0] * 50, channels=2))
        out = read_wav(path)
        assert np.all(out.samples == 0.25)

    @pytest.mark.parametrize(
        "format_tag, bits, channels",
        [(1, 16, 2), (1, 24, 2), (1, 32, 2), (3, 32, 2), (1, 16, 3)],
        ids=["pcm16", "pcm24", "pcm32", "float32", "pcm16-3ch"],
    )
    def test_frame_wise_channel_mean(self, tmp_path, rng, format_tag, bits, channels):
        # The same payload read as one channel gives the interleaved samples.
        n = 12 * channels
        if format_tag == 3:
            payload = rng.uniform(-1, 1, n).astype("<f4").tobytes()
        else:
            payload = rng.integers(0, 256, n * bits // 8, dtype=np.uint8).tobytes()
        interleaved_path, multi_path = tmp_path / "interleaved.wav", tmp_path / "multi.wav"
        interleaved_path.write_bytes(make_wav_bytes(payload, format_tag=format_tag, bits=bits))
        multi_path.write_bytes(
            make_wav_bytes(payload, format_tag=format_tag, channels=channels, bits=bits)
        )
        interleaved = read_wav(interleaved_path).samples
        assert interleaved.size == n
        got = read_wav(multi_path).samples
        assert np.array_equal(got, interleaved.reshape(-1, channels).mean(axis=1))


def scipy_resample(x, source_rate, target_rate):
    """`resample` as scipy.signal computes it: the oracle whose bits the
    package's resampler must reproduce."""
    g = math.gcd(source_rate, target_rate)
    up, down = target_rate // g, source_rate // g
    h = firwin(20 * max(up, down) + 1, 0.45 * min(source_rate, target_rate),
               fs=source_rate * up, window=("kaiser", 8.0))
    out_len = int(math.floor(x.size * target_rate / source_rate + 0.5))
    return resample_poly(x, up, down, window=h)[:out_len]


class TestResample:
    @pytest.mark.parametrize("source_rate, target_rate", [
        (8000, 16000), (11025, 16000), (22050, 16000), (24000, 16000), (32000, 16000),
        (44100, 16000), (48000, 16000), (96000, 16000), (16000, 8000),
        (16001, 16000),  # coprime rates: a 320,021-tap filter, under the limit
    ])
    @pytest.mark.parametrize("length", [0, 1, 2, 4801, "1s"])
    def test_bits_match_scipy_resample_poly(self, rng, source_rate, target_rate, length):
        n = source_rate if length == "1s" else length
        x = rng.uniform(-1.0, 1.0, n)
        got = resample(AudioBuffer(x, source_rate), target_rate).samples
        assert got.tobytes() == scipy_resample(x, source_rate, target_rate).tobytes()

    def test_bits_match_scipy_on_a_long_clip(self, rng):
        # 30 s at 44.1 kHz: many products with the rate pair's matrix.
        x = rng.uniform(-1.0, 1.0, 30 * 44100)
        got = resample(AudioBuffer(x, 44100), 16000).samples
        assert got.tobytes() == scipy_resample(x, 44100, 16000).tobytes()

    def test_filter_designed_once_per_rate_pair(self):
        resample(AudioBuffer(np.zeros(4410), 44100), 16000)
        cached = audio._polyphase_matrix(44100, 16000)
        resample(AudioBuffer(np.ones(4410), 44100), 16000)
        assert audio._polyphase_matrix(44100, 16000) is cached
        matrix = cached[1]
        for arr in (matrix.data, matrix.indices, matrix.indptr):
            assert not arr.flags.writeable

    def test_large_down_factor_resamples_in_bounded_memory(self, rng):
        # 1,024,000,000 Hz to 16 kHz: up = 1, down = 64000, a 1,280,001-tap
        # filter, under the limit. 32,000 samples make one output. Peak
        # memory stays within a dozen copies of the filter's 10 MB: it must
        # not grow with `down` times a block of outputs (8 GB here).
        x = rng.uniform(-1.0, 1.0, 32000)
        tracemalloc.start()
        try:
            got = resample(AudioBuffer(x, 1_024_000_000), 16000).samples
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == scipy_resample(x, 1_024_000_000, 16000).tobytes()
        assert peak < 12 * 8 * 1_280_001

    def test_no_filter_designed_for_an_empty_output(self):
        # 3,200,000,000 Hz to 16 kHz needs a 4,000,001-tap filter, under the
        # limit, which would build a 50 MB matrix; 32,000 samples make no output.
        x = np.zeros(32000)
        misses = audio._polyphase_matrix.cache_info().misses
        tracemalloc.start()
        try:
            got = resample(AudioBuffer(x, 3_200_000_000), 16000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.samples.size == 0 and got.sample_rate == 16000
        assert audio._polyphase_matrix.cache_info().misses == misses
        assert peak < 1 << 20

    @pytest.mark.parametrize("source_rate", [4294967295, 209717])
    def test_oversized_filter_rejected_naming_both_rates(self, source_rate):
        # 209717 Hz is coprime to 16 kHz: 20 * 209717 + 1 taps, just over the
        # limit. A header rate near 2^32 Hz would need 1.7e10 taps (128 GiB).
        assert 20 * 209717 + 1 > MAX_FILTER_TAPS
        with pytest.raises(ValueError, match=f"{source_rate} Hz to 16000 Hz"):
            resample(AudioBuffer(np.zeros(10), source_rate), 16000)

    def test_length_arithmetic(self):
        # 48001 samples at 48 kHz: 16000.33 output samples round down to 16000.
        for n, rate in ((44100, 44100), (48001, 48000)):
            out = resample(AudioBuffer(np.zeros(n), rate), 16000)
            assert out.sample_rate == 16000
            assert out.samples.size == 16000

    def test_dc_preserved(self):
        buf = AudioBuffer(np.full(44100, 0.3), 44100)
        out = resample(buf, 16000)
        interior = out.samples[200:-200]
        np.testing.assert_allclose(interior, 0.3, atol=1e-3)

    def test_sine_oracle(self):
        # 1 kHz analytic sine through 44.1k -> 16k must land on the 16k sine.
        src = tone(1000.0, 1.0, 44100)
        out = resample(src, 16000)
        k = np.arange(out.samples.size)
        expected = np.sin(2 * np.pi * 1000.0 * k / 16000)
        err = np.abs(out.samples - expected)[300:-300]
        assert err.max() < 1e-2

    def test_roundtrip_rms(self):
        rate = 16000
        t = np.arange(rate * 2) / rate
        x = 0.4 * np.sin(2 * np.pi * 440 * t) + 0.3 * np.sin(2 * np.pi * 2000 * t + 0.7)
        down = resample(AudioBuffer(x, rate), 8000)
        back = resample(down, rate)
        trim = 500
        err = back.samples[trim:-trim] - x[trim:-trim]
        assert np.sqrt(np.mean(err**2)) < 1e-2

    def test_bad_target_rate(self):
        buf = AudioBuffer(np.zeros(100), 16000)
        with pytest.raises(ValueError):
            resample(buf, 0)
        with pytest.raises(ValueError):
            resample(buf, -8000)

    def test_same_rate_copy(self):
        buf = AudioBuffer(np.arange(10, dtype=float) / 10, 16000)
        out = resample(buf, 16000)
        assert np.array_equal(out.samples, buf.samples)


class TestFrameSignal:
    def test_frame_count_example(self):
        buf = AudioBuffer(np.zeros(16000), 16000)
        frames = frame_signal(buf, FrameConfig(40.0, 0.5, "hann"))
        assert frames.shape == (49, 640)

    def test_rect_constant_passthrough(self):
        buf = AudioBuffer(np.ones(2000), 16000)
        frames = frame_signal(buf, FrameConfig(40.0, 0.5, "rect"))
        assert np.all(frames == 1.0)

    @pytest.mark.parametrize("rate", [16000, 44100, 48000])
    def test_frame_count_is_frame_signal_row_count(self, rate):
        cfg = FrameConfig(40.0, 0.5, "hann")
        flen, hop = cfg.frame_len(rate), cfg.hop(rate)
        with pytest.raises(ValueError) as want:
            frame_signal(AudioBuffer(np.zeros(flen - 1), rate), cfg)
        with pytest.raises(ValueError) as got:
            frame_count(flen - 1, rate, cfg)
        assert str(got.value) == str(want.value)
        for n, rows in ((flen, 1), (flen + hop - 1, 1), (flen + hop, 2)):
            frames = frame_signal(AudioBuffer(np.zeros(n), rate), cfg)
            assert frame_count(n, rate, cfg) == len(frames) == rows

    def test_too_short_buffer(self):
        buf = AudioBuffer(np.zeros(100), 16000)
        with pytest.raises(ValueError, match="shorter"):
            frame_signal(buf, FrameConfig(40.0, 0.5))

    def test_window_applied(self):
        buf = AudioBuffer(np.ones(640), 16000)
        frames = frame_signal(buf, FrameConfig(40.0, 0.5, "hann"))
        assert frames.shape == (1, 640)
        assert frames[0, 0] == pytest.approx(0.0)
        assert frames[0].max() == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("name", WINDOW_NAMES)
    @pytest.mark.parametrize("n", [1, 2, 7, 441, 640, 1024, 1920])
    def test_cached_window_is_read_only_and_exact(self, name, n):
        win = window_values(name, n)
        assert win.tobytes() == get_window(name, n, fftbins=True).tobytes()
        assert window_values(name, n) is win  # built once per (name, length)
        assert not win.flags.writeable
        with pytest.raises(ValueError):
            win[0] = 1.0

    def test_non_integer_frame_length_rejected(self):
        assert FrameConfig(40.0, 0.5).frame_len(11025) == 441  # exact
        with pytest.raises(ValueError, match="integer"):
            FrameConfig(40.0, 0.5).frame_len(11026)  # 441.04 samples

    @settings(deadline=None, max_examples=60)
    @given(
        extra=st.integers(min_value=0, max_value=5000),
        overlap_idx=st.integers(min_value=0, max_value=3),
    )
    def test_frame_count_formula(self, extra, overlap_idx):
        overlap = [0.0, 0.25, 0.5, 0.75][overlap_idx]
        cfg = FrameConfig(40.0, overlap, "rect")
        rate = 16000
        flen = cfg.frame_len(rate)
        hop = cfg.hop(rate)
        total = flen + extra
        frames = frame_signal(AudioBuffer(np.zeros(total), rate), cfg)
        assert frames.shape[0] == (total - flen) // hop + 1
