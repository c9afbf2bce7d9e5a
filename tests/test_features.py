import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneid.audio import AudioBuffer, frame_signal
from sceneid.errors import SceneidError
from sceneid.features import (
    FeatureConfig,
    SdcConfig,
    _check_mel_bank,
    append_sdc,
    extract_features,
    extract_features_many,
    feature_csv,
    make_mel_bank,
    mfcc,
    power_spectrogram,
)
from sceneid.noisefloor import SppParams

from conftest import update_loop


def oracle_log_mel_dct(spec_frames, weights, n_ceps):
    """Independently coded log-mel-DCT: explicit per-filter normalization and
    a hand-built orthonormal DCT-II cosine basis."""
    n_frames = spec_frames.shape[0]
    n_filters = weights.shape[0]
    out = np.empty((n_frames, n_ceps))
    row_sums = np.array([float(np.sum(weights[m])) for m in range(n_filters)])
    for t in range(n_frames):
        mels = np.array(
            [float(weights[m] @ spec_frames[t]) / row_sums[m] for m in range(n_filters)]
        )
        logm = np.log(mels + 1e-10)
        for k in range(n_ceps):
            basis = np.cos(np.pi * k * (2.0 * np.arange(n_filters) + 1.0) / (2.0 * n_filters))
            scale = np.sqrt(1.0 / n_filters) if k == 0 else np.sqrt(2.0 / n_filters)
            out[t, k] = scale * float(basis @ logm)
    return out


def spectrogram_from(frames_data):
    return power_spectrogram(np.asarray(frames_data, float))


class TestPowerSpectrogram:
    def test_zero_signal(self):
        spec = spectrogram_from(np.zeros((3, 640)))
        assert spec.shape == (3, 513)
        assert np.all(spec == 0.0)

    def test_on_bin_cosine(self):
        n = 1024
        frame = np.cos(2 * np.pi * 10 * np.arange(n) / n)
        spec = spectrogram_from(frame[None, :])
        power = spec[0]
        assert power[10] == pytest.approx((n / 2) ** 2, rel=1e-10)
        others = np.delete(power, 10)
        assert others.max() < 1e-6 * power[10]

    def test_parseval(self, rng):
        # frame length 1024 = fft size, so the two-sided energy identity is
        # sum_bins = frame_len * sum(x^2)
        frames = rng.standard_normal((7, 1024))
        spec = spectrogram_from(frames)
        two_sided = spec[:, 0] + spec[:, -1] + 2 * spec[:, 1:-1].sum(axis=1)
        expected = 1024 * (frames**2).sum(axis=1)
        np.testing.assert_allclose(two_sided, expected, rtol=1e-6)

    def test_zero_padding_to_next_pow2(self):
        spec = spectrogram_from(np.ones((2, 640)))
        assert spec.shape[1] == 1024 // 2 + 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            spectrogram_from(np.zeros((0, 640)))


class TestMelBank:
    def test_shape_and_centers_ascending(self):
        bank = make_mel_bank(40, 1024, 16000, 0.0, 8000.0)
        assert bank.shape == (40, 513)
        vertices, _ = _check_mel_bank(40, 1024, 16000, 0.0, 8000.0)
        assert np.all(np.diff(vertices[1:-1]) > 0)  # the filter centres

    def test_unit_peak_triangles(self):
        bank = make_mel_bank(40, 1024, 16000)
        peaks = bank.max(axis=1)
        assert np.all(peaks > 0.5)
        assert np.all(peaks <= 1.0 + 1e-12)
        assert np.all(bank >= 0.0)

    def test_interior_coverage(self):
        bank = make_mel_bank(40, 1024, 16000, 0.0, 8000.0)
        bin_freqs = np.arange(513) * 16000 / 1024
        interior = (bin_freqs > 0.0) & (bin_freqs < 8000.0)
        sums = bank.sum(axis=0)[interior]
        assert np.all(sums > 0.0)
        assert np.all(sums <= 1.0001)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            make_mel_bank(40, 1024, 16000, 4000.0, 4000.0)
        with pytest.raises(ValueError):
            make_mel_bank(40, 1024, 16000, 0.0, 9000.0)

    def test_more_filters_than_bins_rejected_before_building(self):
        # The count check comes before any array of n_filters rows is made.
        with pytest.raises(ValueError, match="513"):
            make_mel_bank(10**12, 1024, 16000)

    def test_empty_filter_rejected(self):
        # 400 filters over 513 bins: the narrow low filters fall between bins,
        # and their zero row sums would make NaN band powers.
        with pytest.raises(ValueError, match="empty"):
            make_mel_bank(400, 1024, 16000)


class TestMfcc:
    def test_constant_spectrum(self):
        spec = np.full((4, 513), 2.0)
        bank = make_mel_bank(40, 1024, 16000)
        feats = mfcc(spec, bank, 21)
        assert abs(feats[0, 0]) > 0.1  # c0 carries the level
        assert np.max(np.abs(feats[:, 1:])) < 1e-9

    def test_matches_naive_oracle(self, rng):
        bank = make_mel_bank(40, 1024, 16000)
        for _ in range(5):
            frames = rng.uniform(0.0, 4.0, size=(6, 513))
            got = mfcc(frames, bank, 21)
            want = oracle_log_mel_dct(frames, bank, 21)
            np.testing.assert_allclose(got, want, atol=1e-8)

    def test_output_dim(self, rng):
        spec = rng.uniform(0, 1, (3, 513))
        bank = make_mel_bank(40, 1024, 16000)
        assert mfcc(spec, bank, 21).shape[1] == 21

    def test_dimension_mismatch(self, rng):
        spec = rng.uniform(0, 1, (3, 257))
        bank = make_mel_bank(40, 1024, 16000)
        with pytest.raises(SceneidError, match="bank built for 513 bins, spectrogram has 257"):
            mfcc(spec, bank, 21)

    def test_gain_moves_only_c0(self, rng):
        bank = make_mel_bank(40, 1024, 16000)
        frames = rng.uniform(0.1, 2.0, size=(5, 513))
        gain = 7.5
        base = mfcc(frames, bank, 21)
        scaled = mfcc(gain * frames, bank, 21)
        np.testing.assert_allclose(scaled[:, 1:], base[:, 1:], atol=1e-8)
        np.testing.assert_allclose(
            scaled[:, 0] - base[:, 0], np.sqrt(40.0) * np.log(gain), atol=1e-6
        )


    def test_overflowing_band_power_rejected(self):
        bank = make_mel_bank(40, 1024, 16000)
        spec = np.full((3, 513), 1e307)
        with pytest.raises(ValueError, match="not finite"):
            mfcc(spec, bank, 21)


class TestSdc:
    def test_appended_dims(self, rng):
        feats = rng.standard_normal((50, 21))
        out = append_sdc(feats, SdcConfig(2, 2, 11, 3))
        assert out.shape[1] == 21 + 55

    def test_constant_sequence_zero_deltas(self):
        feats = np.tile(np.arange(21.0), (30, 1))
        out = append_sdc(feats, SdcConfig(2, 2, 11, 3))
        assert np.all(out[:, 21:] == 0.0)

    def test_linear_ramp_interior(self, rng):
        v = rng.standard_normal(21)
        t = np.arange(40.0)
        feats = t[:, None] * v
        cfg = SdcConfig(2, 2, 11, 3)
        out = append_sdc(feats, cfg)
        # interior frame: every delta block is 2*m*v[:n]
        frame = 20
        expected = np.tile(2 * cfg.m * v[: cfg.n], 2 * cfg.k + 1)
        np.testing.assert_allclose(out[frame, 21:], expected, atol=1e-10)

    def test_n_exceeding_static_dim(self, rng):
        feats = rng.standard_normal((10, 5))
        with pytest.raises(SceneidError, match="SDC needs 11 static coefficients, only 5 present"):
            append_sdc(feats, SdcConfig(2, 2, 11, 3))

    @settings(deadline=None, max_examples=30)
    @given(
        k=st.integers(min_value=1, max_value=3),
        n=st.integers(min_value=1, max_value=8),
        m=st.integers(min_value=1, max_value=4),
        p=st.integers(min_value=1, max_value=4),
        frames=st.integers(min_value=1, max_value=40),
    )
    def test_dim_formula(self, k, n, m, p, frames):
        feats = np.zeros((frames, 8))
        out = append_sdc(feats, SdcConfig(m, k, n, p))
        assert out.shape[1] == 8 + (2 * k + 1) * n


class TestExtractFeatures:
    def test_composition_identity(self, rng):
        buf = AudioBuffer(0.1 * rng.standard_normal(16000), 16000)
        cfg = FeatureConfig()
        auto = extract_features(buf, cfg)
        spec = power_spectrogram(frame_signal(buf, cfg.frame))
        bank = make_mel_bank(40, 1024, 16000)
        manual = append_sdc(mfcc(spec, bank, 21), cfg.sdc)
        assert np.array_equal(auto, manual)

    def test_row_count_30s(self):
        buf = AudioBuffer(np.zeros(30 * 16000), 16000)
        feats = extract_features(buf, FeatureConfig())
        assert feats.shape[0] == 1499
        assert feats.shape[1] == 76

    def test_deterministic(self, rng):
        x = 0.2 * rng.standard_normal(16000)
        a = extract_features(AudioBuffer(x, 16000), FeatureConfig())
        b = extract_features(AudioBuffer(x.copy(), 16000), FeatureConfig())
        assert np.array_equal(a, b)

    def test_finite_on_silence(self):
        feats = extract_features(AudioBuffer(np.zeros(16000), 16000), FeatureConfig())
        assert np.all(np.isfinite(feats))

    def test_noise_floor_features_much_smoother(self):
        # Tracked-floor features vary far less frame to frame than raw
        # features once the tracker has settled (2 s in). Uses the cited
        # tracker's published prior SNR.
        rng = np.random.default_rng(0)
        buf = AudioBuffer(np.clip(0.1 * rng.standard_normal(5 * 16000), -1, 1), 16000)
        nf = extract_features(buf, FeatureConfig(noise_floor=SppParams(xi_h1_db=15.0)))
        raw = extract_features(buf, FeatureConfig())
        d_nf = np.linalg.norm(np.diff(nf, axis=0), axis=1)
        d_raw = np.linalg.norm(np.diff(raw, axis=0), axis=1)
        settled = int(2.0 / 0.020)
        assert d_nf[settled:].mean() < 0.1 * d_raw[settled:].mean()

    def test_without_sdc_rows_are_static_mfccs(self, rng):
        buf = AudioBuffer(0.1 * rng.standard_normal(16000), 16000)
        feats = extract_features(buf, FeatureConfig(sdc=None))
        assert feats.shape[1] == 21
        assert np.array_equal(feats, extract_features(buf, FeatureConfig())[:, :21])

    def test_rate_mismatch_rejected(self):
        buf = AudioBuffer(np.zeros(8000), 8000)
        with pytest.raises(ValueError, match="rate"):
            extract_features(buf, FeatureConfig(sample_rate=16000))


class TestExtractFeaturesMany:
    # Three frame counts: 149, 99 and 49 frames at 16 kHz.
    LENGTHS = (48000, 32000, 48000, 16000, 32000)

    @pytest.mark.parametrize("noise_floor", [False, True])
    def test_ragged_batch_matches_reference(self, rng, noise_floor):
        cfg = FeatureConfig(noise_floor=SppParams() if noise_floor else None)
        bufs = [AudioBuffer(0.1 * rng.standard_normal(n), 16000) for n in self.LENGTHS]
        ids = [f"clip{i}" for i in range(len(bufs))]
        got = extract_features_many(bufs, cfg, recording_ids=ids)
        bank = make_mel_bank(40, 1024, 16000)
        for buf, feats in zip(bufs, got):
            spec = power_spectrogram(frame_signal(buf, cfg.frame))
            if noise_floor:
                spec = update_loop(spec)
            manual = append_sdc(mfcc(spec, bank, 21), cfg.sdc)
            assert np.array_equal(feats, manual)

    def test_error_names_the_failing_recording(self):
        bufs = [AudioBuffer(np.zeros(16000), 16000), AudioBuffer(np.zeros(100), 16000)]
        with pytest.raises(ValueError, match="^short: .*shorter than one"):
            extract_features_many(bufs, FeatureConfig(), recording_ids=["ok", "short"])

    def test_empty_and_mismatched_ids(self):
        assert extract_features_many([], FeatureConfig()) == []
        with pytest.raises(ValueError, match="recording ids"):
            extract_features_many([AudioBuffer(np.zeros(16000), 16000)], recording_ids=[])


class TestContainer:
    def test_csv_export(self, tmp_path, rng):
        feats = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "f.csv"
        path.write_text(feature_csv(feats))
        lines = path.read_text().splitlines()
        assert lines[0] == "frame,f0,f1"
        assert lines[1].startswith("0,1.0,2.0")
        # Lossless: values from 1e-300 to 1e300 read back bit for bit.
        rows = rng.standard_normal((7, 5)) * np.logspace(-300, 300, 5)
        path.write_text(feature_csv(rows))
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 0], np.arange(7))
        assert np.array_equal(back[:, 1:], rows)
