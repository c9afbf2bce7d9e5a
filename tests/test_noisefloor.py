import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sceneid.audio import AudioBuffer, FrameConfig, frame_signal, window_values
from sceneid.features import power_spectrogram
from sceneid.noisefloor import (
    NoiseFloorError,
    SppParams,
    noise_floor_spectrogram,
    track_noise_floor,
)

from conftest import (
    init_state,
    noise_periodogram_estimate,
    speech_presence_prob,
    update,
    update_loop,
)

CITED = SppParams(xi_h1_db=15.0)  # published configuration of the cited tracker
OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def tracker_cases(draw):
    """Any valid SppParams with init_frames up to 8, and an (N, T, B) stack
    shape with at least one tracked frame."""
    params = draw(st.builds(
        SppParams,
        xi_h1_db=st.floats(-3000.0, 3000.0),
        prior_h1=OPEN_UNIT,
        spp_smooth=OPEN_UNIT,
        psd_smooth=OPEN_UNIT,
        spp_clamp=OPEN_UNIT,
        psd_floor=st.floats(0.0, 1e300, exclude_min=True),
        init_frames=st.integers(1, 8),
    ))
    shape = (
        draw(st.integers(1, 4)),
        draw(st.integers(params.init_frames + 1, 40)),
        draw(st.integers(1, 17)),
    )
    return params, shape


class TestInitState:
    """The tracker's seed: its first init_frames rows of output."""

    def test_mean_of_constants(self):
        stack = np.full((2, 8, 4), 2.0)
        track_noise_floor(stack)
        np.testing.assert_array_equal(stack[:, :5], 2.0)

    def test_zero_frames_floored(self):
        stack = np.zeros((1, 6, 4))
        stack[0, 5] = 1.0  # the tracked frame; the seed rows stay zero
        track_noise_floor(stack)
        np.testing.assert_array_equal(stack[0, :5], 1e-12)

    def test_single_frame(self):
        rows = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        stack = rows[None].copy()
        track_noise_floor(stack, SppParams(init_frames=1))
        np.testing.assert_array_equal(stack[0, 0], rows[0])

    def test_empty_rejected(self):
        with pytest.raises(NoiseFloorError, match="empty"):
            track_noise_floor(np.zeros((1, 6, 0)))

    def test_init_frames_below_one_rejected(self):
        with pytest.raises(ValueError, match="init_frames"):
            SppParams(init_frames=0)


class TestSpeechPresenceProb:
    def test_zero_observation(self):
        # P(H1 | X=0) = 1 / (1 + (1+xi)) for q = 0.5
        xi = 10**1.5
        p = speech_presence_prob(np.zeros(4), np.ones(4), CITED)
        np.testing.assert_allclose(p, 1.0 / (1.0 + (1.0 + xi)), rtol=1e-12)
        assert p[0] == pytest.approx(0.02975, abs=5e-5)

    def test_saturation(self):
        p = speech_presence_prob(np.array([1000.0]), np.array([1.0]), CITED)
        assert p[0] > 0.999999

    def test_midpoint_closed_form(self):
        # P = 0.5 exactly where (|X|^2/psd) * xi/(1+xi) = ln((1+xi)(1-q)/q)
        xi = CITED.xi_h1
        q = CITED.prior_h1
        x_star = np.log((1.0 + xi) * (1.0 - q) / q) * (1.0 + xi) / xi
        p = speech_presence_prob(np.array([x_star]), np.array([1.0]), CITED)
        assert p[0] == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_observation(self):
        x = np.linspace(0.0, 20.0, 50)
        p = speech_presence_prob(x, np.ones_like(x), CITED)
        assert np.all(np.diff(p) > 0)

    def test_nonpositive_psd_rejected(self):
        with pytest.raises(NoiseFloorError):
            speech_presence_prob(np.ones(3), np.array([1.0, 0.0, 1.0]), CITED)


class TestUpdateEndpoints:
    def test_p_zero_passes_periodogram(self, rng):
        per = rng.uniform(0.5, 2.0, 16)
        prev = rng.uniform(0.5, 2.0, 16)
        est = noise_periodogram_estimate(per, prev, 0.0)
        assert np.max(np.abs(est - per)) <= 1e-12

    def test_p_one_passes_previous(self, rng):
        per = rng.uniform(0.5, 2.0, 16)
        prev = rng.uniform(0.5, 2.0, 16)
        est = noise_periodogram_estimate(per, prev, 1.0)
        assert np.max(np.abs(est - prev)) <= 1e-12

    def test_p_one_keeps_floor_unchanged_through_update(self, rng):
        params = SppParams()
        state = init_state(rng.uniform(0.5, 2.0, (5, 8)), params)
        _, psd = update(state, rng.uniform(0.5, 2.0, 8), params, spp=1.0)
        assert np.max(np.abs(psd - state.noise_psd)) <= 1e-12

    def test_forced_p_zero_equals_plain_smoother(self, rng):
        params = SppParams()
        pers = rng.uniform(0.1, 3.0, (40, 8))
        state = init_state(pers[:5], params)
        direct = state.noise_psd.copy()
        for k in range(5, 40):
            state, psd = update(state, pers[k], params, spp=0.0)
            direct = params.psd_smooth * direct + (1 - params.psd_smooth) * pers[k]
            assert np.max(np.abs(psd - np.maximum(direct, params.psd_floor))) <= 1e-12

    def test_length_mismatch(self, rng):
        state = init_state(rng.uniform(0.5, 2.0, (5, 8)))
        with pytest.raises(NoiseFloorError):
            update(state, np.ones(9))


class TestTrackingAccuracy:
    def test_white_noise_convergence(self):
        # Settled estimate (mean after the 2 s settling period of a 10 s run)
        # within +-1.5 dB of the known generator PSD on >= 95% of bins.
        rng = np.random.default_rng(0)
        rate = 16000
        x = rng.standard_normal(10 * rate)
        spec = power_spectrogram(frame_signal(AudioBuffer(x, rate), FrameConfig()))
        win = window_values("hann", 640)
        true_psd = float(np.sum(win**2))  # unit-variance white noise
        out = noise_floor_spectrogram(spec, SppParams())
        settled = int(2.0 / 0.020)
        dev_db = 10 * np.log10(out[settled:].mean(axis=0) / true_psd)
        assert np.mean(np.abs(dev_db) <= 1.5) >= 0.95

    def test_burst_rejection_vs_plain_smoothing(self):
        # 200 ms tone bursts at +10 dB: the gated tracker stays within 3 dB of
        # the noise-only PSD at the burst bins; plain smoothing does not.
        params = SppParams()
        rng = np.random.default_rng(3)
        rate = 16000
        sigma = 0.05
        noise = sigma * rng.standard_normal(10 * rate)
        t = np.arange(10 * rate) / rate
        tone = np.sqrt(20) * sigma * np.sin(2 * np.pi * 1000.0 * t)
        sig = noise.copy()
        for start in range(0, 10 * rate, int(0.6 * rate)):
            sig[start : start + int(0.2 * rate)] += tone[start : start + int(0.2 * rate)]

        cfg = FrameConfig()
        spec_burst = power_spectrogram(frame_signal(AudioBuffer(sig, rate), cfg))
        ref = power_spectrogram(frame_signal(AudioBuffer(noise, rate), cfg)).mean(axis=0)
        lift = 10 * np.log10(spec_burst.mean(axis=0) / ref)
        tone_bins = lift > 1.0
        assert tone_bins.sum() > 5

        settled = int(2.0 / 0.020)
        tracked = noise_floor_spectrogram(spec_burst, params)
        dev_tracked = 10 * np.log10(tracked[settled:].mean(axis=0) / ref)
        assert np.abs(dev_tracked[tone_bins]).max() <= 3.0
        assert np.mean(np.abs(dev_tracked) <= 3.0) >= 0.95

        state = init_state(spec_burst[:5], params)
        plain = np.empty_like(spec_burst)
        plain[:5] = state.noise_psd
        for k in range(5, plain.shape[0]):
            state, plain[k] = update(state, spec_burst[k], params, spp=0.0)
        dev_plain = 10 * np.log10(plain[settled:].mean(axis=0) / ref)
        assert np.abs(dev_plain[tone_bins]).max() > 3.0


class TestNoiseFloorSpectrogram:
    def test_all_zero_input(self):
        spec = np.zeros((20, 8))
        out = noise_floor_spectrogram(spec, SppParams())
        np.testing.assert_array_equal(out, 1e-12)
        assert out.shape == spec.shape

    def test_init_rows_emit_initial_estimate(self, rng):
        frames = rng.uniform(0.5, 2.0, (30, 8))
        before = frames.copy()
        out = noise_floor_spectrogram(frames, SppParams())
        assert np.array_equal(frames, before)  # the tracker runs on a copy
        expected = frames[:5].mean(axis=0)
        for t in range(5):
            np.testing.assert_allclose(out[t], expected)

    def test_stationary_noise_final_rows(self):
        rng = np.random.default_rng(11)
        frames = rng.exponential(1.0, (500, 64))
        out = noise_floor_spectrogram(frames, SppParams())
        final = out[-100:].mean(axis=0)
        dev_db = 10 * np.log10(final / 1.0)
        assert np.mean(np.abs(dev_db) <= 1.5) >= 0.9

    def test_too_few_frames(self):
        spec = np.ones((4, 8))
        with pytest.raises(NoiseFloorError):
            noise_floor_spectrogram(spec, SppParams())

    @pytest.mark.parametrize("spec, message", [
        (np.ones(20), "must be 2-D"),
        (np.ones((1, 20, 8)), "must be 2-D"),
        (np.concatenate([np.ones((19, 8)), np.full((1, 8), -1e-300)]), "non-negative"),
    ], ids=["1-d", "3-d", "negative-entry"])
    def test_rejects_what_is_not_a_power_spectrogram(self, spec, message):
        with pytest.raises(ValueError, match=message):
            noise_floor_spectrogram(spec, SppParams())


class TestTrackNoiseFloor:
    """The batched in-place tracker equals the conftest update() loop bit for bit."""

    def test_batch_matches_update_loop(self, rng):
        # A 50-frame burst saturates the speech posterior, so the stuck
        # detector clamps it in those bins.
        stack = rng.exponential(1.0, (4, 60, 33)) * rng.uniform(0.01, 100.0, (4, 1, 33))
        stack[1, 8:58, 5:15] *= 1e4
        expected = [update_loop(rows, CITED) for rows in stack]
        track_noise_floor(stack, CITED)
        for got, want in zip(stack, expected):
            assert np.array_equal(got, want)

    def test_single_recording(self, rng):
        rows = rng.exponential(1.0, (50, 17))
        stack = rows[None].copy()
        track_noise_floor(stack)
        assert np.array_equal(stack[0], update_loop(rows))
        spec = noise_floor_spectrogram(rows, SppParams())
        assert np.array_equal(spec, update_loop(rows))

    @pytest.mark.parametrize("n_init", [1, 5, 12])
    def test_exactly_one_tracked_frame(self, rng, n_init):
        stack = rng.exponential(1.0, (3, n_init + 1, 9))
        params = SppParams(init_frames=n_init)
        expected = [update_loop(rows, params) for rows in stack]
        track_noise_floor(stack, params)
        for got, want in zip(stack, expected):
            assert np.array_equal(got, want)

    def test_all_zero(self):
        stack = np.zeros((2, 20, 8))
        track_noise_floor(stack)
        assert np.array_equal(stack[0], update_loop(np.zeros((20, 8))))
        np.testing.assert_array_equal(stack, 1e-12)

    def test_too_few_frames(self):
        with pytest.raises(NoiseFloorError):
            track_noise_floor(np.ones((2, 5, 8)))

    @settings(deadline=None, max_examples=40)
    @given(case=tracker_cases(), seed=st.integers(0, 2**32 - 1))
    @example(case=(SppParams(init_frames=1), (2, 40, 5)), seed=0)
    def test_any_params_match_update_loop(self, case, seed):
        # Bins 0..2 of the last recording carry a burst over every tracked
        # frame, which saturates the speech posterior until the stuck
        # detector clamps it: from the 38th tracked frame at spp_smooth = 0.9
        # (the explicit example), sooner at a lower spp_smooth.
        params, shape = case
        n, _, n_bins = shape
        rng = np.random.default_rng(seed)
        stack = rng.exponential(1.0, shape) * 10.0 ** rng.uniform(-6.0, 6.0, (n, 1, n_bins))
        stack[-1, params.init_frames :, :3] *= 1e12
        # A prior_h1 near 0 or a huge xi_h1_db overflows the posterior odds,
        # and both sides then compute the same NaN floors.
        with np.errstate(over="ignore", invalid="ignore"):
            expected = [update_loop(rows, params) for rows in stack]
            track_noise_floor(stack, params)
        for got, want in zip(stack, expected):
            assert np.array_equal(got, want, equal_nan=True)


class TestInvariants:
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_floor_and_convex_bound(self, seed):
        rng = np.random.default_rng(seed)
        params = SppParams()
        pers = rng.exponential(1.0, (30, 6)) * rng.uniform(0.1, 10.0)
        floor = noise_floor_spectrogram(pers, params)
        upper = max(floor[0].max(), pers.max())  # the seed or any observation
        assert np.all(np.isfinite(floor))
        assert np.all(floor >= params.psd_floor)
        assert np.all(floor <= upper + 1e-12)

    def test_gain_equivariance(self, rng):
        params = SppParams()
        pers = rng.exponential(1.0, (300, 32))
        gain = 12.5
        base = noise_floor_spectrogram(pers, params)[-1]
        scaled = noise_floor_spectrogram(gain * pers, params)[-1]
        np.testing.assert_allclose(scaled, gain * base, rtol=0.05)
