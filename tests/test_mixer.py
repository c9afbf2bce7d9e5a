import math

import numpy as np
import pytest

from sceneid.audio import AudioBuffer, read_wav, write_wav
from sceneid.cli import EXIT_CODES
from sceneid.manifest import CorpusManifest, ManifestEntry
from sceneid.mixer import (
    ACTIVITY_MARGIN_DB,
    NoActivityError,
    NonFiniteSignalError,
    RateMismatchError,
    SilentSignalError,
    _active_frame_energies,
    active_speech_level,
    align_speech,
    condition_tag,
    mix_at_sbr,
    rms_level,
)
from sceneid.pipeline import PipelineStageError, _mix, build_multicondition_corpus
from sceneid.synth import scene_clip, speech_clip

from conftest import tone

RATE = 16000


def speech_buffer(seed=1, seconds=2.0, f0=180.0) -> AudioBuffer:
    rng = np.random.default_rng(seed)
    return AudioBuffer(speech_clip(int(seconds * RATE), RATE, rng, f0), RATE)


def scene_buffer(seed=2, seconds=2.0, class_index=0) -> AudioBuffer:
    rng = np.random.default_rng(seed)
    return AudioBuffer(scene_clip(class_index, int(seconds * RATE), RATE, rng), RATE)


def reference_active_frame_energies(buf: AudioBuffer) -> np.ndarray:
    """The full-length 16 ms "same" convolution of the squared signal,
    averaged per 10 ms frame: the definition `_active_frame_energies`
    evaluates as one strided GEMV."""
    smooth_len = max(1, int(round(16.0 * buf.sample_rate / 1000.0)))
    envelope = np.convolve(buf.samples**2, np.full(smooth_len, 1.0 / smooth_len), mode="same")
    frame_len = max(1, int(round(10.0 * buf.sample_rate / 1000.0)))
    n_frames = envelope.size // frame_len
    if n_frames == 0:
        return envelope.mean(keepdims=True)
    return envelope[: n_frames * frame_len].reshape(n_frames, frame_len).mean(axis=1)


def active_mask(energies: np.ndarray) -> np.ndarray:
    return energies >= energies.max() * 10.0 ** (-ACTIVITY_MARGIN_DB / 10.0)


def remeasured_sbr(background: AudioBuffer, speech: AudioBuffer, spec) -> float:
    """Active speech level minus background RMS of the two scaled parts of a mix."""
    aligned = align_speech(speech.samples, background.samples.size, spec.speech_offset)
    rate = background.sample_rate
    comp = AudioBuffer(spec.headroom_gain * spec.speech_gain * aligned, rate)
    bg = AudioBuffer(spec.headroom_gain * background.samples, rate)
    return active_speech_level(comp).level_db - rms_level(bg).level_db


class TestRmsLevel:
    def test_unit_constant(self):
        level = rms_level(AudioBuffer(np.ones(1000), RATE))
        assert level.level_db == pytest.approx(0.0, abs=1e-12)
        assert level.method == "rms"

    def test_full_scale_sine(self):
        level = rms_level(tone(1000.0, 1.0, RATE))
        assert level.level_db == pytest.approx(-3.0103, abs=0.01)

    def test_all_zero_rejected(self):
        with pytest.raises(SilentSignalError):
            rms_level(AudioBuffer(np.zeros(1000), RATE))


class TestActiveSpeechLevel:
    def test_tone_matches_rms(self):
        buf = tone(440.0, 1.0, RATE, amplitude=0.5)
        active = active_speech_level(buf)
        assert active.level_db == pytest.approx(rms_level(buf).level_db, abs=0.1)
        assert active.method == "active_speech"

    def test_half_silence_adds_3db(self):
        # 0.5 s tone segments alternating with exact silence on the 10 ms grid:
        # the active level sits 3.01 dB above the overall RMS.
        seg = int(0.5 * RATE)
        t = np.arange(seg) / RATE
        piece = 0.4 * np.sin(2 * np.pi * 500.0 * t)
        signal = np.concatenate([np.concatenate([piece, np.zeros(seg)]) for _ in range(10)])
        buf = AudioBuffer(signal, RATE)
        active = active_speech_level(buf).level_db
        overall = rms_level(buf).level_db
        assert active - overall == pytest.approx(3.0103, abs=0.2)

    def test_silence_rejected(self):
        with pytest.raises(NoActivityError):
            active_speech_level(AudioBuffer(np.zeros(RATE), RATE))

    def test_bursty_speech_above_rms(self):
        buf = speech_buffer()
        assert active_speech_level(buf).level_db > rms_level(buf).level_db


@pytest.mark.parametrize("level", [rms_level, active_speech_level])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", ["middle", "tail"])
def test_non_finite_sample_has_no_level(level, bad, at):
    # 10 ms less one sample past the last whole frame: the last sample lies
    # beyond the smoothing window of every frame.
    samples = np.concatenate([speech_buffer(seconds=1.0).samples, np.full(RATE // 100 - 1, 0.1)])
    samples[RATE // 2 if at == "middle" else -1] = bad
    with pytest.raises(NonFiniteSignalError, match="NaN or infinite"):
        level(AudioBuffer(samples, RATE))


@pytest.mark.parametrize("part", ["background", "speech"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_mix_input_is_mixer_stage_error(part, bad):
    buffers = {"background": scene_buffer(seconds=1.0), "speech": speech_buffer(seconds=1.0)}
    samples = buffers[part].samples.copy()
    samples[-1] = bad
    buffers[part] = AudioBuffer(samples, RATE)
    with pytest.raises(PipelineStageError, match=r"^\[mixer\] bg: .*NaN or infinite") as info:
        _mix(buffers["background"], buffers["speech"], 5.0, 0, "bg", "sp")
    assert EXIT_CODES[info.value.stage] == 7


class TestActiveFrameEnergiesOracle:
    """The strided GEMV against the convolve-then-frame-mean reference."""

    @staticmethod
    def sizes(rate):
        frame = rate // 100  # F, 10 ms
        smooth = int(round(0.016 * rate))  # L, 16 ms
        return frame, smooth

    @pytest.mark.parametrize("rate", [16000, 48000])
    def test_matches_reference_at_every_alignment(self, rate):
        frame, smooth = self.sizes(rate)
        rng = np.random.default_rng(rate)
        lengths = [frame, frame + 1, smooth, smooth + 1, 7 * frame + 37, 3 * rate, 30 * rate]
        for n in lengths:
            buf = AudioBuffer(rng.standard_normal(n), rate)
            expected = reference_active_frame_energies(buf)
            got = _active_frame_energies(buf)
            assert got.shape == expected.shape, n
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0, err_msg=f"n={n}")

    @pytest.mark.parametrize("rate", [16000, 48000])
    def test_sub_frame_signal_equals_reference_bit_for_bit(self, rate):
        frame, _ = self.sizes(rate)
        rng = np.random.default_rng(1)
        for n in (1, 2, frame // 2, frame - 1):
            buf = AudioBuffer(rng.standard_normal(n), rate)
            assert np.array_equal(
                _active_frame_energies(buf), reference_active_frame_energies(buf)
            ), n

    @pytest.mark.parametrize("rate", [16000, 48000])
    def test_speech_masks_and_levels_match_reference(self, rate):
        rng = np.random.default_rng(rate + 1)
        for _ in range(6):
            buf = AudioBuffer(
                speech_clip(3 * rate, rate, rng, float(rng.uniform(110, 260))), rate
            )
            expected = reference_active_frame_energies(buf)
            got = _active_frame_energies(buf)
            assert np.array_equal(active_mask(got), active_mask(expected))
            reference_db = 10.0 * math.log10(float(expected[active_mask(expected)].mean()))
            assert active_speech_level(buf).level_db == pytest.approx(reference_db, abs=1e-9)

    def test_remeasured_sbr_at_48k(self):
        # Criterion 7's check at 48 kHz, where the taps are F=480 and L=768.
        rng = np.random.default_rng(48)
        rate = 48000
        for i in range(10):
            bg = AudioBuffer(scene_clip(int(rng.integers(0, 4)), 2 * rate, rate, rng), rate)
            sp = AudioBuffer(speech_clip(2 * rate, rate, rng, float(rng.uniform(110, 260))), rate)
            target = float(rng.uniform(-10.0, 25.0))
            _, spec = mix_at_sbr(bg, sp, target, rng_seed=i)
            assert remeasured_sbr(bg, sp, spec) == pytest.approx(target, abs=0.2)


class TestMixAtSbr:
    def test_equal_levels_target_zero(self):
        buf = tone(440.0, 1.0, RATE, amplitude=0.2)
        mixed, spec = mix_at_sbr(buf, buf, 0.0, rng_seed=0)
        # active level of a steady tone equals its RMS, so the gain is ~1
        assert spec.speech_gain == pytest.approx(1.0, abs=0.02)
        assert mixed.samples.size == buf.samples.size

    def test_minus_five_gain(self):
        buf = tone(440.0, 1.0, RATE, amplitude=0.2)
        _, spec = mix_at_sbr(buf, buf, -5.0, rng_seed=0)
        assert spec.speech_gain == pytest.approx(10 ** (-0.25), abs=0.01)

    def test_remeasured_sbr_hits_target(self):
        background = scene_buffer(seconds=3.0)
        speech = speech_buffer(seconds=3.0)
        for target in (-5.0, 0.0, 20.0):
            _, spec = mix_at_sbr(background, speech, target, rng_seed=7)
            assert remeasured_sbr(background, speech, spec) == pytest.approx(target, abs=0.2)

    def test_linearity_sample_exact(self):
        background = scene_buffer(seconds=1.0)
        speech = speech_buffer(seconds=1.0)
        mixed, spec = mix_at_sbr(background, speech, -10.0, rng_seed=3)
        assert spec.headroom_gain == 1.0
        aligned = align_speech(speech.samples, background.samples.size, spec.speech_offset)
        rebuilt = background.samples + spec.speech_gain * aligned
        assert np.array_equal(mixed.samples, rebuilt)

    def test_headroom_preserves_sbr_and_peak(self):
        background = scene_buffer(seconds=1.0)
        speech = speech_buffer(seconds=1.0)
        mixed, spec = mix_at_sbr(background, speech, 35.0, rng_seed=3)
        assert spec.headroom_gain < 1.0
        assert np.max(np.abs(mixed.samples)) <= 1.0 + 1e-12
        assert remeasured_sbr(background, speech, spec) == pytest.approx(35.0, abs=0.2)

    def test_speech_looped_to_cover_background(self):
        background = scene_buffer(seconds=3.0)
        speech = speech_buffer(seconds=1.0)
        mixed, _ = mix_at_sbr(background, speech, 0.0, rng_seed=1)
        assert mixed.samples.size == background.samples.size

    def test_rate_mismatch(self):
        a = AudioBuffer(np.ones(100) * 0.1, 16000)
        b = AudioBuffer(np.ones(100) * 0.1, 8000)
        with pytest.raises(RateMismatchError):
            mix_at_sbr(a, b, 0.0, rng_seed=0)

    def test_silent_inputs(self):
        silent = AudioBuffer(np.zeros(RATE), RATE)
        loud = tone(440.0, 1.0, RATE, amplitude=0.2)
        with pytest.raises(SilentSignalError):
            mix_at_sbr(silent, loud, 0.0, rng_seed=0)
        with pytest.raises(SilentSignalError):
            mix_at_sbr(loud, silent, 0.0, rng_seed=0)

    def test_same_seed_same_mix(self):
        background = scene_buffer(seconds=1.0)
        speech = speech_buffer(seconds=1.0)
        m1, s1 = mix_at_sbr(background, speech, 5.0, rng_seed=42)
        m2, s2 = mix_at_sbr(background, speech, 5.0, rng_seed=42)
        assert np.array_equal(m1.samples, m2.samples)
        assert s1 == s2

    @pytest.mark.parametrize("target, speech_scale", [
        (float("nan"), 1.0), (float("inf"), 1.0), (float("-inf"), 1.0),
        (1e308, 1.0),  # the gain overflows
        (-1e308, 1.0),  # the gain underflows to zero: the mix would be the background
        (6200.0, 1e10),  # the gain is finite, the scaled speech is not
    ])
    def test_unrealizable_target_rejected(self, target, speech_scale):
        background = scene_buffer(seconds=1.0)
        speech = AudioBuffer(speech_scale * speech_buffer(seconds=1.0).samples, RATE)
        with pytest.raises(ValueError, match="no usable mix"):
            mix_at_sbr(background, speech, target, rng_seed=0)


def _write_corpus(tmp_path, n_backgrounds=3, n_speech=4):
    bg_dir = tmp_path / "bg"
    sp_dir = tmp_path / "sp"
    bg_dir.mkdir()
    sp_dir.mkdir()
    bg_entries = []
    for i in range(n_backgrounds):
        name = f"bg{i}.wav"
        write_wav(bg_dir / name, scene_buffer(seed=i, seconds=1.0, class_index=i % 4))
        bg_entries.append(ManifestEntry(path=str(bg_dir / name), label=f"class{i % 2}"))
    sp_entries = []
    for i in range(n_speech):
        name = f"sp{i}.wav"
        write_wav(sp_dir / name, speech_buffer(seed=100 + i, seconds=1.0, f0=150 + 20 * i))
        sp_entries.append(
            ManifestEntry(path=str(sp_dir / name), label="speech", speaker_id=f"spk{i}")
        )
    return CorpusManifest(bg_entries, tmp_path), CorpusManifest(sp_entries, tmp_path)


class TestBuildCorpus:
    def test_no_speech_identity(self, tmp_path):
        manifest, pool = _write_corpus(tmp_path)
        out = build_multicondition_corpus(manifest, [None], pool, 0, tmp_path / "out")
        assert out.entries == manifest.entries

    def test_entry_count_two_conditions(self, tmp_path):
        manifest, pool = _write_corpus(tmp_path)
        out = build_multicondition_corpus(
            manifest, [None, -5.0], pool, 0, tmp_path / "out"
        )
        assert len(out) == 2 * len(manifest)
        tags = {e.condition for e in out.entries}
        assert tags == {"clean", "sbr-5dB"}
        mixed = [e for e in out.entries if e.condition == "sbr-5dB"]
        assert all(e.label in ("class0", "class1") for e in mixed)
        assert all(e.seed is not None and e.gain is not None for e in mixed)

    def test_seeded_builds_byte_identical(self, tmp_path):
        manifest, pool = _write_corpus(tmp_path)
        out1 = build_multicondition_corpus(manifest, [-5.0], pool, 9, tmp_path / "o1")
        out2 = build_multicondition_corpus(manifest, [-5.0], pool, 9, tmp_path / "o2")
        out1.save(tmp_path / "o1" / "manifest.jsonl")
        out2.save(tmp_path / "o2" / "manifest.jsonl")
        m1 = (tmp_path / "o1" / "manifest.jsonl").read_bytes()
        m2 = (tmp_path / "o2" / "manifest.jsonl").read_bytes()
        assert m1 == m2
        for e1, e2 in zip(out1.entries, out2.entries):
            assert (tmp_path / "o1" / e1.path).read_bytes() == (
                tmp_path / "o2" / e2.path
            ).read_bytes()

    def test_different_seed_changes_assignment(self, tmp_path):
        manifest, pool = _write_corpus(tmp_path)
        out1 = build_multicondition_corpus(manifest, [-5.0], pool, 1, tmp_path / "oa")
        out2 = build_multicondition_corpus(manifest, [-5.0], pool, 2, tmp_path / "ob")
        pick1 = [e.speaker_id for e in out1.entries] + [e.seed for e in out1.entries]
        pick2 = [e.speaker_id for e in out2.entries] + [e.seed for e in out2.entries]
        assert pick1 != pick2

    def test_speaker_exclusion(self, tmp_path):
        manifest, pool = _write_corpus(tmp_path)
        excluded = {"spk0", "spk2"}
        out = build_multicondition_corpus(
            manifest, [0.0, 10.0], pool, 0, tmp_path / "out", exclude_speakers=excluded
        )
        used = {e.speaker_id for e in out.entries}
        assert used.isdisjoint(excluded)

    def test_empty_pool_rejected(self, tmp_path):
        manifest, pool = _write_corpus(tmp_path)
        with pytest.raises(PipelineStageError, match=r"^\[mixer\] speech pool"):
            build_multicondition_corpus(
                manifest, [0.0], CorpusManifest([], tmp_path), 0, tmp_path / "out"
            )
        all_speakers = {e.speaker_id for e in pool.entries}
        with pytest.raises(PipelineStageError, match=r"^\[mixer\] speech pool"):
            build_multicondition_corpus(
                manifest, [0.0], pool, 0, tmp_path / "out", exclude_speakers=all_speakers
            )

    def test_mixed_outputs_peak_limited(self, tmp_path):
        manifest, pool = _write_corpus(tmp_path)
        out = build_multicondition_corpus(manifest, [30.0], pool, 5, tmp_path / "out")
        for e in out.entries:
            buf = read_wav(out.resolve(e))
            assert np.max(np.abs(buf.samples)) <= 1.0

    def test_condition_tag_format(self):
        assert condition_tag(None) == "clean"
        assert condition_tag(-5.0) == "sbr-5dB"
        assert condition_tag(20.0) == "sbr+20dB"
