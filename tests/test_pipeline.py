import ast
import builtins
import dataclasses
import os
import struct
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneid import audio, pipeline
from sceneid.audio import MAX_FILTER_TAPS, AudioBuffer
from sceneid.backend import train_backend
from sceneid.config import ConfigError, PipelineConfig
from sceneid.features import extract_features
from sceneid.gmm import GmmModel, gmm_checksum, gmm_from_bytes, gmm_to_bytes
from sceneid.ivector import TvMatrix
from sceneid.manifest import CorpusManifest, ManifestEntry
from sceneid.mixer import condition_tag
from sceneid.pipeline import (
    FEATURE_CHUNK,
    EvalReport,
    ModelBundle,
    PipelineStageError,
    build_multicondition_corpus,
    features_for_buffers,
    run_evaluation,
    run_sbr_sweep,
    run_training,
)
from sceneid.synth import generate_corpus

from conftest import make_wav_bytes

TINY = dict(
    n_classes=3,
    train_per_class=6,
    test_per_class=3,
    clip_seconds=2.0,
    n_speakers_train=2,
    n_speakers_eval=2,
    clips_per_speaker=1,
)


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_corpus")
    paths = generate_corpus(root, seed=5, **TINY)
    return {k: CorpusManifest.load(v) for k, v in paths.items()}


def tiny_config(**overrides) -> PipelineConfig:
    base = dict(
        ubm_components=8, ubm_iters=6, kmeans_iters=4, tv_rank=4, tv_iters=2, seed=11
    )
    base.update(overrides)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def tiny_bundle(tiny_corpus):
    return run_training(tiny_config(), tiny_corpus["train"])


class TestFeaturesForBuffers:
    @pytest.mark.parametrize("noise_floor", [False, True])
    def test_matches_per_buffer_extract_features(self, rng, noise_floor):
        # More than one chunk, with several frame counts in each.
        config = tiny_config(noise_floor=noise_floor)
        lengths = [16000, 24000, 32000] * ((FEATURE_CHUNK + 5) // 3 + 1)
        items = [
            (f"rec{i}", AudioBuffer(0.1 * rng.standard_normal(n), 16000))
            for i, n in enumerate(lengths)
        ]
        got = list(features_for_buffers(iter(items), config))
        assert len(got) == len(items)
        for (rid, buf), (got_id, feats) in zip(items, got):
            want = extract_features(buf, config.to_feature_config())
            assert got_id == rid
            assert np.array_equal(feats, want)

    def test_short_clip_in_chunk_is_noise_floor_error_naming_it(self, rng):
        # 2000 samples give 5 frames, one short of what n_init=5 needs.
        items = [(f"rec{i}", AudioBuffer(0.1 * rng.standard_normal(16000), 16000))
                 for i in range(FEATURE_CHUNK)]
        items[FEATURE_CHUNK // 2] = ("too-short", AudioBuffer(np.ones(2000), 16000))
        with pytest.raises(PipelineStageError) as err:
            list(features_for_buffers(items, tiny_config(noise_floor=True)))
        assert err.value.stage == "noise-floor"
        assert "too-short" in str(err.value)

    def test_chunk_is_checked_recording_by_recording_in_input_order(self, rng):
        # A too-short recording before a silent one is the one reported.
        items = [("ok", AudioBuffer(0.1 * rng.standard_normal(16000), 16000)),
                 ("too-short", AudioBuffer(np.ones(100), 16000)),
                 ("silent", AudioBuffer(np.zeros(16000), 16000))]
        with pytest.raises(PipelineStageError) as err:
            list(features_for_buffers(items, tiny_config()))
        assert str(err.value) == (
            "[features] too-short: buffer of 100 samples is shorter than one 640-sample frame"
        )


# Header rates for the front-end property: common ones, the decoder's and the
# resampler's edges, and any 32-bit value.
WAV_RATES = st.one_of(
    st.sampled_from([1, 999, 1000, 8000, 16000, 44100, 48000,
                     1_024_000_000, 3_200_000_000, 2**32 - 1]),
    st.integers(min_value=1, max_value=2**32 - 1),
)
# Peak traced memory of one recording's front end: this many bytes per byte
# of the file, plus the design of one MAX_FILTER_TAPS filter, which peaks at
# about three times its 32 MiB of coefficients.
PEAK_PER_FILE_BYTE = 4096
FILTER_DESIGN_BYTES = 4 * MAX_FILTER_TAPS * 8


@settings(deadline=None, max_examples=60)
@given(
    rate=WAV_RATES,
    fmt=st.sampled_from([(1, 16), (1, 24), (1, 32), (3, 32)]),  # (format tag, bits)
    channels=st.integers(min_value=1, max_value=8),
    frames=st.integers(min_value=0, max_value=6720),  # 20 analysis frames at 16 kHz
    ragged=st.one_of(st.just(0), st.integers(min_value=1, max_value=31)),
    level=st.sampled_from([None, 1e-30, 0.1, 3e38]),  # float samples; None: random bytes
    noise_floor=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_any_wav_ends_in_feature_rows_or_one_stage_error_naming_it(
    tmp_path_factory, rate, fmt, channels, frames, ragged, level, noise_floor, seed
):
    # From the WAV header on: decode, resample to 16 kHz, check and featurize.
    format_tag, bits = fmt
    block = channels * bits // 8
    n_bytes = frames * block + ragged % block  # odd counts cut the last sample
    rng = np.random.default_rng(seed)
    if format_tag == 3 and level is not None:
        payload = (level * rng.uniform(-1, 1, n_bytes // 4 + 1)).astype("<f4").tobytes()
    else:  # any bytes are integer samples; as floats, most hold a NaN or inf
        payload = rng.integers(0, 256, n_bytes, dtype=np.uint8).tobytes()
    data = bytearray(make_wav_bytes(payload[:n_bytes], format_tag, channels, 16000, bits))
    struct.pack_into("<I", data, 24, rate)  # any 32-bit header rate
    path = tmp_path_factory.mktemp("front_end") / "clip.wav"
    path.write_bytes(bytes(data))
    audio._polyphase_matrix.cache_clear()  # this example designs its own filter
    tracemalloc.start()
    try:
        items = [(str(path), pipeline.load_audio(path, 16000))]
        ((_, rows),) = features_for_buffers(items, tiny_config(noise_floor=noise_floor))
        assert rows.shape[1] == 76 and np.isfinite(rows).all()
    except PipelineStageError as exc:
        assert str(exc).count(str(path)) == 1
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < PEAK_PER_FILE_BYTE * len(data) + FILTER_DESIGN_BYTES


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=-2, max_value=2**65))
def test_any_seed_fails_at_config_load_or_round_trips_through_ubm_gmm(seed):
    # `ubm.gmm` stores the seed as a u64: a seed it cannot hold is a config
    # error, and any other comes back from the file unchanged.
    valid = 0 <= seed < 2**64
    try:
        config = PipelineConfig().apply_overrides(
            [f"seed={seed}", "ubm_components=2", "ubm_iters=1", "kmeans_iters=1"]
        )
    except ConfigError:
        assert not valid
        return
    assert valid
    ubm = pipeline.train_ubm(config, np.random.default_rng(0).normal(size=(40, 3)))
    assert gmm_from_bytes(gmm_to_bytes(ubm)).seed == seed


class TestRunTraining:
    def test_end_to_end_bundle(self, tiny_bundle):
        assert tiny_bundle.ubm.n_components == 8
        assert tiny_bundle.tv.rank == 4
        assert tiny_bundle.backend.class_labels == ["bright", "midtone", "rumble"]

    def test_bundle_save_load_and_rerun_byte_identical(
        self, tiny_bundle, tiny_corpus, tmp_path
    ):
        d1 = tmp_path / "b1"
        d2 = tmp_path / "b2"
        tiny_bundle.save(d1)
        run_training(tiny_config(), tiny_corpus["train"]).save(d2)
        for name in ("config.txt", "ubm.gmm", "tv.tvm", "backend.gbe", "bundle.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
        loaded = ModelBundle.load(d1)
        assert loaded.backend.class_labels == tiny_bundle.backend.class_labels

    def test_feature_matrices_are_freed_before_t_training(self, tiny_corpus, monkeypatch):
        # Each recording's own feature array is freed once it is copied into
        # the frame pool, before the UBM is trained; the pool itself is freed
        # before the T matrix is trained.
        refs, pool_refs = [], []
        manifest_features = pipeline.manifest_features
        train_ubm, train_tv = pipeline.train_ubm, pipeline.train_tv

        def keep_refs(manifest, config):
            feats = list(manifest_features(manifest, config))
            # the array that owns each recording's memory
            refs.extend(weakref.ref(rows if rows.base is None else rows.base)
                        for _, rows in feats)
            return feats

        def check_pooled(config, frames):
            assert refs and all(ref() is None for ref in refs)
            pool_refs.append(weakref.ref(frames))
            return train_ubm(config, frames)

        def check_freed(config, ubm, stats):
            assert refs and all(ref() is None for ref in refs)
            assert pool_refs and all(ref() is None for ref in pool_refs)
            return train_tv(config, ubm, stats)

        monkeypatch.setattr(pipeline, "manifest_features", keep_refs)
        monkeypatch.setattr(pipeline, "train_ubm", check_pooled)
        monkeypatch.setattr(pipeline, "train_tv", check_freed)
        run_training(tiny_config(tv_iters=0), tiny_corpus["train"])

    def test_missing_audio_aborts_in_audio_stage(self, tmp_path):
        manifest = CorpusManifest([ManifestEntry("ghost.wav", "x")], tmp_path)
        with pytest.raises(PipelineStageError) as err:
            run_training(tiny_config(), manifest)
        assert err.value.stage == "audio-io"

    def test_empty_manifest_aborts_in_manifest_stage(self, tmp_path):
        with pytest.raises(PipelineStageError) as err:
            run_training(tiny_config(), CorpusManifest([], tmp_path))
        assert err.value.stage == "manifest"

    def test_bundle_load_holds_one_t_sized_buffer(self, tiny_bundle, tmp_path, rng):
        # T (128 components x 100 ranks, 8 MB) dominates the files, so a
        # second T-sized copy during the load would show in the peak.
        c, f, r = 128, tiny_bundle.ubm.n_features, 100
        ubm = GmmModel(np.full(c, 1.0 / c), rng.normal(0, 1, (c, f)),
                       rng.uniform(0.5, 2.0, (c, f)), np.full(f, 1e-10))
        tv = TvMatrix(rng.normal(0, 1, (c, f, r)), gmm_checksum(ubm))
        labels = [label for label in "ab" for _ in range(120)]
        backend = train_backend(rng.normal(0, 1, (len(labels), r)), labels, alpha=0.5)
        d = tmp_path / "b"
        ModelBundle(tiny_config(ubm_components=c, tv_rank=r), ubm, tv, backend).save(d)
        tracemalloc.start()
        try:
            loaded = ModelBundle.load(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * (d / "tv.tvm").stat().st_size
        t = loaded.tv.t
        assert t.dtype == np.float64
        assert t.flags.c_contiguous and t.flags.aligned and t.flags.writeable
        assert t.tobytes() == tv.t.tobytes()

    def test_config_snapshot_roundtrip(self, tiny_bundle, tmp_path):
        d = tmp_path / "b"
        tiny_bundle.save(d)
        loaded = ModelBundle.load(d)
        loaded.save(tmp_path / "b_again")
        assert (d / "config.txt").read_bytes() == (
            tmp_path / "b_again" / "config.txt"
        ).read_bytes()


class TestRunEvaluation:
    def test_report_invariants(self, tiny_bundle, tiny_corpus):
        report = run_evaluation(tiny_bundle, tiny_corpus["test"])
        assert report.total == 9
        assert report.confusion.shape == (3, 3)
        assert report.accuracy == pytest.approx(
            np.trace(report.confusion) / report.confusion.sum()
        )
        # row sums = per-class test counts
        np.testing.assert_array_equal(report.confusion.sum(axis=1), [3, 3, 3])

    def test_label_mismatch_rejected(self, tiny_bundle, tmp_path, tiny_corpus):
        entry = tiny_corpus["test"].entries[0]
        bad = CorpusManifest(
            [ManifestEntry(str(tiny_corpus["test"].resolve(entry)), "unseen-label")],
            tmp_path,
        )
        with pytest.raises(PipelineStageError) as err:
            run_evaluation(tiny_bundle, bad)
        assert err.value.stage == "evaluation"

    def test_unknown_label_rejected_before_audio_is_read(self, tiny_bundle, tmp_path):
        bad = CorpusManifest([ManifestEntry("ghost.wav", "unseen-label")], tmp_path)
        for run in (
            lambda: run_evaluation(tiny_bundle, bad),
            lambda: run_sbr_sweep(tiny_bundle, bad, None, [None], seed=1),
        ):
            with pytest.raises(PipelineStageError) as err:
                run()
            assert err.value.stage == "evaluation"

    def test_deterministic_report(self, tiny_bundle, tiny_corpus):
        r1 = run_evaluation(tiny_bundle, tiny_corpus["test"])
        r2 = run_evaluation(tiny_bundle, tiny_corpus["test"])
        assert r1.to_json() == r2.to_json()

    def test_audio_is_read_one_chunk_at_a_time(self, tiny_bundle, tiny_corpus, monkeypatch):
        # Each chunk is featurized before the audio of the next is read.
        loaded, loaded_before_chunk = [], []
        real_load, real_many = pipeline.load_audio, pipeline.extract_features_many

        def counting_load(*args, **kwargs):
            loaded.append(1)
            return real_load(*args, **kwargs)

        def recording_many(bufs, *args, **kwargs):
            loaded_before_chunk.append(len(loaded))
            return real_many(bufs, *args, **kwargs)

        monkeypatch.setattr(pipeline, "load_audio", counting_load)
        monkeypatch.setattr(pipeline, "extract_features_many", recording_many)
        monkeypatch.setattr(pipeline, "FEATURE_CHUNK", 4)
        report = run_evaluation(tiny_bundle, tiny_corpus["test"])
        assert report.total == 9
        assert loaded_before_chunk == [4, 8, 9]

    def test_condition_grouping(self, tiny_bundle, tiny_corpus, tmp_path):
        entries = []
        for i, e in enumerate(tiny_corpus["test"].entries):
            entries.append(
                ManifestEntry(
                    str(tiny_corpus["test"].resolve(e)),
                    e.label,
                    condition="groupA" if i % 2 == 0 else "groupB",
                )
            )
        report = run_evaluation(tiny_bundle, CorpusManifest(entries, tmp_path))
        assert set(report.per_condition) == {"groupA", "groupB"}
        totals = sum(mat.sum() for mat in report.per_condition.values())
        assert totals == report.total


class TestEvalReport:
    def test_from_predictions_shape(self):
        labels = [f"scene{i:02d}" for i in range(15)]
        y_true = [lab for lab in labels for _ in range(26)]
        y_pred = list(y_true)
        report = EvalReport.from_predictions(labels, y_true, y_pred)
        assert report.confusion.shape == (15, 15)
        assert report.total == 390
        assert report.accuracy == 1.0
        assert np.all(np.diag(report.confusion) == 26)

    def test_accuracy_is_trace_over_total(self, rng):
        labels = ["a", "b", "c"]
        y_true = rng.choice(labels, 200).tolist()
        y_pred = rng.choice(labels, 200).tolist()
        report = EvalReport.from_predictions(labels, y_true, y_pred)
        assert report.accuracy == pytest.approx(
            np.trace(report.confusion) / report.confusion.sum()
        )

    def test_json_and_table(self, tmp_path):
        report = EvalReport.from_predictions(
            ["a", "b"], ["a", "b", "b"], ["a", "b", "a"], ["clean", "clean", "noisy"]
        )
        path = tmp_path / "r.json"
        report.save(path)
        text = path.read_text()
        assert '"accuracy"' in text
        table = report.text_table()
        assert "overall accuracy" in table
        assert "noisy" in table


class TestSbrSweep:
    def test_empty_sweep_equals_plain_evaluation(self, tiny_bundle, tiny_corpus):
        plain = run_evaluation(tiny_bundle, tiny_corpus["test"])
        swept = run_sbr_sweep(tiny_bundle, tiny_corpus["test"], None, [], seed=1)
        assert swept.to_json() == plain.to_json()

    def test_clean_only_sweep_equals_plain_evaluation(self, tiny_bundle, tiny_corpus):
        test = tiny_corpus["test"]
        clean = CorpusManifest(
            [dataclasses.replace(e, condition="clean") for e in test.entries], test.base_dir
        )
        plain = run_evaluation(tiny_bundle, clean)
        swept = run_sbr_sweep(tiny_bundle, test, None, [None], seed=1)
        assert swept.to_json() == plain.to_json()

    def test_conditions_present(self, tiny_bundle, tiny_corpus):
        report = run_sbr_sweep(
            tiny_bundle,
            tiny_corpus["test"],
            tiny_corpus["speech_eval"],
            [None, 10.0],
            seed=3,
        )
        assert set(report.per_condition) == {"clean", "sbr+10dB"}
        assert report.per_condition["sbr+10dB"].sum() == 9

    def test_sweep_deterministic(self, tiny_bundle, tiny_corpus):
        args = (tiny_bundle, tiny_corpus["test"], tiny_corpus["speech_eval"], [0.0])
        assert run_sbr_sweep(*args, seed=4).to_json() == run_sbr_sweep(*args, seed=4).to_json()

    def test_numeric_sweep_needs_pool(self, tiny_bundle, tiny_corpus):
        pool = tiny_corpus["speech_eval"]
        all_speakers = {e.speaker_id for e in pool.entries}
        for speech_pool, excluded in ((None, ()), (pool, all_speakers)):
            with pytest.raises(PipelineStageError) as err:
                run_sbr_sweep(tiny_bundle, tiny_corpus["test"], speech_pool, [0.0], seed=1,
                              exclude_speakers=excluded)
            assert err.value.stage == "mixer"

    def test_mixes_are_made_as_they_are_classified(self, tiny_bundle, tiny_corpus, monkeypatch):
        # Each chunk is featurized before the mixes of the next are made.
        made, mixed_before_chunk = [], []
        real_mix, real_many = pipeline.mix_at_sbr, pipeline.extract_features_many

        def counting_mix(*args, **kwargs):
            made.append(1)
            return real_mix(*args, **kwargs)

        def recording_many(bufs, *args, **kwargs):
            mixed_before_chunk.append(len(made))
            return real_many(bufs, *args, **kwargs)

        monkeypatch.setattr(pipeline, "mix_at_sbr", counting_mix)
        monkeypatch.setattr(pipeline, "extract_features_many", recording_many)
        monkeypatch.setattr(pipeline, "FEATURE_CHUNK", 4)
        report = run_sbr_sweep(
            tiny_bundle, tiny_corpus["test"], tiny_corpus["speech_eval"], [0.0, 10.0], seed=3
        )
        assert report.total == 18
        assert mixed_before_chunk == [4, 8, 12, 16, 18]

    @pytest.mark.parametrize("command", ["sweep", "build-corpus"])
    def test_each_clip_is_read_once_and_mixed_before_the_next(
        self, tiny_bundle, tiny_corpus, monkeypatch, tmp_path, command
    ):
        # Both commands take one walk: a clip's mixes are made before the
        # next clip is read, whatever the place of `clean` in the list.
        test = tiny_corpus["test"]
        clean = {str(test.resolve(e)): e.path for e in test.entries}
        events = []
        real_load, real_mix = pipeline.load_audio, pipeline.mix_at_sbr

        def recording_load(path, sample_rate):
            if str(path) in clean:  # not a speech clip
                events.append(("read", clean[str(path)]))
            return real_load(path, sample_rate)

        def recording_mix(*args):
            events.append(("mix", args[4]))  # the background id
            return real_mix(*args)

        monkeypatch.setattr(pipeline, "load_audio", recording_load)
        monkeypatch.setattr(pipeline, "mix_at_sbr", recording_mix)
        if command == "sweep":
            sbrs = [0.0, None, 10.0]
            report = run_sbr_sweep(tiny_bundle, test, tiny_corpus["speech_eval"], sbrs, seed=3)
            assert report.total == 27
        else:
            sbrs = [None, -5.0, 0.0, 5.0]
            out = build_multicondition_corpus(test, sbrs, tiny_corpus["speech_eval"], 3,
                                              tmp_path / "mct")
            assert [e.condition for e in out.entries] == [
                condition_tag(cond) for cond in sbrs for _ in test.entries
            ]
        mixes = sum(cond is not None for cond in sbrs)
        assert events == [
            event for e in test.entries for event in [("read", e.path)] + [("mix", e.path)] * mixes
        ]

    def test_sweep_peak_memory_does_not_grow_with_clip_count(
        self, tiny_bundle, tiny_corpus, tmp_path, monkeypatch
    ):
        # A sweep holds a feature chunk, not its clips: tripling the clips
        # raises the traced peak by less than one clip's samples.
        test = tiny_corpus["test"]
        sources = [test.resolve(e) for e in test.entries]
        clip_bytes = pipeline.load_audio(sources[0], None).samples.nbytes
        monkeypatch.setattr(pipeline, "FEATURE_CHUNK", 4)

        def peak(n_clips):
            entries = []
            for i in range(n_clips):
                e = test.entries[i % len(test.entries)]
                name = f"{n_clips}_{i:02d}.wav"
                (tmp_path / name).write_bytes(sources[i % len(sources)].read_bytes())
                entries.append(ManifestEntry(name, e.label))
            manifest = CorpusManifest(entries, tmp_path)
            sweep = (tiny_bundle, manifest, tiny_corpus["speech_eval"], [None, 10.0])
            run_sbr_sweep(*sweep, seed=3)  # warms caches and lazy imports
            tracemalloc.start()
            try:
                run_sbr_sweep(*sweep, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(6), peak(18)
        assert large - small < clip_bytes, (small, large, clip_bytes)

    def test_excluded_speakers_not_used(self, tiny_bundle, tiny_corpus):
        pool = tiny_corpus["speech_eval"]
        keep = pool.entries[0].speaker_id
        excluded = {e.speaker_id for e in pool.entries} - {keep}
        report = run_sbr_sweep(
            tiny_bundle, tiny_corpus["test"], pool, [5.0], seed=2,
            exclude_speakers=excluded,
        )
        assert report.per_condition["sbr+5dB"].sum() == 9


def _references(path: Path, names) -> list[str]:
    """`module.function` scope of every use of one of `names` in a source
    file, by name or by attribute; imports are not uses."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        used = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and used in names:
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem])
    return found


SOURCES = sorted(Path(pipeline.__file__).parent.glob("*.py"))


def test_wav_files_are_read_only_by_load_audio():
    # A third way of reading audio, with its own errors, fails here.
    uses = [scope for path in SOURCES for scope in _references(path, {"read_wav"})]
    assert uses == ["pipeline.load_audio"]


def test_model_files_are_read_only_by_read_model_file():
    # A second read path for model files, with its own copies, fails here.
    reads = {"open", "read_bytes", "readinto"}
    package = Path(pipeline.__file__).parent
    for codec in ("serialize", "gmm", "ivector", "backend", "config"):
        assert _references(package / f"{codec}.py", reads) == [], codec
    assert set(_references(package / "pipeline.py", reads)) == {"pipeline.read_model_file"}


def test_model_file_must_be_a_regular_file():
    # Its size, known before the read, sizes the one buffer it is read into.
    with pytest.raises(PipelineStageError, match="not a regular file") as err:
        pipeline.read_model_file(bytes, os.devnull)
    assert err.value.stage == "config"


def test_mixer_does_no_file_io():
    path = Path(pipeline.__file__).parent / "mixer.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {(node.module or "").split(".")[0]}
            imported |= {alias.name for alias in node.names}
    assert imported.isdisjoint({"read_wav", "write_wav", "resample", "os", "pathlib"})
    assert _references(path, {"open"}) == []


def test_files_are_written_only_by_write_output():
    # A second writer, with its own errors, fails here.
    writes = {"write_bytes", "write_text"}
    uses = [scope for path in SOURCES for scope in _references(path, writes)]
    assert uses == ["pipeline.write_output"]
    modes = [
        ast.literal_eval((node.args[1:] or [ast.Constant("r")])[0])
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"
    ]
    assert modes and set(modes) == {"rb"}  # every open() reads


def test_label_rule_is_written_once():
    # Highest score wins, ties to the earlier label: only the backend says so.
    uses = [scope for path in SOURCES for scope in _references(path, {"argmax"})]
    assert [scope for scope in uses if not scope.startswith("gmm.")] == ["backend.best_labels"]


def test_numeric_layers_take_no_recording_ids():
    # Naming the recording a failure belongs to is the pipeline's
    # `stage(..., item=...)`; a numeric layer that takes ids to do it fails
    # here. The mixer's ids are MixSpec provenance, so it is not listed.
    package = Path(pipeline.__file__).parent
    found = []
    for module in ("features", "noisefloor", "gmm", "ivector", "backend"):
        for node in ast.walk(ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
                found += [f"{module}.{getattr(node, 'name', 'lambda')}: {p.arg}" for p in params
                          if p is not None and p.arg.endswith(("_id", "_ids"))]
    assert found == []


# Public functions and classes that nothing in src/ uses, and why each stays.
UNREACHED_IN_SRC = {
    "backend.score": "the benchmark tracer wraps it (bench/spans.py LAYERS)",
    "features.extract_features": "the benchmark tracer wraps it (bench/spans.py LAYERS)",
    "ivector.extract_ivector": "the benchmark tracer wraps it (bench/spans.py LAYERS)",
    "gmm.log_likelihood": "the per-recording UBM fit that diagnostics will report",
    "ivector.tv_evidence": "the T-matrix evidence trace that diagnostics will report",
}


def test_every_public_name_is_used_in_src():
    # A function or class that only tests call fails here. A use is a name
    # or attribute of that spelling anywhere in the package but inside its
    # own definition; package exports are not uses.
    defined, used = set(), set()
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            top = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not top.startswith("_"):
                defined.add(f"{path.stem}.{top}")
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if isinstance(sub, (ast.Name, ast.Attribute)) and name != top:
                    used.add(name)
    unused = {full for full in defined if full.split(".", 1)[1] not in used}
    assert unused == set(UNREACHED_IN_SRC)


def test_every_exception_class_is_told_apart_in_src():
    # The stage a failure is reported in classifies it. An exception class
    # that no `except` clause or `stage(...)` type list in the package names
    # is a second classification that nothing reads, and fails here.
    bases, named = {}, set()

    def names(node):
        return {n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}

    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases[f"{path.stem}.{node.name}"] = names(ast.Tuple(node.bases))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                named |= names(node.type)
            elif isinstance(node, ast.Call) and "stage" in names(node.func):
                named |= names(ast.Tuple(node.args[1:]))
    exceptions = {n for n, v in vars(builtins).items()
                  if isinstance(v, type) and issubclass(v, Exception)}
    while grown := {c.split(".")[1] for c, b in bases.items() if b & exceptions} - exceptions:
        exceptions |= grown
    untold = {c for c in bases if c.split(".")[1] in exceptions and c.split(".")[1] not in named}
    assert "PipelineStageError" in exceptions  # the walk found the package's classes
    assert untold == set()
