import argparse
import builtins
import importlib
import importlib.util
import io
import json
import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from sceneid import backend as backend_mod
from sceneid.audio import AudioBuffer, frame_signal, read_wav, write_wav
from sceneid.backend import score
from sceneid.cli import build_parser, main
from sceneid.config import PipelineConfig
from sceneid.features import power_spectrogram
from sceneid.gmm import accumulate_stats
from sceneid.ivector import extract_ivector, ivectors_to_bytes
from sceneid.noisefloor import noise_floor_spectrogram
from sceneid.pipeline import ModelBundle, features_for_buffers, load_audio
from sceneid.serialize import sha256_hex

from conftest import make_wav_bytes

TINY_ARGS = [
    "--classes", "3",
    "--train-per-class", "6",
    "--test-per-class", "3",
    "--clip-seconds", "2.0",
]
TINY_SET = [
    "--set", "ubm_components=8",
    "--set", "ubm_iters=6",
    "--set", "kmeans_iters=4",
    "--set", "tv_rank=4",
    "--set", "tv_iters=2",
    "--set", "seed=11",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    rc = main(["synth", "--out", str(corpus), "--seed", "5"] + TINY_ARGS)
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def bundle(workspace):
    """The bundle test_train_and_evaluate writes, trained here if it has not run."""
    path = workspace / "bundle"
    if not (path / "bundle.json").exists():
        rc = main(["train", "--manifest", str(workspace / "corpus" / "train.jsonl"),
                   "--out", str(path)] + TINY_SET)
        assert rc == 0
    return path


def test_synth_outputs(workspace, capsys):
    corpus = workspace / "corpus"
    assert (corpus / "train.jsonl").exists()
    assert (corpus / "test.jsonl").exists()
    assert (corpus / "speech_train.jsonl").exists()
    assert any(corpus.glob("scenes/*.wav"))


def test_train_and_evaluate(workspace, capsys):
    corpus = workspace / "corpus"
    bundle = workspace / "bundle"
    rc = main(["train", "--manifest", str(corpus / "train.jsonl"),
               "--out", str(bundle)] + TINY_SET)
    assert rc == 0
    assert (bundle / "bundle.json").exists()

    report = workspace / "report.json"
    rc = main(["evaluate", "--bundle", str(bundle),
               "--manifest", str(corpus / "test.jsonl"), "--out", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "overall accuracy" in out
    data = json.loads(report.read_text())
    assert data["total"] == 9
    assert len(data["confusion"]) == 3


def test_classify_jsonl(workspace, capsys):
    corpus = workspace / "corpus"
    bundle = workspace / "bundle"
    wav = next(corpus.glob("scenes/test_*.wav"))
    rc = main(["classify", "--bundle", str(bundle), "--audio", str(wav)])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    record = json.loads(line)
    assert set(record) == {"id", "label", "scores"}
    assert record["label"] in record["scores"]


def test_classify_manifest_labels_match_evaluate(bundle, workspace, monkeypatch, capsys):
    manifest = workspace / "corpus" / "test.jsonl"
    assert main(["classify", "--bundle", str(bundle), "--manifest", str(manifest)]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]

    counted = []  # the predictions evaluate's report counts, in manifest order
    real = backend_mod.classify_many

    def recording(*args, **kwargs):
        labels = real(*args, **kwargs)
        counted.extend(labels)
        return labels

    monkeypatch.setattr(backend_mod, "classify_many", recording)
    assert main(["evaluate", "--bundle", str(bundle), "--manifest", str(manifest)]) == 0
    ids = [json.loads(line)["path"] for line in manifest.read_text().splitlines()]
    assert [r["id"] for r in records] == ids
    assert [r["label"] for r in records] == counted


def test_classify_audio_scores_equal_single_item_path(bundle, workspace, capsys):
    # Batch scoring of several files must equal scoring each file alone, bit for bit.
    wavs = sorted(str(p) for p in (workspace / "corpus").glob("scenes/test_*.wav"))
    assert len(wavs) > 1
    assert main(["classify", "--bundle", str(bundle), "--audio", *wavs]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    model = ModelBundle.load(bundle)
    labels = model.backend.class_labels
    assert [r["id"] for r in records] == wavs
    for wav, record in zip(wavs, records):
        (feats,) = features_for_buffers([(wav, load_audio(wav, model.config))], model.config)
        w = extract_ivector(model.tv, model.ubm, accumulate_stats(model.ubm, feats))
        want = score(model.backend, w.w)
        assert [record["scores"][lab] for lab in labels] == want.tolist()
        assert record["label"] == labels[int(np.argmax(want))]


def test_benchmark_layer_names_resolve():
    """Every layer the benchmark's tracer wraps still names a callable in sceneid."""
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for name in spans.LAYERS:
        module_name, *attrs = name.split(".")
        obj = importlib.import_module(f"sceneid.{module_name}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        assert callable(obj), name


def test_stagewise_training_matches_composite(workspace, capsys):
    corpus = workspace / "corpus"
    stage = workspace / "stagewise"
    stage.mkdir()
    manifest = str(corpus / "train.jsonl")
    assert main(["train-ubm", "--manifest", manifest,
                 "--out", str(stage / "ubm.gmm")] + TINY_SET) == 0
    assert main(["train-tv", "--manifest", manifest, "--ubm", str(stage / "ubm.gmm"),
                 "--out", str(stage / "tv.tvm")] + TINY_SET) == 0
    assert main(["extract-ivectors", "--manifest", manifest,
                 "--ubm", str(stage / "ubm.gmm"), "--tv", str(stage / "tv.tvm"),
                 "--out", str(stage / "train.ivec")] + TINY_SET) == 0
    assert main(["train-backend", "--ivectors", str(stage / "train.ivec"),
                 "--manifest", manifest, "--set", "alpha=0.7",
                 "--out", str(stage / "backend.gbe")]) == 0
    # stagewise artifacts must equal the composite bundle's files
    bundle = workspace / "bundle"
    for made, ref in [("ubm.gmm", "ubm.gmm"), ("tv.tvm", "tv.tvm"), ("backend.gbe", "backend.gbe")]:
        assert (stage / made).read_bytes() == (bundle / ref).read_bytes()


def test_extract_features_with_dumps(workspace, tmp_path, capsys):
    # Every output is a CSV that reads back bit for bit: the features equal
    # the pipeline's, with the noise floor off and on.
    wav = next((workspace / "corpus").glob("scenes/train_*.wav"))
    for noise_floor in ("false", "true"):
        out, nf, spec = (tmp_path / f"{name}-{noise_floor}.csv" for name in ("f", "nf", "spec"))
        rc = main(["extract-features", "--audio", str(wav), "--out", str(out),
                   "--dump-noise-floor", str(nf), "--dump-spectrogram", str(spec),
                   "--set", f"noise_floor={noise_floor}"])
        assert rc == 0
        cfg = PipelineConfig().apply_overrides([f"noise_floor={noise_floor}"])
        buf = load_audio(wav, cfg)
        (want,) = features_for_buffers([(str(wav), buf)], cfg)
        assert out.read_text().startswith("frame,f0,f1,")
        got = np.loadtxt(out, delimiter=",", skiprows=1)
        assert want.dim == 76
        assert np.array_equal(got[:, 0], np.arange(want.n_frames))
        assert np.array_equal(got[:, 1:], want.rows)
    power = power_spectrogram(frame_signal(buf, cfg.to_feature_config().frame))
    floor = noise_floor_spectrogram(power, cfg.to_spp_params(), cfg.nf_init_frames)
    for path, frames in ((spec, power.frames), (nf, floor.frames)):
        assert np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1)[:, 1:], frames)


def test_readme_tables_match_parser_and_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

    def first_column_keys(heading):
        section = readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
        return {key for line in section.splitlines() for key in re.findall(r"\| `([^`]+)`", line)}

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert first_column_keys("CLI") == set(sub.choices)
    keys = first_column_keys("Configuration")
    assert "sdc_m,k,n,p" in keys  # one row for the four shifted-delta keys
    keys = (keys - {"sdc_m,k,n,p"}) | {"sdc_m", "sdc_k", "sdc_n", "sdc_p"}
    assert keys == set(PipelineConfig.__dataclass_fields__)


def test_mix_command(workspace, tmp_path, capsys):
    corpus = workspace / "corpus"
    bg = next(corpus.glob("scenes/train_*.wav"))
    sp = next(corpus.glob("speech/*.wav"))
    out = tmp_path / "mix.wav"
    rc = main(["mix", "--background", str(bg), "--speech", str(sp),
               "--sbr", "5", "--out", str(out), "--seed", "3"])
    assert rc == 0
    spec = json.loads(capsys.readouterr().out)
    assert spec["target_sbr_db"] == 5.0
    mixed = read_wav(out)
    assert np.max(np.abs(mixed.samples)) <= 1.0


def test_build_corpus_command(workspace, tmp_path, capsys):
    corpus = workspace / "corpus"
    out = tmp_path / "mct"
    rc = main(["build-corpus", "--manifest", str(corpus / "train.jsonl"),
               "--speech-pool", str(corpus / "speech_train.jsonl"),
               "--sbrs", "clean,-5", "--out", str(out), "--seed", "1"])
    assert rc == 0
    manifest_path = out / "manifest.jsonl"
    assert manifest_path.exists()
    lines = manifest_path.read_text().splitlines()
    assert len(lines) == 2 * 18  # {clean, -5 dB} doubles the corpus


def test_sweep_command(workspace, tmp_path, capsys):
    corpus = workspace / "corpus"
    bundle = workspace / "bundle"
    out = tmp_path / "sweep.json"
    rc = main(["sweep", "--bundle", str(bundle),
               "--manifest", str(corpus / "test.jsonl"),
               "--speech-pool", str(corpus / "speech_eval.jsonl"),
               "--sbrs", "clean,10", "--seed", "2", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert set(data["per_condition"]) == {"clean", "sbr+10dB"}


class TestExitCodes:
    def test_missing_manifest_is_manifest_code(self, tmp_path, capsys):
        rc = main(["train", "--manifest", str(tmp_path / "none.jsonl"),
                   "--out", str(tmp_path / "b")])
        assert rc == 3
        assert "manifest" in capsys.readouterr().err

    def test_missing_audio_is_audio_code(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"path": "ghost.wav", "label": "x"}\n')
        rc = main(["train", "--manifest", str(bad), "--out", str(tmp_path / "b")] + TINY_SET)
        assert rc == 4

    def test_bad_config_is_config_code(self, workspace, tmp_path, capsys):
        corpus = workspace / "corpus"
        rc = main(["train", "--manifest", str(corpus / "train.jsonl"),
                   "--out", str(tmp_path / "b"), "--set", "nonsense=1"])
        assert rc == 2

    @pytest.mark.parametrize("override", [
        "overlap=1.0", "window=bogus", "frame_ms=inf", "frame_ms=1e308",
        "fmin_hz=9000", "fmax_hz=20000", "n_mels=0", "n_mels=100000000", "n_ceps=0",
        "n_ceps=50", "sdc_n=30", "nf_init_frames=0", "psd_floor=nan", "psd_floor=inf",
        "spp_xi_h1_db=1e308", "seed=-1", "sdc_k=1000", "sdc_k=100000000",
    ])
    def test_invalid_frame_setting_is_config_code_before_audio(
        self, tmp_path, capsys, override
    ):
        # The missing file is never opened: the config is rejected first.
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"path": "ghost.wav", "label": "x"}\n')
        rc = main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "b"),
                   "--set", "noise_floor=true", "--set", override])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: [config] ")

    @pytest.mark.parametrize("command", ["train", "sweep", "synth", "mix", "build-corpus"])
    def test_negative_seed_is_usage_or_config_code(
        self, workspace, bundle, tmp_path, capsys, command
    ):
        corpus = workspace / "corpus"
        wav = str(next(corpus.glob("scenes/train_*.wav")))
        out = str(tmp_path / "out")
        argv = {
            "train": ["train", "--manifest", str(corpus / "train.jsonl"), "--out", out,
                      "--set", "seed=-1"],
            "sweep": ["sweep", "--bundle", str(bundle), "--manifest", str(corpus / "test.jsonl"),
                      "--speech-pool", str(corpus / "speech_eval.jsonl"), "--sbrs", "5",
                      "--seed", "-3"],
            "synth": ["synth", "--out", out, "--seed", "-1"] + TINY_ARGS,
            "mix": ["mix", "--background", wav, "--speech", wav, "--sbr", "0", "--out", out,
                    "--seed", "-1"],
            "build-corpus": ["build-corpus", "--manifest", str(corpus / "train.jsonl"),
                             "--speech-pool", str(corpus / "speech_train.jsonl"),
                             "--sbrs", "clean", "--out", out, "--seed", "-1"],
        }[command]
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's usage error
            rc = exc.code
        err = capsys.readouterr().err
        assert rc == 2
        assert "seed" in err and "must not be negative" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override", [
        "ubm_components=0", "tv_rank=0", "ubm_iters=-1", "kmeans_iters=-1", "tv_iters=-1",
        "alpha=3", "alpha=-0.5", "alpha=nan",
    ])
    def test_invalid_model_size_is_config_code_before_audio(self, tmp_path, capsys, override):
        # The missing file is never opened: the config is rejected first.
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"path": "ghost.wav", "label": "x"}\n')
        rc = main(["train-ubm", "--manifest", str(manifest), "--out", str(tmp_path / "u.gmm"),
                   "--set", override])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: [config] ") and override.split("=")[0] in err

    def test_kmeans_only_ubm_is_valid(self, workspace, tmp_path, capsys):
        # ubm_iters=0 keeps the k-means++ UBM; the summary has no EM likelihood.
        out = tmp_path / "u.gmm"
        rc = main(["train-ubm", "--manifest", str(workspace / "corpus" / "train.jsonl"),
                   "--out", str(out)] + TINY_SET + ["--set", "ubm_iters=0"])
        assert rc == 0
        assert out.exists()
        assert "k-means only" in capsys.readouterr().out

    def test_spectrogram_dump_of_short_clip_is_features_code(self, tmp_path, capsys):
        short = tmp_path / "short.wav"
        write_wav(short, AudioBuffer(0.1 * np.ones(300), 16000))  # under one 640-sample frame
        rc = main(["extract-features", "--audio", str(short), "--out", str(tmp_path / "f.csv"),
                   "--dump-spectrogram", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert rc == 5
        assert err.startswith("error: [features] ") and str(short) in err

    def test_bad_sbr_token_is_config_code(self, workspace, tmp_path, capsys):
        corpus = workspace / "corpus"
        rc = main(["build-corpus", "--manifest", str(corpus / "train.jsonl"),
                   "--speech-pool", str(corpus / "speech_train.jsonl"),
                   "--sbrs", "loud", "--out", str(tmp_path / "o"), "--seed", "1"])
        assert rc == 2

    def test_silent_mix_is_mixer_code(self, tmp_path, capsys):
        silent = tmp_path / "silent.wav"
        write_wav(silent, AudioBuffer(np.zeros(16000), 16000))
        rc = main(["mix", "--background", str(silent), "--speech", str(silent),
                   "--sbr", "0", "--out", str(tmp_path / "m.wav")])
        assert rc == 7

    @pytest.mark.parametrize("command", ["classify", "extract-features", "train", "sweep"])
    def test_digitally_silent_recording_is_features_code(
        self, workspace, bundle, tmp_path, capsys, command
    ):
        silent = tmp_path / "silent.wav"
        write_wav(silent, AudioBuffer(np.zeros(48000), 48000))
        corpus = workspace / "corpus"
        listed = "test.jsonl" if command == "sweep" else "train.jsonl"
        entries = [json.loads(line) for line in (corpus / listed).read_text().splitlines()[:3]]
        for e in entries:
            e["path"] = str(corpus / e["path"])
        entries.insert(1, {"path": str(silent), "label": entries[0]["label"]})
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("".join(json.dumps(e) + "\n" for e in entries))
        if command == "train":
            argv = ["train", "--manifest", str(manifest), "--out", str(tmp_path / "b")] + TINY_SET
        elif command == "sweep":
            # Mixes only: the silent clip is rejected before the mixer sees it.
            argv = ["sweep", "--bundle", str(bundle), "--manifest", str(manifest),
                    "--speech-pool", str(corpus / "speech_eval.jsonl"), "--sbrs", "5,20",
                    "--seed", "2", "--out", str(tmp_path / "b")]
        elif command == "classify":
            argv = ["classify", "--bundle", str(bundle), "--audio", str(silent)]
        else:
            argv = ["extract-features", "--audio", str(silent), "--out", str(tmp_path / "f.csv"),
                    "--dump-spectrogram", str(tmp_path / "s.csv")]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 5
        assert captured.err == f"error: [features] {silent}: recording is digitally silent\n"
        assert captured.out == ""
        assert not any((tmp_path / name).exists() for name in ("b", "f.csv", "s.csv"))

    def test_corrupt_wav_is_audio_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not a wav file at all")
        rc = main(["mix", "--background", str(bad), "--speech", str(bad),
                   "--sbr", "0", "--out", str(tmp_path / "m.wav")])
        assert rc == 4

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_unknown_label_is_evaluation_code_before_audio(
        self, bundle, tmp_path, capsys, command
    ):
        # The label check comes first, so the missing file is never opened.
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"path": "ghost.wav", "label": "unseen-label"}\n')
        rc = main([command, "--bundle", str(bundle), "--manifest", str(bad)])
        assert rc == 11
        assert "unseen-label" in capsys.readouterr().err

    def test_short_clip_is_noise_floor_code_naming_it(self, workspace, tmp_path, capsys):
        corpus = workspace / "corpus"
        short = tmp_path / "short.wav"
        write_wav(short, AudioBuffer(0.1 * np.ones(2000), 16000))  # 5 frames, n_init is 5
        lines = (corpus / "train.jsonl").read_text().splitlines()[:3]
        entries = [json.loads(line) for line in lines]
        for e in entries:
            e["path"] = str(corpus / e["path"])
        entries.insert(1, {"path": str(short), "label": entries[0]["label"]})
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("".join(json.dumps(e) + "\n" for e in entries))
        rc = main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "b"),
                   "--set", "noise_floor=true"] + TINY_SET)
        assert rc == 6
        assert str(short) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_empty_manifest_is_manifest_code(self, bundle, tmp_path, capsys, command):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = main([command, "--bundle", str(bundle), "--manifest", str(empty)])
        assert rc == 3
        assert "empty" in capsys.readouterr().err

    @pytest.mark.parametrize("sources", [[], ["--manifest", "m.jsonl", "--audio", "a.wav"]])
    def test_classify_needs_exactly_one_source(self, bundle, capsys, sources):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--bundle", str(bundle)] + sources)
        assert exc.value.code == 2
        assert "--manifest" in capsys.readouterr().err

    def test_nan_float_wav_is_audio_code(self, bundle, tmp_path, capsys):
        samples = np.full(16000, 0.1, dtype="<f4")
        samples[100] = np.nan
        wav = tmp_path / "nan.wav"
        wav.write_bytes(make_wav_bytes(samples.tobytes(), format_tag=3, bits=32))
        rc = main(["classify", "--bundle", str(bundle), "--audio", str(wav)])
        assert rc == 4
        assert "nan.wav" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train-tv", "--ubm", "BAD"],
        ["extract-ivectors", "--ubm", "UBM", "--tv", "BAD"],
        ["train-backend", "--ivectors", "BAD"],
    ])
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_bad_model_input_is_config_code(
        self, workspace, bundle, tmp_path, capsys, argv, corrupt
    ):
        bad = tmp_path / "model.bin"
        if corrupt:
            bad.write_bytes(b"SCN")
        subst = {"BAD": str(bad), "UBM": str(bundle / "ubm.gmm")}
        rc = main([subst.get(a, a) for a in argv] + [
            "--manifest", str(workspace / "corpus" / "train.jsonl"),
            "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: [config] ") and str(bad) in err
        assert "Traceback" not in err


def _damage_malformed_index(d):
    (d / "bundle.json").write_text("{not json")


def _damage_index_omits_ubm(d):
    index = json.loads((d / "bundle.json").read_text())
    del index["files"]["ubm.gmm"]
    (d / "bundle.json").write_text(json.dumps(index))
    data = (d / "ubm.gmm").read_bytes()
    (d / "ubm.gmm").write_bytes(data[: len(data) // 2])


def _rehash(d, name):
    index = json.loads((d / "bundle.json").read_text())
    index["files"][name] = sha256_hex((d / name).read_bytes())
    (d / "bundle.json").write_text(json.dumps(index))


def _damage_truncated_ubm_rehashed(d):
    data = (d / "ubm.gmm").read_bytes()
    (d / "ubm.gmm").write_bytes(data[: len(data) // 2])
    _rehash(d, "ubm.gmm")


def _damage_config_from_before_mct_removal(d):
    # Bundles written while the config had an `mct_sbrs` key carry this line.
    text = (d / "config.txt").read_text()
    (d / "config.txt").write_text(text.replace("seed =", "mct_sbrs = none\nseed ="))
    _rehash(d, "config.txt")


def _damage_tv_byte_flipped(d):
    data = bytearray((d / "tv.tvm").read_bytes())
    data[-1] ^= 0xFF
    (d / "tv.tvm").write_bytes(bytes(data))


def _damage_backend_magic_rehashed(d):
    data = (d / "backend.gbe").read_bytes()
    (d / "backend.gbe").write_bytes(b"XXXX" + data[4:])
    _rehash(d, "backend.gbe")


def _damage_backend_version_1_rehashed(d):
    # Version 1 also stored the derived covariances; such a bundle is retrained.
    data = (d / "backend.gbe").read_bytes()
    (d / "backend.gbe").write_bytes(data[:4] + struct.pack("<H", 1) + data[6:])
    _rehash(d, "backend.gbe")


def _damage_ubm_replaced_by_directory(d):
    (d / "ubm.gmm").unlink()
    (d / "ubm.gmm").mkdir()


@pytest.mark.parametrize("damage, named", [
    (_damage_malformed_index, "bundle.json"),
    (_damage_index_omits_ubm, "bundle.json"),
    (_damage_truncated_ubm_rehashed, "ubm.gmm"),
    (_damage_config_from_before_mct_removal, "mct_sbrs"),
    (_damage_tv_byte_flipped, "tv.tvm"),
    (_damage_backend_magic_rehashed, "backend.gbe"),
    (_damage_backend_version_1_rehashed, "backend.gbe: container version 1, expected 2"),
    (_damage_ubm_replaced_by_directory, "ubm.gmm"),
])
def test_bad_bundle_is_config_code(workspace, bundle, tmp_path, capsys, damage, named):
    damaged = tmp_path / "bundle"
    shutil.copytree(bundle, damaged)
    damage(damaged)
    wav = next((workspace / "corpus").glob("scenes/test_*.wav"))
    rc = main(["classify", "--bundle", str(damaged), "--audio", str(wav)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: [config] ") and named in err


def test_bundle_files_are_read_once(bundle, tmp_path, monkeypatch):
    # Each file is hashed and parsed from one read; saving opens each file
    # once, to write it, and reads none back.
    opened = []
    written = []

    def counting(real):
        def wrapper(file, *args, **kwargs):
            mode = args[0] if args else kwargs.get("mode", "r")
            (written if "w" in mode else opened).append(Path(file).name)
            return real(file, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(io, "open", counting(io.open))
    monkeypatch.setattr(builtins, "open", counting(builtins.open))
    loaded = ModelBundle.load(bundle)
    assert sorted(opened) == sorted(["bundle.json", "config.txt", "ubm.gmm", "tv.tvm",
                                     "backend.gbe"])
    assert written == []
    opened.clear()
    loaded.save(tmp_path / "again")
    assert opened == []
    assert sorted(written) == sorted(["bundle.json", "config.txt", "ubm.gmm", "tv.tvm",
                                      "backend.gbe"])
    monkeypatch.undo()
    assert json.loads((tmp_path / "again" / "bundle.json").read_text()).keys() == {"files"}
    for name in ("config.txt", "ubm.gmm", "tv.tvm", "backend.gbe", "bundle.json"):
        assert (tmp_path / "again" / name).read_bytes() == (bundle / name).read_bytes(), name


@pytest.mark.parametrize("argv, bad", [
    (["train", "--manifest", "TRAIN", "--out", "FILE"] + TINY_SET, "FILE"),
    (["train-ubm", "--manifest", "TRAIN", "--out", "MISSING"] + TINY_SET, "MISSING"),
    (["train-tv", "--manifest", "TRAIN", "--ubm", "UBM", "--out", "MISSING"] + TINY_SET,
     "MISSING"),
    (["extract-ivectors", "--manifest", "TRAIN", "--ubm", "UBM", "--tv", "TV",
      "--out", "MISSING"], "MISSING"),
    (["train-backend", "--manifest", "TRAIN", "--ivectors", "IVEC", "--out", "MISSING"],
     "MISSING"),
    (["classify", "--bundle", "BUNDLE", "--audio", "WAV", "--out", "MISSING"], "MISSING"),
    (["evaluate", "--bundle", "BUNDLE", "--manifest", "TEST", "--out", "MISSING"], "MISSING"),
    (["sweep", "--bundle", "BUNDLE", "--manifest", "TEST", "--out", "MISSING"], "MISSING"),
    (["extract-features", "--audio", "WAV", "--out", "MISSING"], "MISSING"),
    (["extract-features", "--audio", "WAV", "--out", "OK", "--dump-spectrogram", "MISSING"],
     "MISSING"),
    (["extract-features", "--audio", "WAV", "--out", "OK", "--dump-noise-floor", "MISSING"],
     "MISSING"),
    (["mix", "--background", "WAV", "--speech", "SPEECH", "--sbr", "5", "--out", "MISSING"],
     "MISSING"),
    (["synth", "--out", "FILE"] + TINY_ARGS, "FILE"),
], ids=["train-over-file", "train-ubm", "train-tv", "extract-ivectors", "train-backend",
        "classify", "evaluate", "sweep", "extract-features", "dump-spectrogram",
        "dump-noise-floor", "mix", "synth-over-file"])
def test_unwritable_output_is_config_code(workspace, bundle, tmp_path, capsys, argv, bad):
    corpus = workspace / "corpus"
    manifest = [json.loads(line) for line in (corpus / "train.jsonl").read_text().splitlines()]
    ivectors = tmp_path / "w.ivec"
    ivectors.write_bytes(ivectors_to_bytes(
        [e["path"] for e in manifest], np.random.default_rng(0).normal(size=(len(manifest), 4))
    ))
    (tmp_path / "file").write_text("")
    subst = {
        "TRAIN": corpus / "train.jsonl", "TEST": corpus / "test.jsonl", "BUNDLE": bundle,
        "UBM": bundle / "ubm.gmm", "TV": bundle / "tv.tvm", "IVEC": ivectors,
        "WAV": next(corpus.glob("scenes/test_*.wav")),
        "SPEECH": next(corpus.glob("speech/*.wav")),
        "FILE": tmp_path / "file", "MISSING": tmp_path / "missing" / "out",
        "OK": tmp_path / "ok.csv",
    }
    rc = main([str(subst.get(a, a)) for a in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: [config] ") and str(subst[bad]) in err
