import argparse
import builtins
import importlib
import importlib.util
import io
import json
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sceneid
from sceneid import backend as backend_mod
from sceneid import cli, pipeline
from sceneid.audio import AudioBuffer, frame_signal, read_wav, write_wav
from sceneid.backend import score
from sceneid.cli import build_parser, main
from sceneid.config import PipelineConfig
from sceneid.features import power_spectrogram
from sceneid.gmm import accumulate_stats
from sceneid.ivector import extract_ivector, ivectors_to_bytes
from sceneid.manifest import CorpusManifest
from sceneid.mixer import draw_speech, usable_speech_pool
from sceneid.noisefloor import noise_floor_spectrogram
from sceneid.pipeline import ModelBundle, features_for_buffers, load_audio
from sceneid.serialize import sha256_hex
from sceneid.synth import scene_clip, speech_clip

from conftest import make_wav_bytes, pcm16_wav_bytes

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
        buf = load_audio(wav, model.config.sample_rate)
        (feats,) = features_for_buffers([(wav, buf)], model.config)
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


def test_benchmark_tracer_installs():
    """The benchmark's traced runs can wrap every layer: run in a fresh
    interpreter, since installing rebinds functions in every sceneid module,
    and one that writes no bytecode cache into bench/."""
    root = Path(__file__).resolve().parent.parent
    path = [str(root / "src"), str(root / "bench"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = (
        "import importlib, spans\n"
        "spans.Tracer().install()\n"
        "for name in spans.LAYERS:\n"
        "    module, *attrs = name.split('.')\n"
        "    obj = importlib.import_module('sceneid.' + module)\n"
        "    for attr in attrs:\n"
        "        obj = getattr(obj, attr)\n"
        "    assert hasattr(obj, '__wrapped__'), name\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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
        buf = load_audio(wav, cfg.sample_rate)
        (want,) = features_for_buffers([(str(wav), buf)], cfg)
        assert out.read_text().startswith("frame,f0,f1,")
        got = np.loadtxt(out, delimiter=",", skiprows=1)
        assert want.dim == 76
        assert np.array_equal(got[:, 0], np.arange(want.n_frames))
        assert np.array_equal(got[:, 1:], want.rows)
    power = power_spectrogram(frame_signal(buf, cfg.to_feature_config().frame))
    floor = noise_floor_spectrogram(power, cfg.to_spp_params())
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


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    """README's Quick start runs as written, from a relative working directory,
    with tiny corpus and model sizes appended."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start", 1)[1].split("\n## ", 1)[0]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("sceneid ")]
    assert [c[0] for c in commands] == [
        "synth", "train", "evaluate", "sweep", "build-corpus", "train"
    ]
    tiny = {
        "synth": TINY_ARGS,
        "train": ["--set", "ubm_components=8", "--set", "ubm_iters=2", "--set", "kmeans_iters=2",
                  "--set", "tv_rank=4", "--set", "tv_iters=1"],
    }
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv + tiny.get(argv[0], [])) == 0, argv
        capsys.readouterr()
    assert (tmp_path / "bundle_mct" / "bundle.json").is_file()


def test_module_runs_cli(tmp_path):
    """`python -m sceneid` is the CLI, exit code included."""
    src = Path(sceneid.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "sceneid", "train", "--manifest", "m.jsonl",
         "--out", "b", "--set", "nonsense=1"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: [config] unknown config key 'nonsense'\n"


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


def _mono_and_stereo(x, rng):
    """16-bit-exact (mono, interleaved stereo) samples of `x`; the stereo
    channels differ, and their average is exactly the mono clip."""
    ints = np.round(np.asarray(x) * 16384.0)
    diff = rng.integers(-4096, 4097, size=ints.size)
    stereo = np.stack([ints + diff, ints - diff], axis=1).reshape(-1)
    return ints / 32768.0, stereo / 32768.0


def _write_pair(directory, name, x, rate, rng):
    """Write `x` as a mono and a stereo WAV of the same name, in directory/mono
    and directory/stereo; returns the two paths."""
    paths = []
    for layout, samples in zip(("mono", "stereo"), _mono_and_stereo(x, rng)):
        path = directory / layout / name
        path.parent.mkdir(parents=True, exist_ok=True)
        write_wav(path, AudioBuffer(samples, rate, 1 if layout == "mono" else 2))
        paths.append(path)
    return paths


@pytest.mark.parametrize("stereo", ["background", "speech"])
def test_mix_of_stereo_file_mixes_its_downmix(tmp_path, capsys, stereo):
    rng = np.random.default_rng(3)
    files = {
        "background": _write_pair(tmp_path, "bg.wav", scene_clip(0, 16000, 16000, rng),
                                  16000, rng),
        "speech": _write_pair(tmp_path, "sp.wav", speech_clip(16000, 16000, rng, 180.0),
                              16000, rng),
    }
    runs = []
    for layout in (0, 1):  # mono, then the stereo file in the `stereo` role
        out = tmp_path / f"mix{layout}.wav"
        chosen = {role: pair[layout if role == stereo else 0] for role, pair in files.items()}
        assert main(["mix", "--background", str(chosen["background"]),
                     "--speech", str(chosen["speech"]), "--sbr", "5", "--seed", "4",
                     "--out", str(out)]) == 0
        spec = json.loads(capsys.readouterr().out)
        del spec[f"{stereo}_id"]  # the file names differ
        runs.append((out.read_bytes(), spec))
    assert runs[1] == runs[0]


def test_build_corpus_of_stereo_files_mixes_their_downmix(tmp_path, capsys):
    rng = np.random.default_rng(8)
    for i in range(2):
        _write_pair(tmp_path, f"bg{i}.wav", scene_clip(i, 16000, 16000, rng), 16000, rng)
        _write_pair(tmp_path, f"sp{i}.wav", speech_clip(16000, 16000, rng, 150.0 + 40 * i),
                    16000, rng)
    built = []
    for layout in ("mono", "stereo"):
        root = tmp_path / layout
        (root / "bg.jsonl").write_text("".join(
            json.dumps({"path": f"bg{i}.wav", "label": f"c{i}"}) + "\n" for i in range(2)))
        (root / "sp.jsonl").write_text("".join(
            json.dumps({"path": f"sp{i}.wav", "label": "speech", "speaker_id": f"s{i}"}) + "\n"
            for i in range(2)))
        out = root / "out"
        assert main(["build-corpus", "--manifest", str(root / "bg.jsonl"),
                     "--speech-pool", str(root / "sp.jsonl"), "--sbrs=-5,10",
                     "--seed", "3", "--out", str(out)]) == 0
        built.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(built[0]) == 5  # four mixes and the manifest
    assert built[1] == built[0]


@pytest.mark.parametrize("mixed_formats", [False, True],
                         ids=["mono-same-rate", "48k-and-stereo-backgrounds-16k-speech"])
def test_build_corpus_mixes_are_reproduced_by_mix(tmp_path, capsys, mixed_formats):
    # Every mixed entry's WAV is `mix` of its background and the speech clip
    # `draw_speech` picks, at the seed its manifest record holds.
    rng = np.random.default_rng(21)
    layouts = [(48000, 1), (44100, 2)] if mixed_formats else [(16000, 1), (16000, 1)]
    backgrounds = []
    for i, (rate, channels) in enumerate(layouts):
        name = f"bg{i}.wav"
        samples = _mono_and_stereo(scene_clip(i, rate, rate, rng), rng)[channels - 1]
        write_wav(tmp_path / name, AudioBuffer(samples, rate, channels))
        backgrounds.append({"path": name, "label": f"c{i}"})
    speech = []
    for i in range(3):
        name = f"sp{i}.wav"
        write_wav(tmp_path / name, AudioBuffer(speech_clip(16000, 16000, rng, 140.0 + 30 * i),
                                               16000))
        speech.append({"path": name, "label": "speech", "speaker_id": f"s{i}"})
    for name, records in (("bg.jsonl", backgrounds), ("sp.jsonl", speech)):
        (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "out"
    sbrs = [None, -5.0, 10.0]
    assert main(["build-corpus", "--manifest", str(tmp_path / "bg.jsonl"),
                 "--speech-pool", str(tmp_path / "sp.jsonl"), "--sbrs", "clean,-5,10",
                 "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    pool = usable_speech_pool(CorpusManifest.load(tmp_path / "sp.jsonl"), sbrs)
    records = [json.loads(line) for line in (out / "manifest.jsonl").read_text().splitlines()]
    assert len(records) == len(sbrs) * len(backgrounds)
    for k, record in enumerate(records):
        ci, ei = divmod(k, len(backgrounds))
        if sbrs[ci] is None:
            continue
        seed, speech_entry = draw_speech(pool, 7, ci, ei)
        assert (record["seed"], record["speaker_id"]) == (seed, speech_entry.speaker_id)
        again = tmp_path / f"again{k}.wav"
        assert main(["mix", "--background", str(tmp_path / backgrounds[ei]["path"]),
                     "--speech", str(tmp_path / speech_entry.path), f"--sbr={sbrs[ci]}",
                     "--seed", str(record["seed"]), "--out", str(again)]) == 0
        assert again.read_bytes() == (out / record["path"]).read_bytes()
        assert read_wav(again).sample_rate == layouts[ei][0]


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
        "overlap=1.0", "window=bogus", "frame_ms=inf", "frame_ms=1e308", "frame_ms=97838919",
        "fmin_hz=9000", "fmin_hz=7999", "fmax_hz=20000", "n_mels=0", "n_mels=100000000", "n_ceps=0",
        "n_ceps=50", "sdc_n=30", "nf_init_frames=0", "psd_floor=nan", "psd_floor=inf",
        "spp_xi_h1_db=1e308", "seed=-1", "sdc_k=1000", "sdc_k=100000000",
        "sdc_p=100000000000000000000", "sdc_m=100000000000000000000",
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

    @pytest.mark.parametrize(
        "command, option, content",
        [
            ("train", "--manifest", None),
            ("sweep", "--speech-pool", None),
            ("train", "--manifest", b"5\n"),
            ("train", "--manifest", b'{"path": 5, "label": "x"}\n'),
            ("train", "--manifest", b'{"path": "a.wav", "label": "x"}\n\xff\xfe\n'),
            ("evaluate", "--manifest",
             b'{"path": "a.wav", "label": "x"}\n{"path": "b.wav", "label": 5}\n'),
        ],
        ids=["directory", "pool-directory", "not-an-object", "path-type", "not-utf8",
             "label-type"],
    )
    def test_malformed_manifest_is_manifest_code(
        self, workspace, bundle, tmp_path, capsys, command, option, content
    ):
        bad = tmp_path / "bad.jsonl"
        if content is None:
            bad.mkdir()
        else:
            bad.write_bytes(content)
        argv = [command, option, str(bad)]
        if command == "train":
            argv += ["--out", str(tmp_path / "b")] + TINY_SET
        else:
            argv += ["--bundle", str(bundle)]
        if option == "--speech-pool":
            argv += ["--manifest", str(workspace / "corpus" / "test.jsonl"), "--sbrs", "clean,5"]
        rc = main(argv)
        err = capsys.readouterr().err.splitlines()
        assert rc == 3
        assert len(err) == 1 and err[0].startswith("error: [manifest] "), err
        assert str(bad) in err[0]

    @pytest.mark.parametrize("sources", [[], ["--manifest", "m.jsonl", "--audio", "a.wav"]])
    def test_classify_needs_exactly_one_source(self, bundle, capsys, sources):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--bundle", str(bundle)] + sources)
        assert exc.value.code == 2
        assert "--manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["corrupt", "truncated", "missing", "non-finite",
                                      "ragged"])
    @pytest.mark.parametrize("command", ["extract-features", "classify", "mix",
                                         "build-corpus-background", "build-corpus-speech"])
    def test_unreadable_wav_is_audio_code_naming_it_once(
        self, workspace, bundle, tmp_path, capsys, kind, command
    ):
        corpus = workspace / "corpus"
        bad = tmp_path / "bad.wav"
        content = {
            "corrupt": b"not a wav file at all",
            "truncated": pcm16_wav_bytes(range(100))[:-50],
            "non-finite": make_wav_bytes(np.array([0.25, np.nan], dtype="<f4").tobytes(),
                                         format_tag=3, bits=32),
            "ragged": make_wav_bytes(b"\x01\x00\x02"),
        }
        if kind != "missing":
            bad.write_bytes(content[kind])
        good = next(corpus.glob("scenes/train_*.wav"))
        listed = tmp_path / "m.jsonl"
        listed.write_text(json.dumps({"path": str(bad), "label": "x", "speaker_id": "s"}) + "\n")
        other = tmp_path / "ok.jsonl"
        other.write_text(json.dumps({"path": str(good), "label": "x", "speaker_id": "s"}) + "\n")
        out = str(tmp_path / "out")
        argv = {
            "extract-features": ["extract-features", "--audio", str(bad), "--out", out],
            "classify": ["classify", "--bundle", str(bundle), "--audio", str(bad)],
            "mix": ["mix", "--background", str(good), "--speech", str(bad), "--sbr", "0",
                    "--out", out],
            "build-corpus-background": ["build-corpus", "--manifest", str(listed),
                                        "--speech-pool", str(other), "--sbrs", "5",
                                        "--out", out],
            "build-corpus-speech": ["build-corpus", "--manifest", str(other),
                                    "--speech-pool", str(listed), "--sbrs", "5",
                                    "--out", out],
        }[command]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 4
        assert err.startswith(f"error: [audio-io] {bad}: ") and err.endswith("\n")
        assert err.count(str(bad)) == 1 and err.count("\n") == 1

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


def _damage_tv_truncated_in_header_rehashed(d):
    data = (d / "tv.tvm").read_bytes()
    (d / "tv.tvm").write_bytes(data[:40])  # inside the UBM checksum string
    _rehash(d, "tv.tvm")


def _damage_tv_truncated_mid_payload_rehashed(d):
    data = (d / "tv.tvm").read_bytes()
    (d / "tv.tvm").write_bytes(data[: len(data) // 2 // 8 * 8])
    _rehash(d, "tv.tvm")


def _damage_tv_payload_not_whole_doubles_rehashed(d):
    data = (d / "tv.tvm").read_bytes()
    (d / "tv.tvm").write_bytes(data[:-5])
    _rehash(d, "tv.tvm")


def _trailing_bytes_rehashed(name):
    def damage(d):
        (d / name).write_bytes((d / name).read_bytes() + bytes(16))
        _rehash(d, name)
    damage.__name__ = f"_damage_trailing_bytes_on_{name.replace('.', '_')}_rehashed"
    return damage


def _damage_tv_header_byte_flipped(d):
    data = bytearray((d / "tv.tvm").read_bytes())
    data[10] ^= 0xFF
    (d / "tv.tvm").write_bytes(bytes(data))


@pytest.mark.parametrize("damage, named", [
    (_damage_malformed_index, "bundle.json"),
    (_damage_index_omits_ubm, "bundle.json"),
    (_damage_truncated_ubm_rehashed, "ubm.gmm"),
    (_damage_config_from_before_mct_removal, "mct_sbrs"),
    (_damage_tv_byte_flipped, "tv.tvm"),
    (_damage_backend_magic_rehashed, "backend.gbe"),
    (_damage_backend_version_1_rehashed, "backend.gbe: container version 1, expected 2"),
    (_damage_ubm_replaced_by_directory, "ubm.gmm"),
    (_damage_tv_truncated_in_header_rehashed, "tv.tvm: container truncated"),
    (_damage_tv_truncated_mid_payload_rehashed, "tv.tvm: container truncated"),
    (_damage_tv_payload_not_whole_doubles_rehashed, "tv.tvm: container truncated"),
    (_trailing_bytes_rehashed("tv.tvm"), "tv.tvm: trailing bytes"),
    (_trailing_bytes_rehashed("ubm.gmm"), "ubm.gmm: trailing bytes"),
    (_trailing_bytes_rehashed("backend.gbe"), "backend.gbe: trailing bytes"),
    (_damage_tv_header_byte_flipped, "bundle file corrupted: tv.tvm"),
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


def test_output_directories_are_created_with_parents(tmp_path, capsys):
    out = tmp_path / "new" / "nested" / "corpus"
    assert main(["synth", "--out", str(out), "--seed", "1"] + TINY_ARGS) == 0
    assert (out / "train.jsonl").is_file()


@pytest.mark.parametrize("argv, bad", [
    (["train", "--manifest", "TRAIN", "--out", "FILE"] + TINY_SET, "FILE"),
    (["train", "--manifest", "TRAIN", "--out", "UNDER_FILE"] + TINY_SET, "UNDER_FILE"),
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
    (["build-corpus", "--manifest", "TRAIN", "--speech-pool", "POOL", "--sbrs", "5",
      "--out", "FILE"], "FILE"),
    (["build-corpus", "--manifest", "TRAIN", "--speech-pool", "POOL", "--sbrs", "clean,5",
      "--out", "TAKEN"], "TAKEN"),
], ids=["train-over-file", "train-under-file", "train-ubm", "train-tv", "extract-ivectors",
        "train-backend", "classify", "evaluate", "sweep", "extract-features", "dump-spectrogram",
        "dump-noise-floor", "mix", "synth-over-file", "build-corpus-over-file",
        "build-corpus-manifest-is-a-directory"])
def test_unwritable_output_is_config_code(workspace, bundle, tmp_path, capsys, monkeypatch,
                                          argv, bad):
    corpus = workspace / "corpus"
    manifest = [json.loads(line) for line in (corpus / "train.jsonl").read_text().splitlines()]
    ivectors = tmp_path / "w.ivec"
    ivectors.write_bytes(ivectors_to_bytes(
        [e["path"] for e in manifest], np.random.default_rng(0).normal(size=(len(manifest), 4))
    ))
    (tmp_path / "file").write_text("")
    (tmp_path / "taken" / "manifest.jsonl").mkdir(parents=True)
    subst = {
        "TRAIN": corpus / "train.jsonl", "TEST": corpus / "test.jsonl", "BUNDLE": bundle,
        "UBM": bundle / "ubm.gmm", "TV": bundle / "tv.tvm", "IVEC": ivectors,
        "WAV": next(corpus.glob("scenes/test_*.wav")),
        "SPEECH": next(corpus.glob("speech/*.wav")), "POOL": corpus / "speech_train.jsonl",
        "FILE": tmp_path / "file", "UNDER_FILE": tmp_path / "file" / "bundle",
        "MISSING": tmp_path / "missing" / "out",
        "OK": tmp_path / "ok.csv", "TAKEN": tmp_path / "taken",
    }

    def work_started(*args, **kwargs):
        raise AssertionError("the output was checked only after work began")

    # The check comes before any audio is read or mixed or any model is
    # trained, also for the manifest build-corpus writes last into its --out.
    for name in ("manifest_features", "load_audio", "train_backend"):
        monkeypatch.setattr(pipeline, name, work_started)
    rc = main([str(subst.get(a, a)) for a in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: [config] ") and str(subst[bad]) in err


def _forbid_audio(monkeypatch):
    def read(*args, **kwargs):
        raise AssertionError("audio was read before the arguments were checked")

    monkeypatch.setattr(pipeline, "load_audio", read)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "-Infinity"])
def test_non_finite_mix_sbr_is_usage_error(workspace, tmp_path, capsys, monkeypatch, value):
    wav = str(next((workspace / "corpus").glob("scenes/train_*.wav")))
    _forbid_audio(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["mix", "--background", wav, "--speech", wav, f"--sbr={value}",
              "--out", str(tmp_path / "m.wav")])
    assert exc.value.code == 2
    assert f"argument --sbr: invalid finite_sbr value: '{value}'" in capsys.readouterr().err
    assert not (tmp_path / "m.wav").exists()


@pytest.mark.parametrize("command", ["build-corpus", "sweep"])
@pytest.mark.parametrize("sbrs", ["nan", "inf", "-inf", "clean,-inf", "5,nan"])
def test_non_finite_sbrs_are_config_code(workspace, bundle, tmp_path, capsys, monkeypatch,
                                         command, sbrs):
    corpus = workspace / "corpus"
    _forbid_audio(monkeypatch)
    argv = {
        "build-corpus": ["build-corpus", "--manifest", str(corpus / "train.jsonl"),
                         "--speech-pool", str(corpus / "speech_train.jsonl"),
                         "--out", str(tmp_path / "out")],
        "sweep": ["sweep", "--bundle", str(bundle), "--manifest", str(corpus / "test.jsonl"),
                  "--speech-pool", str(corpus / "speech_eval.jsonl"),
                  "--out", str(tmp_path / "out")],
    }[command]
    rc = main(argv + [f"--sbrs={sbrs}"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: [config] bad SBR token") and "finite" in err
    assert not (tmp_path / "out").exists()


def test_overflowing_mix_sbr_is_mixer_code(workspace, tmp_path, capsys):
    corpus = workspace / "corpus"
    bg = next(corpus.glob("scenes/train_*.wav"))
    sp = next(corpus.glob("speech/*.wav"))
    rc = main(["mix", "--background", str(bg), "--speech", str(sp), "--sbr=1e308",
               "--out", str(tmp_path / "m.wav")])
    captured = capsys.readouterr()
    assert rc == 7
    assert captured.err.startswith(f"error: [mixer] {bg}: ")
    assert "no usable mix" in captured.err and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not (tmp_path / "m.wav").exists()


@pytest.mark.parametrize("command", ["build-corpus", "sweep"])
def test_sbrs_list_starting_negative_parses_as_its_value(workspace, bundle, tmp_path, capsys,
                                                          command):
    # `--sbrs -5,10` gives what `--sbrs=-5,10` gives.
    corpus = workspace / "corpus"
    outputs = []
    for form in (["--sbrs", "-5,10"], ["--sbrs=-5,10"]):
        out = tmp_path / f"out{len(outputs)}"
        argv = {
            "build-corpus": ["build-corpus", "--manifest", str(corpus / "train.jsonl"),
                             "--speech-pool", str(corpus / "speech_train.jsonl"),
                             "--seed", "4", "--out", str(out)],
            "sweep": ["sweep", "--bundle", str(bundle),
                      "--manifest", str(corpus / "test.jsonl"),
                      "--speech-pool", str(corpus / "speech_eval.jsonl"),
                      "--seed", "4", "--out", str(out)],
        }[command]
        assert main(argv + form) == 0
        if command == "sweep":
            outputs.append(out.read_bytes())
            assert set(json.loads(outputs[-1])["per_condition"]) == {"sbr-5dB", "sbr+10dB"}
        else:
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            assert len(outputs[-1]) == 2 * 18 + 1
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("option, value", [
    ("--classes", "5"), ("--classes", "0"), ("--sample-rate", "0"),
    ("--clip-seconds", "0"), ("--clip-seconds", "-1"), ("--clip-seconds", "nan"),
    ("--clip-seconds", "inf"), ("--train-per-class", "-1"), ("--test-per-class", "-1"),
])
def test_bad_synth_argument_is_config_code_writing_nothing(tmp_path, capsys, option, value):
    out = tmp_path / "corpus"
    rc = main(["synth", "--out", str(out)] + TINY_ARGS + [option, value])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: [config] ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()
