import argparse
import builtins
import hashlib
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
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sceneid
from sceneid import backend as backend_mod
from sceneid import audio, cli, noisefloor, pipeline
from sceneid.audio import AudioBuffer, frame_signal, read_wav, wav_bytes
from sceneid.backend import backend_from_bytes, score
from sceneid.cli import build_parser, main
from sceneid.config import PipelineConfig
from sceneid.features import power_spectrogram
from sceneid.gmm import accumulate_stats, gmm_from_bytes
from sceneid.ivector import extract_ivector, ivectors_to_bytes, tv_from_bytes, tv_to_bytes
from sceneid.manifest import CorpusManifest
from sceneid.mixer import draw_speech, usable_speech_pool
from sceneid.noisefloor import noise_floor_spectrogram
from sceneid.pipeline import ModelBundle, features_for_buffers, file_digest, load_audio
from sceneid.serialize import HEADER_BYTES, sha256_hex
from sceneid.synth import MAX_CLIP_SAMPLES, generate_corpus, scene_clip, speech_clip

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
        ((_, feats),) = features_for_buffers([(wav, buf)], model.config)
        w = extract_ivector(model.tv, model.ubm, accumulate_stats(model.ubm, feats))
        want = score(model.backend, w)
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


def _run_with_bench(code, *args):
    """Run `code` with bench/ importable: in a fresh interpreter, since
    installing the benchmark's tracer rebinds functions in every sceneid
    module, and one that writes no bytecode cache into bench/."""
    root = Path(__file__).resolve().parent.parent
    path = [str(root / "src"), str(root / "bench"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True)


def test_benchmark_tracer_installs():
    """The benchmark's traced runs can wrap every layer."""
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
    proc = _run_with_bench(code)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_counts_layers(tmp_path):
    """A traced synth, train, sweep and classify counts the UBM's frames, the
    recordings given iVectors and the mixes made: a counter that a change of
    argument type breaks fails here, not only in a traced benchmark run."""
    corpus, bundle = tmp_path / "corpus", tmp_path / "bundle"
    tiny = ["--set", "ubm_components=4", "--set", "ubm_iters=2", "--set", "kmeans_iters=2",
            "--set", "tv_rank=2", "--set", "tv_iters=1"]
    runs = [
        ["synth", "--out", str(corpus), "--classes", "2", "--train-per-class", "3",
         "--test-per-class", "1", "--clip-seconds", "1.0"],
        ["train", "--manifest", str(corpus / "train.jsonl"), "--out", str(bundle)] + tiny,
        ["sweep", "--bundle", str(bundle), "--manifest", str(corpus / "test.jsonl"),
         "--speech-pool", str(corpus / "speech_eval.jsonl"), "--sbrs", "clean,5"],
        ["classify", "--bundle", str(bundle), "--manifest", str(corpus / "test.jsonl")],
    ]
    code = (
        "import json, sys, spans\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"
        "from sceneid import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "metrics = tracer.layer_metrics(0.0)\n"
        "for name in ('gmm.train_ubm.frames', 'ivector.extract_ivectors.recordings',\n"
        "             'mixer.mix_at_sbr.calls'):\n"
        "    assert metrics[name] > 0, (name, metrics[name])\n"
    )
    proc = _run_with_bench(code, json.dumps(runs))
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


def _step_argv(command, entries, bundle, tmp_path, name) -> list:
    """`train-tv` or `extract-ivectors` over the manifest entries `entries`,
    written to tmp_path/name.jsonl, with the bundle's models."""
    manifest = tmp_path / f"{name}.jsonl"
    manifest.write_text("".join(json.dumps(e) + "\n" for e in entries))
    models = ["--ubm", str(bundle / "ubm.gmm")]
    if command == "extract-ivectors":
        models += ["--tv", str(bundle / "tv.tvm")]
    return [command, "--manifest", str(manifest), *models, "--out", str(tmp_path / "out")]


def _train_entries(workspace) -> list:
    corpus = workspace / "corpus"
    entries = [json.loads(line) for line in (corpus / "train.jsonl").read_text().splitlines()]
    return [{"path": str(corpus / e["path"]), "label": e["label"]} for e in entries]


@pytest.mark.parametrize("command", ["train-tv", "extract-ivectors"])
def test_step_command_streams_to_the_one_fault_in_a_later_chunk(
    workspace, bundle, tmp_path, capsys, command
):
    # The step commands draw recordings chunk by chunk: a recording too short
    # for the tracker in the second feature chunk still fails in its own stage,
    # named, and nothing is written.
    short = tmp_path / "short.wav"
    short.write_bytes(wav_bytes(AudioBuffer(0.1 * np.ones(2000), 16000)))  # 5 frames
    entries = _train_entries(workspace)
    entries.insert(pipeline.FEATURE_CHUNK + 1, {"path": str(short), "label": entries[0]["label"]})
    argv = _step_argv(command, entries, bundle, tmp_path, "m")
    rc = main(argv + ["--set", "noise_floor=true"] + TINY_SET)
    err = capsys.readouterr().err
    assert rc == 6
    assert err.startswith(f"error: [noise-floor] {short}: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_step_commands_hold_a_feature_chunk_not_every_recording(
    workspace, bundle, tmp_path, monkeypatch, capsys
):
    # extract-ivectors holds one feature chunk and the iVector rows; train-tv
    # holds one feature chunk and every recording's statistics. Doubling the
    # recordings from N to 2N raises the traced peak by less than a chunk of
    # feature rows (plus N recordings' statistics for train-tv), not by N
    # recordings' rows.
    monkeypatch.setattr(pipeline, "FEATURE_CHUNK", 4)
    n = 12
    entries = _train_entries(workspace)
    ((_, feats),) = features_for_buffers(
        [("clip", load_audio(entries[0]["path"], 16000))], PipelineConfig()
    )
    ubm = gmm_from_bytes((bundle / "ubm.gmm").read_bytes())
    chunk_bytes = pipeline.FEATURE_CHUNK * feats.nbytes  # every clip has the same length
    stats_bytes = n * (ubm.means.size + ubm.weights.size) * 8

    def peak(command, count):
        picked = []
        for i in range(count):  # a stride coprime to the class blocks visits every class
            e = entries[(5 * i) % len(entries)]
            copy = tmp_path / f"{count}_{i:02d}.wav"  # one file per manifest entry
            shutil.copyfile(e["path"], copy)
            picked.append({"path": str(copy), "label": e["label"]})
        argv = _step_argv(command, picked, bundle, tmp_path, str(count)) + TINY_SET
        assert main(argv) == 0  # warms caches and lazy imports
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for command, bound in [("extract-ivectors", chunk_bytes),
                           ("train-tv", chunk_bytes + stats_bytes)]:
        small, large = peak(command, n), peak(command, 2 * n)
        assert large - small < bound, (command, small, large, bound)


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
        ((_, want),) = features_for_buffers([(str(wav), buf)], cfg)
        assert out.read_text().startswith("frame,f0,f1,")
        got = np.loadtxt(out, delimiter=",", skiprows=1)
        assert want.shape[1] == 76
        assert np.array_equal(got[:, 0], np.arange(want.shape[0]))
        assert np.array_equal(got[:, 1:], want)
    power = power_spectrogram(frame_signal(buf, cfg.to_feature_config().frame))
    floor = noise_floor_spectrogram(power, cfg.to_spp_params())
    for path, frames in ((spec, power), (nf, floor)):
        assert np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1)[:, 1:], frames)


@pytest.mark.parametrize("noise_floor", ["false", "true"])
def test_extract_features_is_one_front_end_pass(workspace, tmp_path, monkeypatch, capsys,
                                                noise_floor):
    # Features and both dumps come from one framing and one tracker run,
    # whether the features take the raw spectrogram or the tracked floor.
    calls = {"frame_signal": 0, "track_noise_floor": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        for mod in [m for n, m in sys.modules.items() if n.startswith("sceneid")]:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, wrapper)

    counted(audio, "frame_signal")
    counted(noisefloor, "track_noise_floor")
    wav = next((workspace / "corpus").glob("scenes/train_*.wav"))
    rc = main(["extract-features", "--audio", str(wav), "--out", str(tmp_path / "f.csv"),
               "--dump-spectrogram", str(tmp_path / "s.csv"),
               "--dump-noise-floor", str(tmp_path / "nf.csv"),
               "--set", f"noise_floor={noise_floor}"])
    assert rc == 0
    assert calls == {"frame_signal": 1, "track_noise_floor": 1}


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


def test_readme_defaults_and_exit_codes_match_the_code():
    # The Configuration table lists each key once, with the value a config
    # snapshot writes for it; the CLI section's exit codes are EXIT_CODES.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    config = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    listed = []
    for line in config.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        for key, value in zip(cells[0::2], cells[1::2]):
            if key.startswith("`"):
                value = value.split(" (", 1)[0]  # `none (Nyquist)` reads as `none`
                if key == "`sdc_m,k,n,p`":
                    listed += zip(("sdc_m", "sdc_k", "sdc_n", "sdc_p"), value.split(","))
                else:
                    listed.append((key.strip("`"), value))
    snapshot = PipelineConfig().snapshot_text().splitlines()
    assert sorted(listed) == sorted(tuple(line.split(" = ", 1)) for line in snapshot)

    usage = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    sentence = " ".join(usage.split("exit code: ", 1)[1].split(" else", 1)[0].split())
    codes = re.findall(r"`(\d+)` ([a-z-]+)", sentence)
    assert codes[-1] == ("1", "anything")
    assert {stage: int(code) for code, stage in codes[:-1]} == cli.EXIT_CODES
    assert len(codes) == len(cli.EXIT_CODES) + 1


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


def test_readme_library_use_runs(tmp_path, monkeypatch, capsys):
    """README's Library use code blocks run as written, in the working
    directory of a tiny synthetic corpus, with `samples` bound to a clip."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = [b.split("```", 1)[0] for b in section.split("```python\n")[1:]]
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "corpus", "--seed", "5"] + TINY_ARGS) == 0
    namespace = {"samples": scene_clip(0, 16000, 16000, np.random.default_rng(2))}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    capsys.readouterr()
    assert (tmp_path / "bundle" / "bundle.json").is_file()
    assert (namespace["nf"].shape[1], namespace["static"].shape[1]) == (76, 21)


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


def test_cli_import_loads_no_scipy_signal():
    """A one-shot call pays for every module it imports: `scipy.signal` and
    the `scipy.stats` it pulls in took about 0.9 s and 43 MB of it (2-core
    x86-64 VM)."""
    src = Path(sceneid.__file__).resolve().parent.parent
    code = (
        "import sys, sceneid, sceneid.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['scipy', 'signal'], ['scipy', 'stats'])))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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


def test_build_corpus_mixes_keep_their_fold(workspace, tmp_path, capsys):
    # Multi-condition training over folds: each mix is in its background's
    # fold, so the built corpus trains with a fold held out.
    corpus = workspace / "corpus"
    backgrounds = [json.loads(line) for line in (corpus / "train.jsonl").read_text().splitlines()]
    for i, record in enumerate(backgrounds):
        record.update(path=str(corpus / record["path"]), fold=1 + i % 2)
    manifest = tmp_path / "folds.jsonl"
    manifest.write_text("".join(json.dumps(r) + "\n" for r in backgrounds))
    out = tmp_path / "mct"
    assert main(["build-corpus", "--manifest", str(manifest),
                 "--speech-pool", str(corpus / "speech_train.jsonl"),
                 "--sbrs", "clean,-5", "--out", str(out), "--seed", "1"]) == 0
    records = [json.loads(line) for line in (out / "manifest.jsonl").read_text().splitlines()]
    assert len(records) == 2 * len(backgrounds)
    for k, record in enumerate(records):
        assert record["fold"] == backgrounds[k % len(backgrounds)]["fold"], record
    assert main(["train", "--manifest", str(out / "manifest.jsonl"), "--exclude-fold", "1",
                 "--out", str(tmp_path / "bundle")] + TINY_SET) == 0


def _mono_and_stereo(x, rng):
    """(mono, interleaved stereo) 16-bit PCM values of `x`; the stereo
    channels differ, and their average is exactly the mono clip."""
    ints = np.round(np.asarray(x) * 16384.0)
    diff = rng.integers(-4096, 4097, size=ints.size)
    stereo = np.stack([ints + diff, ints - diff], axis=1).reshape(-1)
    return ints, stereo


def _write_pair(directory, name, x, rate, rng):
    """Write `x` as a mono and a stereo WAV of the same name, in directory/mono
    and directory/stereo; returns the two paths."""
    paths = []
    for channels, values in enumerate(_mono_and_stereo(x, rng), start=1):
        path = directory / ("mono", "stereo")[channels - 1] / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pcm16_wav_bytes(values, channels=channels, rate=rate))
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
        values = _mono_and_stereo(scene_clip(i, rate, rate, rng), rng)[channels - 1]
        (tmp_path / name).write_bytes(pcm16_wav_bytes(values, channels=channels, rate=rate))
        backgrounds.append({"path": name, "label": f"c{i}"})
    speech = []
    for i in range(3):
        name = f"sp{i}.wav"
        (tmp_path / name).write_bytes(
            wav_bytes(AudioBuffer(speech_clip(16000, 16000, rng, 140.0 + 30 * i), 16000))
        )
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
        "spp_xi_h1_db=1e308", "spp_prior_h1=1e-310", "seed=-1", "sdc_k=1000", "sdc_k=100000000",
        "sdc_p=100000000000000000000", "sdc_m=100000000000000000000",
        "psd_floor=1e308", "spp_xi_h1_db=-4000",
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
        "alpha=3", "alpha=-0.5", "alpha=nan", "seed=18446744073709551616",
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

    def test_largest_seed_trains_and_is_read_back(self, workspace, tmp_path, capsys):
        # 2**64 - 1 is the largest seed `ubm.gmm` holds (one more is a config error).
        out = tmp_path / "u.gmm"
        rc = main(["train-ubm", "--manifest", str(workspace / "corpus" / "train.jsonl"),
                   "--out", str(out)] + TINY_SET + ["--set", f"seed={2**64 - 1}"])
        assert rc == 0
        assert gmm_from_bytes(out.read_bytes()).seed == 2**64 - 1

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
        # under one 640-sample frame
        short.write_bytes(wav_bytes(AudioBuffer(0.1 * np.ones(300), 16000)))
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

    @pytest.mark.parametrize("sbrs", ["0,0", "5,5.0", "clean,clean", "clean,10,+10", "0,-0"])
    def test_repeated_sbr_condition_is_config_code(self, workspace, bundle, tmp_path, capsys,
                                                   sbrs):
        # Two conditions with one tag would write the same mix files and pool
        # two mix sets in one report row.
        corpus = workspace / "corpus"
        rc = main(["build-corpus", "--manifest", str(corpus / "train.jsonl"),
                   "--speech-pool", str(corpus / "speech_train.jsonl"),
                   "--sbrs", sbrs, "--out", str(tmp_path / "o"), "--seed", "1"])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: [config] ") and "repeats" in err, err
        rc = main(["sweep", "--bundle", str(bundle), "--manifest", str(corpus / "test.jsonl"),
                   "--speech-pool", str(corpus / "speech_eval.jsonl"),
                   "--sbrs", sbrs, "--seed", "2", "--out", str(tmp_path / "sweep.json")])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: [config] ") and "repeats" in err, err
        assert list(tmp_path.iterdir()) == []  # nothing written

    def test_silent_mix_is_mixer_code(self, tmp_path, capsys):
        silent = tmp_path / "silent.wav"
        silent.write_bytes(wav_bytes(AudioBuffer(np.zeros(16000), 16000)))
        rc = main(["mix", "--background", str(silent), "--speech", str(silent),
                   "--sbr", "0", "--out", str(tmp_path / "m.wav")])
        assert rc == 7

    @pytest.mark.parametrize(
        "command", ["classify", "extract-features", "train", "sweep", "build-corpus"]
    )
    def test_digitally_silent_recording_is_features_code(
        self, workspace, bundle, tmp_path, capsys, command
    ):
        silent = tmp_path / "silent.wav"
        silent.write_bytes(wav_bytes(AudioBuffer(np.zeros(48000), 48000)))
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
        elif command == "build-corpus":
            argv = ["build-corpus", "--manifest", str(manifest),
                    "--speech-pool", str(corpus / "speech_train.jsonl"), "--sbrs", "5,20",
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
        if command == "build-corpus":
            # Clip 0 is mixed before the silent clip 1 is read; nothing after it is written.
            stem = Path(entries[0]["path"]).stem
            assert sorted(p.name for p in (tmp_path / "b").iterdir()) == [
                f"00000_{stem}_sbr+20dB.wav", f"00000_{stem}_sbr+5dB.wav"
            ]
        else:
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
        # 5 frames, n_init is 5
        short.write_bytes(wav_bytes(AudioBuffer(0.1 * np.ones(2000), 16000)))
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

    def test_overflowing_psd_floor_is_config_code_before_audio(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        # psd_floor x (fft/2 + 1) would overflow the mel band sums; the config
        # stage rejects it before any audio is read (for `train`, a case of
        # test_invalid_frame_setting_is_config_code_before_audio).
        wav = str(next((workspace / "corpus").glob("scenes/train_*.wav")))
        _forbid_audio(monkeypatch)
        rc = main(["extract-features", "--audio", wav, "--out", str(tmp_path / "f.csv"),
                   "--set", "noise_floor=true", "--set", "psd_floor=1e308"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: [config] psd_floor=1e+308 times 513 FFT bins"), err
        assert list(tmp_path.iterdir()) == []

    def test_backend_ivector_without_label_is_manifest_code_naming_it(
        self, workspace, tmp_path, capsys
    ):
        corpus = workspace / "corpus"
        manifest = corpus / "train.jsonl"
        ids = [json.loads(line)["path"] for line in manifest.read_text().splitlines()]
        ids[2:4] = ["stray-a.wav", "stray-b.wav"]
        ivectors = tmp_path / "w.ivec"
        ivectors.write_bytes(
            ivectors_to_bytes(ids, np.random.default_rng(0).normal(size=(len(ids), 4)))
        )
        rc = main(["train-backend", "--manifest", str(manifest), "--ivectors", str(ivectors),
                   "--out", str(tmp_path / "b.gbe")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: [manifest] no manifest labels for 2 iVector ids, the first 'stray-a.wav'\n"
        )
        assert not (tmp_path / "b.gbe").exists()

    def test_short_clip_noise_floor_dump_names_it(self, tmp_path, capsys):
        # 0.1 s is 4 frames; the features need no tracker, the dump does.
        short = tmp_path / "short.wav"
        short.write_bytes(wav_bytes(AudioBuffer(0.1 * np.ones(1600), 16000)))
        out = tmp_path / "f.csv"
        rc = main(["extract-features", "--audio", str(short), "--out", str(out),
                   "--dump-noise-floor", str(tmp_path / "nf.csv")])
        assert rc == 6
        assert capsys.readouterr().err.startswith(f"error: [noise-floor] {short}: spectrogram has 4")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "sweep", "build-corpus", "train-backend"])
    def test_empty_manifest_is_manifest_code(self, workspace, bundle, tmp_path, capsys,
                                             command):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = main(_manifest_argv(command, empty, workspace, bundle, tmp_path))
        assert rc == 3
        assert "empty" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fault", ["repeated-path", "partial-folds"])
    @pytest.mark.parametrize(
        "command", ["train", "evaluate", "sweep", "classify", "build-corpus", "train-backend"]
    )
    def test_invalid_manifest_is_manifest_code_before_any_work(
        self, workspace, bundle, tmp_path, capsys, monkeypatch, command, fault
    ):
        corpus = workspace / "corpus"
        source = "train" if command in ("train", "build-corpus", "train-backend") else "test"
        records = [json.loads(line)
                   for line in (corpus / f"{source}.jsonl").read_text().splitlines()]
        for record in records:
            record["path"] = str(corpus / record["path"])
        if fault == "repeated-path":  # the first clip again, under another label
            other = next(r["label"] for r in records if r["label"] != records[0]["label"])
            records.append(dict(records[0], label=other))
        else:
            records[0]["fold"] = 1
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("".join(json.dumps(r) + "\n" for r in records))
        _forbid_audio(monkeypatch)
        rc = main(_manifest_argv(command, manifest, workspace, bundle, tmp_path))
        err = capsys.readouterr().err.splitlines()
        assert rc == 3
        assert len(err) == 1 and err[0].startswith("error: [manifest] "), err
        assert ("duplicate path" if fault == "repeated-path" else "fold assignments") in err[0]
        assert not (tmp_path / "out").exists()

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

    def test_absurd_header_rate_is_audio_code(self, bundle, tmp_path, capsys):
        # A header claiming 4294967295 Hz asks for a 1.7e10-tap resampling
        # filter (128 GiB); it is refused before any of it is built.
        data = bytearray(pcm16_wav_bytes(np.zeros(160, dtype=np.int16)))
        data[24:28] = struct.pack("<I", 4294967295)  # the fmt chunk's sample rate
        wav = tmp_path / "absurd.wav"
        wav.write_bytes(bytes(data))
        rc = main(["classify", "--bundle", str(bundle), "--audio", str(wav)])
        err = capsys.readouterr().err
        assert rc == 4
        assert err.startswith(f"error: [audio-io] {wav}: ")
        assert "4294967295 Hz to 16000 Hz" in err

    def test_large_header_rate_under_the_limit_ends_in_a_stage_error(self, bundle, tmp_path, capsys):
        # 1,024,000,000 Hz needs a 1,280,001-tap filter, under the limit: the
        # 32,000 samples resample to one, shorter than a frame.
        data = bytearray(pcm16_wav_bytes(np.full(32000, 3000, dtype=np.int16)))
        data[24:28] = struct.pack("<I", 1_024_000_000)
        wav = tmp_path / "fast.wav"
        wav.write_bytes(bytes(data))
        rc = main(["classify", "--bundle", str(bundle), "--audio", str(wav)])
        err = capsys.readouterr().err
        assert rc == 5
        assert err == f"error: [features] {wav}: buffer of 1 samples is shorter than one 640-sample frame\n"

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
    index["files"][name] = file_digest((d / name).read_bytes())
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


def _set_double_rehashed(d, name, old, value):
    """Overwrite the first 8 bytes of `old`, found in file `name`, with the
    double `value`, and rehash the file."""
    data = (d / name).read_bytes()
    at = data.index(old)
    (d / name).write_bytes(data[:at] + struct.pack("<d", value) + data[at + 8:])
    _rehash(d, name)


def _damage_backend_mean_nan_rehashed(d):
    mu = backend_from_bytes((d / "backend.gbe").read_bytes()).mu
    _set_double_rehashed(d, "backend.gbe", mu.tobytes(), np.nan)


def _damage_backend_alpha_rehashed(d):
    alpha = backend_from_bytes((d / "backend.gbe").read_bytes()).alpha
    _set_double_rehashed(d, "backend.gbe", struct.pack("<d", alpha), 7.5)


def _reindexed(digest, what):
    def damage(d):
        index = json.loads((d / "bundle.json").read_text())
        index["files"] = {name: digest((d / name).read_bytes()) for name in index["files"]}
        (d / "bundle.json").write_text(json.dumps(index))
    damage.__name__ = f"_damage_index_of_{what}"
    return damage


def _damage_ubm_mean_nan_rebound(d):
    # T is bound to the damaged UBM's checksum, so nothing but the UBM is wrong.
    def bound():
        return sha256_hex((d / "ubm.gmm").read_bytes()[HEADER_BYTES:]).encode()

    before = bound()
    means = gmm_from_bytes((d / "ubm.gmm").read_bytes()).means
    _set_double_rehashed(d, "ubm.gmm", means.tobytes(), np.nan)
    (d / "tv.tvm").write_bytes((d / "tv.tvm").read_bytes().replace(before, bound()))
    _rehash(d, "tv.tvm")


OLD_INDEX = ("bundle.json lists no 8-hex-digit CRC-32 checksums (older sceneid versions "
             "listed SHA-256); retrain the bundle")


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
    (_damage_backend_mean_nan_rehashed, "backend.gbe: backend parameters contain NaN"),
    (_damage_ubm_mean_nan_rebound, "ubm.gmm: GMM parameters contain NaN"),
    (_damage_backend_alpha_rehashed, "backend.gbe: alpha must lie in [0, 1], got 7.5"),
    # An older sceneid's index, and other values that are no `file_digest`.
    (_reindexed(lambda data: hashlib.sha256(data).hexdigest(), "sha256_values"), OLD_INDEX),
    (_reindexed(lambda data: file_digest(data)[1:], "7_hex_digits"), OLD_INDEX),
    (_reindexed(lambda data: file_digest(data).upper(), "upper_case_hex"), OLD_INDEX),
    (_reindexed(lambda data: int(file_digest(data), 16), "integers"), OLD_INDEX),
])
def test_bad_bundle_is_config_code(workspace, bundle, tmp_path, capsys, damage, named):
    damaged = tmp_path / "bundle"
    shutil.copytree(bundle, damaged)
    damage(damaged)
    wav = next((workspace / "corpus").glob("scenes/test_*.wav"))
    rc = main(["classify", "--bundle", str(damaged), "--audio", str(wav)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: [config] ") and named in err and err.count("\n") == 1


def test_overflowing_t_posterior_is_ivector_code(workspace, bundle, tmp_path, capsys):
    # T passes its own finiteness check, but its posterior precision does not.
    damaged = tmp_path / "bundle"
    shutil.copytree(bundle, damaged)
    tv = tv_from_bytes((damaged / "tv.tvm").read_bytes())
    tv.t[:, :, 0] = 1e200
    (damaged / "tv.tvm").write_bytes(tv_to_bytes(tv))
    _rehash(damaged, "tv.tvm")
    wav = next((workspace / "corpus").glob("scenes/test_*.wav"))
    rc = main(["classify", "--bundle", str(damaged), "--audio", str(wav)])
    err = capsys.readouterr().err
    assert rc == 9
    assert err.startswith("error: [ivector] ") and err.count("\n") == 1


BUNDLE_MODEL_FILES = st.sampled_from(["config.txt", "ubm.gmm", "tv.tvm", "backend.gbe"])


def _classify_damaged(workspace, bundle, name, at, flip, rehash):
    """Classify one clip with a copy of `bundle` whose file `name` has byte
    `at` (modulo its size) XORed with `flip`, or is cut to that length when
    `flip` is 0, and is rehashed if `rehash`: (exit code, stderr lines)."""
    wav = next((workspace / "corpus").glob("scenes/test_*.wav"))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        damaged = Path(tmp) / "bundle"
        shutil.copytree(bundle, damaged)
        data = bytearray((damaged / name).read_bytes())
        at %= len(data) + (flip == 0)
        if flip:
            data[at] ^= flip
        else:
            del data[at:]
        (damaged / name).write_bytes(bytes(data))
        if rehash:
            _rehash(damaged, name)
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["classify", "--bundle", str(damaged), "--audio", str(wav)])
    return rc, err.getvalue().splitlines()


@settings(max_examples=50, deadline=None)
@given(name=BUNDLE_MODEL_FILES, at=st.integers(0, 2**31), flip=st.integers(0, 255))
def test_damaged_bundle_classifies_or_names_one_stage(workspace, bundle, name, at, flip):
    # Rehashed, the damage passes the checksum and reaches the parsers and
    # the models behind it.
    rc, lines = _classify_damaged(workspace, bundle, name, at, flip, rehash=True)
    if rc == 0:
        assert lines == []
    else:
        assert len(lines) == 1, lines
        stage = re.fullmatch(r"error: \[([a-z-]+)\] .*", lines[0])
        assert stage and cli.EXIT_CODES[stage[1]] == rc, (rc, lines)
        assert "bundle file corrupted" not in lines[0]


@settings(max_examples=50, deadline=None)
@given(name=BUNDLE_MODEL_FILES, at=st.integers(0, 2**31), flip=st.integers(1, 255))
def test_any_damaged_byte_is_caught_by_the_checksum(workspace, bundle, name, at, flip):
    # CRC-32 detects every error burst of up to 32 bits, so any one byte
    # changed, anywhere in any model file, fails the checksum.
    rc, lines = _classify_damaged(workspace, bundle, name, at, flip, rehash=False)
    assert (rc, lines) == (2, [f"error: [config] bundle file corrupted: {name}"])


def test_bundle_files_are_read_once(bundle, tmp_path, monkeypatch):
    # Each file is checksummed and parsed from one read; saving opens each file
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
    (["train-ubm", "--manifest", "TRAIN", "--out", "DIR"] + TINY_SET, "DIR"),
    (["extract-ivectors", "--manifest", "TRAIN", "--ubm", "UBM", "--tv", "TV", "--out", "DIR"],
     "DIR"),
    (["classify", "--bundle", "BUNDLE", "--audio", "WAV", "--out", "DIR"], "DIR"),
    (["evaluate", "--bundle", "BUNDLE", "--manifest", "TEST", "--out", "DIR"], "DIR"),
    (["sweep", "--bundle", "BUNDLE", "--manifest", "TEST", "--out", "DIR"], "DIR"),
    (["extract-features", "--audio", "WAV", "--out", "OK", "--dump-spectrogram", "DIR"], "DIR"),
    (["extract-features", "--audio", "WAV", "--out", "OK", "--dump-spectrogram", "OK"], "OK"),
    (["extract-features", "--audio", "WAV", "--out", "OK", "--dump-spectrogram", "SPEC",
      "--dump-noise-floor", "SPEC_LINKED"], "SPEC_LINKED"),
], ids=["train-over-file", "train-under-file", "train-ubm", "train-tv", "extract-ivectors",
        "train-backend", "classify", "evaluate", "sweep", "extract-features", "dump-spectrogram",
        "dump-noise-floor", "mix", "synth-over-file", "build-corpus-over-file",
        "build-corpus-manifest-is-a-directory", "train-ubm-over-dir", "extract-ivectors-over-dir",
        "classify-over-dir", "evaluate-over-dir", "sweep-over-dir", "dump-spectrogram-over-dir",
        "out-is-dump", "dumps-are-one-file"])
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
    (tmp_path / "dir").mkdir()
    (tmp_path / "link").symlink_to(tmp_path)
    subst = {
        "TRAIN": corpus / "train.jsonl", "TEST": corpus / "test.jsonl", "BUNDLE": bundle,
        "UBM": bundle / "ubm.gmm", "TV": bundle / "tv.tvm", "IVEC": ivectors,
        "WAV": next(corpus.glob("scenes/test_*.wav")),
        "SPEECH": next(corpus.glob("speech/*.wav")), "POOL": corpus / "speech_train.jsonl",
        "FILE": tmp_path / "file", "UNDER_FILE": tmp_path / "file" / "bundle",
        "MISSING": tmp_path / "missing" / "out",
        "OK": tmp_path / "ok.csv", "TAKEN": tmp_path / "taken", "DIR": tmp_path / "dir",
        "SPEC": tmp_path / "spec.csv", "SPEC_LINKED": tmp_path / "link" / "spec.csv",
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


def _manifest_argv(command, manifest, workspace, bundle, tmp_path):
    """`command` run on `manifest`, writing to tmp_path/out where it writes."""
    corpus, out = workspace / "corpus", str(tmp_path / "out")
    if command == "train-backend":
        ids = [str(corpus / json.loads(line)["path"])  # as the manifests below list them
               for line in (corpus / "train.jsonl").read_text().splitlines()]
        ivectors = tmp_path / "w.ivec"
        ivectors.write_bytes(
            ivectors_to_bytes(ids, np.random.default_rng(0).normal(size=(len(ids), 4)))
        )
        return ["train-backend", "--manifest", str(manifest), "--ivectors", str(ivectors),
                "--out", out]
    return {
        "train": ["train", "--manifest", str(manifest), "--out", out] + TINY_SET,
        "evaluate": ["evaluate", "--bundle", str(bundle), "--manifest", str(manifest)],
        "sweep": ["sweep", "--bundle", str(bundle), "--manifest", str(manifest)],
        "classify": ["classify", "--bundle", str(bundle), "--manifest", str(manifest),
                     "--out", out],
        "build-corpus": ["build-corpus", "--manifest", str(manifest),
                         "--speech-pool", str(corpus / "speech_train.jsonl"),
                         "--sbrs", "clean,5", "--out", out],
    }[command]


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


def test_synth_clip_limit_is_checked_before_anything_is_made(tmp_path):
    # No clip is drawn here, so the limit alone decides: 100,000 s at 16 kHz
    # would be 1.6e9 samples (11.9 GiB), 30 s at 384 kHz (11,520,000) is fine.
    empty = dict(train_per_class=0, test_per_class=0, n_speakers_train=0, n_speakers_eval=0)
    with pytest.raises(ValueError, match=f"1600000000 samples exceeds {MAX_CLIP_SAMPLES}"):
        generate_corpus(tmp_path / "huge", clip_seconds=100000.0, **empty)
    assert not (tmp_path / "huge").exists()
    paths = generate_corpus(tmp_path / "ok", clip_seconds=30.0, sample_rate=384000, **empty)
    assert CorpusManifest.load(paths["train"]).entries == []


def test_oversized_mel_bank_or_synth_clip_is_config_code_under_a_memory_cap(tmp_path):
    # Each ended in a multi-GiB allocation traceback: a 2000 x 524289 mel
    # bank and an 11.9 GiB synth clip. The run gets a 3 GiB address space, so
    # a regression fails here instead of reaching the host's memory.
    wav = tmp_path / "long.wav"  # 41 s: longer than one 40 s frame
    wav.write_bytes(pcm16_wav_bytes(np.ones(41 * 16000, dtype=np.int16)))
    calls = [
        ["extract-features", "--audio", str(wav), "--out", str(tmp_path / "f.csv"),
         "--set", "frame_ms=40000", "--set", "n_mels=2000"],
        ["synth", "--out", str(tmp_path / "o"), "--classes", "1", "--train-per-class", "1",
         "--test-per-class", "0", "--clip-seconds", "100000"],
    ]
    code = ("import json, resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
            "from sceneid.cli import main\n"
            "print([main(argv) for argv in json.loads(sys.argv[1])])\n")
    src = Path(sceneid.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(calls)], env=env,
                          capture_output=True, text=True)
    assert proc.stdout == "[2, 2]\n", proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 2 and all(line.startswith("error: [config] ") for line in lines)
    assert "2000 mel filters over 524289 FFT bins" in lines[0]
    assert "samples exceeds" in lines[1]
    assert not (tmp_path / "o").exists() and not (tmp_path / "f.csv").exists()


def _exclude_speaker_argv(command, workspace, bundle, out, excluded):
    corpus = workspace / "corpus"
    argv = {
        "sweep": ["sweep", "--bundle", str(bundle), "--manifest", str(corpus / "test.jsonl"),
                  "--speech-pool", str(corpus / "speech_eval.jsonl"), "--sbrs", "5"],
        "build-corpus": ["build-corpus", "--manifest", str(corpus / "test.jsonl"),
                         "--speech-pool", str(corpus / "speech_eval.jsonl"),
                         "--sbrs", "clean,5"],
    }[command] + ["--seed", "3", "--out", str(out)]
    for speaker in excluded:
        argv += ["--exclude-speaker", speaker]
    return argv


@pytest.mark.parametrize("command", ["sweep", "build-corpus"])
def test_excluded_speaker_is_never_mixed_in(
    workspace, bundle, tmp_path, monkeypatch, capsys, command
):
    # The excluded speaker is the one the first mix draws from the whole pool.
    pool = CorpusManifest.load(workspace / "corpus" / "speech_eval.jsonl")
    excluded = draw_speech(usable_speech_pool(pool, [5.0]), 3, 0, 0)[1].speaker_id
    speakers = {str(pool.resolve(e)): e.speaker_id for e in pool.entries}
    read, real_load = [], pipeline.load_audio

    def recording_load(path, rate):
        read.append(str(path))
        return real_load(path, rate)

    monkeypatch.setattr(pipeline, "load_audio", recording_load)
    out = tmp_path / "out"
    assert main(_exclude_speaker_argv(command, workspace, bundle, out, [excluded])) == 0
    used = {speakers[path] for path in read if path in speakers}
    assert used and excluded not in used
    if command == "build-corpus":
        built = CorpusManifest.load(out / "manifest.jsonl")
        mixed = {e.speaker_id for e in built.entries if e.condition == "sbr+5dB"}
        assert mixed and excluded not in mixed and mixed <= used


@pytest.mark.parametrize("command", ["sweep", "build-corpus"])
def test_excluding_every_speaker_is_mixer_code(workspace, bundle, tmp_path, capsys, command):
    pool = CorpusManifest.load(workspace / "corpus" / "speech_eval.jsonl")
    everyone = sorted({e.speaker_id for e in pool.entries})
    rc = main(_exclude_speaker_argv(command, workspace, bundle, tmp_path / "out", everyone))
    err = capsys.readouterr().err
    assert rc == 7
    assert err.startswith("error: [mixer] speech pool is empty (or fully excluded)")
    assert err.count("\n") == 1
