"""Command-line front end.

One subcommand per pipeline step plus the composite `train`. Exit code 0 on
success; failures map to a distinct code per stage (see EXIT_CODES).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import backend as backend_mod
from . import gmm as gmm_mod
from . import ivector as ivector_mod
from . import pipeline as pipe
from .audio import frame_signal, wav_bytes
from .config import ConfigError, PipelineConfig, finite_sbr, parse_sbr_token
from .errors import SceneidError
from .features import cepstral_features, feature_csv, power_spectrogram
from .manifest import CorpusManifest, ManifestError
from .mixer import condition_tag
from .noisefloor import noise_floor_spectrogram
from .synth import generate_corpus

EXIT_CODES = {
    pipe.STAGE_CONFIG: 2,
    pipe.STAGE_MANIFEST: 3,
    pipe.STAGE_AUDIO: 4,
    pipe.STAGE_FEATURES: 5,
    pipe.STAGE_NOISE_FLOOR: 6,
    pipe.STAGE_MIXER: 7,
    pipe.STAGE_GMM: 8,
    pipe.STAGE_IVECTOR: 9,
    pipe.STAGE_BACKEND: 10,
    pipe.STAGE_EVALUATION: 11,
}


def _load_config(args) -> PipelineConfig:
    cfg = (
        pipe.read_model_file(PipelineConfig.from_bytes, args.config)
        if args.config else PipelineConfig()
    )
    with pipe.stage(pipe.STAGE_CONFIG, ConfigError):
        return cfg.apply_overrides(args.set)


def _load_manifest(path, fold=None, exclude_fold=None) -> CorpusManifest:
    with pipe.stage(pipe.STAGE_MANIFEST, ManifestError):
        manifest = CorpusManifest.load(path)
    if fold is not None:
        manifest = manifest.filter(lambda e: e.fold == fold)
    if exclude_fold is not None:
        manifest = manifest.filter(lambda e: e.fold != exclude_fold)
    return manifest


def _parse_sbrs(text) -> list:
    """The conditions of an --sbrs list; two that share a condition tag (and
    so output names and a report row) are a config error."""
    with pipe.stage(pipe.STAGE_CONFIG, ConfigError):
        sbrs = [parse_sbr_token(t) for t in text.split(",")]
        tags = [condition_tag(sbr) for sbr in sbrs]
        for tag in tags:
            if tags.count(tag) > 1:
                raise ConfigError(f"--sbrs {text!r} repeats the condition {tag}")
        return sbrs


def _add_config_args(parser):
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )


def non_negative_int(text) -> int:
    """argparse type of every --seed option."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _add_fold_args(parser):
    parser.add_argument("--fold", type=int, help="keep only entries of this fold")
    parser.add_argument("--exclude-fold", type=int, help="drop entries of this fold")


def cmd_synth(args) -> int:
    with pipe.stage(pipe.STAGE_CONFIG, OSError, ValueError, item=args.out):
        paths = generate_corpus(
            args.out,
            n_classes=args.classes,
            train_per_class=args.train_per_class,
            test_per_class=args.test_per_class,
            clip_seconds=args.clip_seconds,
            sample_rate=args.sample_rate,
            seed=args.seed,
        )
    print(json.dumps({k: str(v) for k, v in sorted(paths.items())}, indent=2))
    return 0


def cmd_mix(args) -> int:
    mixed, spec = pipe.mix_recording(args.background, args.speech, args.sbr, args.seed)
    pipe.write_output(args.out, wav_bytes(mixed))
    print(json.dumps(asdict(spec), sort_keys=True))
    return 0


_CORPUS_MANIFEST = "manifest.jsonl"  # written into build-corpus's --out


def cmd_build_corpus(args) -> int:
    manifest = _load_manifest(args.manifest)
    pool = _load_manifest(args.speech_pool)
    sbrs = _parse_sbrs(args.sbrs)
    out = pipe.build_multicondition_corpus(
        manifest, sbrs, pool, args.seed, args.out, exclude_speakers=args.exclude_speaker
    )
    out_path = Path(args.out) / _CORPUS_MANIFEST
    pipe.write_output(out_path, out.to_bytes())
    print(out_path)
    return 0


def _write_csv(path, rows) -> None:
    pipe.write_output(path, feature_csv(rows).encode("utf-8"))


def cmd_extract_features(args) -> int:
    """One front-end pass: the recording is framed once and tracked at most
    once, for the features, the noise-floor dump or both. Nothing is written
    unless every array was made."""
    cfg = _load_config(args)
    feature_config = cfg.to_feature_config()
    buf = pipe.load_audio(args.audio, cfg.sample_rate)
    with pipe.front_end_errors(args.audio):
        pipe.check_recording(buf, feature_config)
        spec = power_spectrogram(frame_signal(buf, feature_config.frame))
        floor = None
        if cfg.noise_floor or args.dump_noise_floor:
            floor = noise_floor_spectrogram(spec, cfg.to_spp_params())  # a copy
        feats = cepstral_features(
            floor if cfg.noise_floor else spec, feature_config.mel_bank(), feature_config
        )
    if args.dump_spectrogram:
        _write_csv(args.dump_spectrogram, spec)
    if args.dump_noise_floor:
        _write_csv(args.dump_noise_floor, floor)
    _write_csv(args.out, feats)
    print(f"{args.out}: {feats.shape[0]} frames x {feats.shape[1]} dims")
    return 0


def cmd_train_ubm(args) -> int:
    cfg = _load_config(args)
    manifest = _load_manifest(args.manifest, args.fold, args.exclude_fold)
    pool, _ = pipe.pooled_features(manifest, cfg)
    ubm = pipe.train_ubm(cfg, pool)
    pipe.write_output(args.out, gmm_mod.gmm_to_bytes(ubm))
    fit = f"final LL {ubm.ll_history[-1]:.6f}" if ubm.ll_history else "k-means only, no EM"
    print(f"{args.out}: {ubm.n_components} components, {fit}")
    return 0


def cmd_train_tv(args) -> int:
    cfg = _load_config(args)
    manifest = _load_manifest(args.manifest, args.fold, args.exclude_fold)
    ubm = pipe.read_model_file(gmm_mod.gmm_from_bytes, args.ubm)
    stats = list(pipe.collect_stats(ubm, pipe.manifest_features(manifest, cfg)))
    tv = pipe.train_tv(cfg, ubm, stats)
    pipe.write_output(args.out, ivector_mod.tv_to_bytes(tv))
    print(f"{args.out}: rank {tv.rank}")
    return 0


def cmd_extract_ivectors(args) -> int:
    cfg = _load_config(args)
    manifest = _load_manifest(args.manifest, args.fold, args.exclude_fold)
    ubm = pipe.read_model_file(gmm_mod.gmm_from_bytes, args.ubm)
    tv = pipe.read_model_file(ivector_mod.tv_from_bytes, args.tv)
    stats = list(pipe.collect_stats(ubm, pipe.manifest_features(manifest, cfg)))
    w = pipe.extract_ivectors(tv, ubm, stats)
    ids = [e.path for e in manifest.entries]
    pipe.write_output(args.out, ivector_mod.ivectors_to_bytes(ids, w))
    print(f"{args.out}: {w.shape[0]} iVectors of rank {w.shape[1]}")
    return 0


def cmd_train_backend(args) -> int:
    cfg = _load_config(args)
    manifest = _load_manifest(args.manifest)
    pipe.check_manifest(manifest)
    ids, w = pipe.read_model_file(ivector_mod.ivectors_from_bytes, args.ivectors)
    by_path = {e.path: e.label for e in manifest.entries}
    missing = [rid for rid in ids if rid not in by_path]
    if missing:
        raise pipe.PipelineStageError(
            pipe.STAGE_MANIFEST,
            f"no manifest labels for {len(missing)} iVector ids, the first {missing[0]!r}",
        )
    model = pipe.train_backend(cfg, w, [by_path[rid] for rid in ids])
    pipe.write_output(args.out, backend_mod.backend_to_bytes(model))
    print(f"{args.out}: {len(model.class_labels)} classes, alpha {model.alpha}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    manifest = _load_manifest(args.manifest, args.fold, args.exclude_fold)
    bundle = pipe.run_training(cfg, manifest)
    bundle.save(args.out)
    print(f"{args.out}: bundle with classes {bundle.backend.class_labels}")
    return 0


def cmd_classify(args) -> int:
    bundle = pipe.ModelBundle.load(args.bundle)
    rate = bundle.config.sample_rate
    if args.manifest:
        manifest = _load_manifest(args.manifest)
        pipe.check_manifest(manifest)
        ids = [e.path for e in manifest.entries]
        buffers = pipe.manifest_buffers(manifest, rate)
    else:
        ids = args.audio
        buffers = ((a, pipe.load_audio(a, rate)) for a in args.audio)
    scores = pipe.score_ivectors(bundle, pipe.ivectors_for_buffers(bundle, buffers, len(ids)))
    labels = bundle.backend.class_labels
    predicted = backend_mod.best_labels(bundle.backend, scores)
    lines = [
        json.dumps({
            "id": rec_id,
            "label": label,
            "scores": dict(zip(labels, row.tolist())),
        }, sort_keys=True)
        for rec_id, label, row in zip(ids, predicted, scores)
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        pipe.write_output(args.out, text.encode("utf-8"))
    else:
        sys.stdout.write(text)
    return 0


def cmd_evaluate(args) -> int:
    bundle = pipe.ModelBundle.load(args.bundle)
    manifest = _load_manifest(args.manifest, args.fold, args.exclude_fold)
    report = pipe.run_evaluation(bundle, manifest)
    if args.out:
        report.save(args.out)
    print(report.text_table())
    return 0


def cmd_sweep(args) -> int:
    bundle = pipe.ModelBundle.load(args.bundle)
    manifest = _load_manifest(args.manifest)
    pool = _load_manifest(args.speech_pool) if args.speech_pool else None
    sbrs = _parse_sbrs(args.sbrs) if args.sbrs else []
    report = pipe.run_sbr_sweep(
        bundle, manifest, pool, sbrs, args.seed, exclude_speakers=args.exclude_speaker
    )
    if args.out:
        report.save(args.out)
    print(report.text_table())
    return 0


# Options that name an output file, and the commands whose `--out` is a
# directory they create, parents included.
_OUTPUT_FILES = ("out", "dump_spectrogram", "dump_noise_floor")
_OUTPUT_DIRECTORIES = (cmd_synth, cmd_build_corpus, cmd_train)


def _check_file_output(path) -> None:
    """An output file may be missing, or a regular file that is overwritten."""
    if Path(path).exists() and not Path(path).is_file():
        raise pipe.PipelineStageError(
            pipe.STAGE_CONFIG, f"{path}: exists and is not a regular file"
        )


def _check_outputs(args) -> None:
    """Config stage, before any work and without creating anything: an output
    file's directory exists, the file is a regular file if it exists, and no
    two output options name the same file; an output directory is, or can be
    made, a directory, and build-corpus's manifest in it is a regular file if
    it exists."""
    if args.func in _OUTPUT_DIRECTORIES:
        path = Path(args.out)
        nearest = next(p for p in (path, *path.parents) if p.exists())
        if not nearest.is_dir():
            raise pipe.PipelineStageError(
                pipe.STAGE_CONFIG, f"{path}: {nearest} is not a directory"
            )
        if args.func is cmd_build_corpus:
            _check_file_output(path / _CORPUS_MANIFEST)
        return
    options: dict = {}  # resolved path -> the option that names it
    for name in _OUTPUT_FILES:
        path = getattr(args, name, None)
        if path is None:
            continue
        parent = Path(path).parent
        if not parent.is_dir():
            raise pipe.PipelineStageError(
                pipe.STAGE_CONFIG, f"{path}: no such directory: {parent}"
            )
        _check_file_output(path)
        first = options.setdefault(Path(path).resolve(), name)
        if first != name:
            raise pipe.PipelineStageError(
                pipe.STAGE_CONFIG,
                f"{path}: --{first.replace('_', '-')} and --{name.replace('_', '-')} "
                "name the same file",
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sceneid",
        description="Speech-robust acoustic scene classification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the bundled synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--train-per-class", type=int, default=30)
    p.add_argument("--test-per-class", type=int, default=20)
    p.add_argument("--clip-seconds", type=float, default=10.0)
    p.add_argument("--sample-rate", type=int, default=16000)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("mix", help="mix speech into a background at an exact SBR")
    p.add_argument("--background", required=True)
    p.add_argument("--speech", required=True)
    p.add_argument("--sbr", type=finite_sbr, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("build-corpus", help="build a multi-condition training corpus")
    p.add_argument("--manifest", required=True)
    p.add_argument("--speech-pool", required=True)
    p.add_argument("--sbrs", required=True, help="comma list, e.g. 'clean,-5'")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--exclude-speaker", action="append", default=[])
    p.set_defaults(func=cmd_build_corpus)

    p = sub.add_parser("extract-features", help="extract features for one recording")
    _add_config_args(p)
    p.add_argument("--audio", required=True)
    p.add_argument("--out", required=True, help="feature CSV, one row per frame")
    p.add_argument("--dump-spectrogram", help="CSV of the power spectrogram")
    p.add_argument("--dump-noise-floor", help="CSV of the tracked noise floor")
    p.set_defaults(func=cmd_extract_features)

    p = sub.add_parser("train-ubm", help="train the universal background model")
    _add_config_args(p)
    _add_fold_args(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_ubm)

    p = sub.add_parser("train-tv", help="train the total-variability matrix")
    _add_config_args(p)
    _add_fold_args(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--ubm", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_tv)

    p = sub.add_parser("extract-ivectors", help="extract iVectors for a manifest")
    _add_config_args(p)
    _add_fold_args(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--ubm", required=True)
    p.add_argument("--tv", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract_ivectors)

    p = sub.add_parser("train-backend", help="train the Gaussian backend")
    _add_config_args(p)
    p.add_argument("--ivectors", required=True)
    p.add_argument("--manifest", required=True, help="supplies labels per recording id")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_backend)

    p = sub.add_parser("train", help="composite: features through backend, save a bundle")
    _add_config_args(p)
    _add_fold_args(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="classify recordings with a trained bundle")
    p.add_argument("--bundle", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--manifest")
    source.add_argument("--audio", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evaluate", help="accuracy and confusion over a labeled manifest")
    _add_fold_args(p)
    p.add_argument("--bundle", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="evaluate across SBR mixing conditions")
    p.add_argument("--bundle", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--speech-pool")
    p.add_argument("--sbrs", default="", help="comma list, e.g. 'clean,-5,0,5,10,15,20'")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--exclude-speaker", action="append", default=[])
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # `--sbrs -5,10` -> `--sbrs=-5,10`: argparse takes a lone `-5,10` for an option.
    for i in reversed(range(len(argv) - 1)):
        if argv[i] in ("--sbr", "--sbrs"):
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except pipe.PipelineStageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES.get(exc.stage, 1)
    except SceneidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
