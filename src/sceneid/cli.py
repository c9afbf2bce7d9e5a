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

import numpy as np

from . import backend as backend_mod
from . import gmm as gmm_mod
from . import ivector as ivector_mod
from . import pipeline as pipe
from .audio import frame_signal, wav_bytes
from .config import ConfigError, PipelineConfig, parse_sbr_token
from .errors import SceneidError
from .features import FeatureMatrix, feature_csv, power_spectrogram
from .manifest import CorpusManifest, ManifestError
from .noisefloor import NoiseFloorError, noise_floor_spectrogram
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
    with pipe.stage(pipe.STAGE_CONFIG, ConfigError):
        return [parse_sbr_token(t) for t in text.split(",")]


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
    with pipe.stage(pipe.STAGE_CONFIG, OSError, item=args.out):
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


def _write_csv(path, feats: FeatureMatrix) -> None:
    pipe.write_output(path, feature_csv(feats).encode("utf-8"))


def cmd_extract_features(args) -> int:
    cfg = _load_config(args)
    buf = pipe.load_audio(args.audio, cfg.sample_rate)
    (feats,) = pipe.features_for_buffers([(args.audio, buf)], cfg)
    if args.dump_spectrogram or args.dump_noise_floor:
        with pipe.stage(pipe.STAGE_FEATURES, SceneidError, ValueError, item=args.audio):
            spec = power_spectrogram(frame_signal(buf, cfg.to_feature_config().frame))
        if args.dump_spectrogram:
            _write_csv(args.dump_spectrogram, FeatureMatrix(spec.frames))
        if args.dump_noise_floor:
            with pipe.stage(pipe.STAGE_NOISE_FLOOR, NoiseFloorError):
                floor = noise_floor_spectrogram(spec, cfg.to_spp_params(), cfg.nf_init_frames)
            _write_csv(args.dump_noise_floor, FeatureMatrix(floor.frames))
    _write_csv(args.out, feats)
    print(f"{args.out}: {feats.n_frames} frames x {feats.dim} dims")
    return 0


def cmd_train_ubm(args) -> int:
    cfg = _load_config(args)
    manifest = _load_manifest(args.manifest, args.fold, args.exclude_fold)
    ubm = pipe.train_ubm(cfg, pipe.manifest_features(manifest, cfg))
    pipe.write_output(args.out, gmm_mod.gmm_to_bytes(ubm))
    fit = f"final LL {ubm.ll_history[-1]:.6f}" if ubm.ll_history else "k-means only, no EM"
    print(f"{args.out}: {ubm.n_components} components, {fit}")
    return 0


def cmd_train_tv(args) -> int:
    cfg = _load_config(args)
    manifest = _load_manifest(args.manifest, args.fold, args.exclude_fold)
    ubm = pipe.read_model_file(gmm_mod.gmm_from_bytes, args.ubm)
    stats = pipe.collect_stats(ubm, pipe.manifest_features(manifest, cfg))
    tv = pipe.train_tv(cfg, ubm, stats)
    pipe.write_output(args.out, ivector_mod.tv_to_bytes(tv))
    print(f"{args.out}: rank {tv.rank}")
    return 0


def cmd_extract_ivectors(args) -> int:
    cfg = _load_config(args)
    manifest = _load_manifest(args.manifest, args.fold, args.exclude_fold)
    ubm = pipe.read_model_file(gmm_mod.gmm_from_bytes, args.ubm)
    tv = pipe.read_model_file(ivector_mod.tv_from_bytes, args.tv)
    stats = pipe.collect_stats(ubm, pipe.manifest_features(manifest, cfg))
    w = pipe.extract_ivectors(tv, ubm, stats)
    ids = [e.path for e in manifest.entries]
    pipe.write_output(args.out, ivector_mod.ivectors_to_bytes(ids, w))
    print(f"{args.out}: {w.shape[0]} iVectors of rank {w.shape[1]}")
    return 0


def cmd_train_backend(args) -> int:
    cfg = _load_config(args)
    manifest = _load_manifest(args.manifest)
    ids, w = pipe.read_model_file(ivector_mod.ivectors_from_bytes, args.ivectors)
    by_path = {e.path: e.label for e in manifest.entries}
    missing = [rid for rid in ids if rid not in by_path]
    if missing:
        raise pipe.PipelineStageError(
            pipe.STAGE_MANIFEST, f"no manifest labels for {len(missing)} iVector ids"
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
    if args.manifest:
        manifest = _load_manifest(args.manifest)
        pipe.check_manifest(manifest)
        items = [(e.path, manifest.resolve(e)) for e in manifest.entries]
    else:
        items = [(a, a) for a in args.audio]
    rate = bundle.config.sample_rate
    buffers = ((rec_id, pipe.load_audio(path, rate)) for rec_id, path in items)
    scores = pipe.score_ivectors(bundle, pipe.ivectors_for_buffers(bundle, buffers))
    labels = bundle.backend.class_labels
    lines = [
        json.dumps({
            "id": rec_id,
            "label": labels[int(np.argmax(row))],
            "scores": dict(zip(labels, row.tolist())),
        }, sort_keys=True)
        for (rec_id, _), row in zip(items, scores)
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


def _check_outputs(args) -> None:
    """Config stage, before any work and without creating anything: an output
    file's directory exists, an output directory is, or can be made, a
    directory, and build-corpus's manifest is a regular file if it exists."""
    if args.func in _OUTPUT_DIRECTORIES:
        path = Path(args.out)
        nearest = next(p for p in (path, *path.parents) if p.exists())
        if not nearest.is_dir():
            raise pipe.PipelineStageError(
                pipe.STAGE_CONFIG, f"{path}: {nearest} is not a directory"
            )
        manifest = path / _CORPUS_MANIFEST
        if args.func is cmd_build_corpus and manifest.exists() and not manifest.is_file():
            raise pipe.PipelineStageError(
                pipe.STAGE_CONFIG, f"{manifest}: exists and is not a regular file"
            )
        return
    for name in _OUTPUT_FILES:
        path = getattr(args, name, None)
        if path is not None and not Path(path).parent.is_dir():
            raise pipe.PipelineStageError(
                pipe.STAGE_CONFIG, f"{path}: no such directory: {Path(path).parent}"
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
    p.add_argument("--sbr", type=float, required=True)
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
