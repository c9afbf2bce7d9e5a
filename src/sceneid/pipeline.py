"""End-to-end training, evaluation, SBR sweeps and multi-condition corpora.

Stages run in the fixed order features -> UBM -> statistics -> T -> iVectors
-> backend. Any stage failure aborts with the failing stage named so the CLI
can map it to a distinct exit code. Given identical inputs and seeds every
artifact this module writes is byte-identical across reruns.
"""

from __future__ import annotations

import itertools
import json
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import backend as backend_mod
from . import gmm as gmm_mod
from . import ivector as ivector_mod
from .audio import AudioBuffer, downmix_mono, read_wav, resample, wav_bytes
from .config import PipelineConfig
from .errors import SceneidError
from .features import FeatureMatrix, extract_features_many
from .manifest import CorpusManifest, ManifestEntry, ManifestError
from .mixer import condition_tag, draw_speech, mix_at_sbr, usable_speech_pool
from .noisefloor import NoiseFloorError
from .serialize import sha256_hex

_BUNDLE_FILES = ("config.txt", "ubm.gmm", "tv.tvm", "backend.gbe")

STAGE_CONFIG = "config"
STAGE_MANIFEST = "manifest"
STAGE_AUDIO = "audio-io"
STAGE_FEATURES = "features"
STAGE_NOISE_FLOOR = "noise-floor"
STAGE_MIXER = "mixer"
STAGE_GMM = "gmm-ubm"
STAGE_IVECTOR = "ivector"
STAGE_BACKEND = "backend"
STAGE_EVALUATION = "evaluation"

# Recordings featurized together: the noise tracker steps through a chunk's
# spectra at once, and at most one chunk of audio is held by a lazy caller.
FEATURE_CHUNK = 16


class PipelineStageError(SceneidError):
    """Failure attributed to one named pipeline stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@contextmanager
def stage(name: str, *errors, item=None):
    """Re-raise the listed exception types as PipelineStageError(name, ...).

    `item` names what failed (a file, a recording) at the head of the
    message, and only there: an OSError about that same file contributes
    its `strerror` alone. A PipelineStageError raised inside passes through
    unchanged, so nested stages keep the stage that raised first.
    """
    try:
        yield
    except PipelineStageError:
        raise
    except errors as exc:
        if item is None:
            raise PipelineStageError(name, str(exc)) from exc
        named = isinstance(exc, OSError) and str(exc.filename) == str(item)
        raise PipelineStageError(name, f"{item}: {exc.strerror if named else exc}") from exc


@dataclass
class EvalReport:
    """Accuracy and confusion counts, pooled and per condition tag."""

    labels: list
    confusion: np.ndarray  # (L, L) counts, rows = true, cols = predicted
    per_condition: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return int(self.confusion.sum())

    @property
    def accuracy(self) -> float:
        total = self.total
        return float(np.trace(self.confusion)) / total if total else 0.0

    def condition_accuracy(self, tag: str) -> float:
        mat = self.per_condition[tag]
        total = int(mat.sum())
        return float(np.trace(mat)) / total if total else 0.0

    @classmethod
    def from_predictions(cls, labels, y_true, y_pred, conditions=None) -> "EvalReport":
        labels = list(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        n = len(labels)
        confusion = np.zeros((n, n), dtype=np.int64)
        per_condition: dict = {}
        if conditions is None:
            conditions = ["clean"] * len(y_true)
        for truth, pred, cond in zip(y_true, y_pred, conditions):
            confusion[index[truth], index[pred]] += 1
            if cond not in per_condition:
                per_condition[cond] = np.zeros((n, n), dtype=np.int64)
            per_condition[cond][index[truth], index[pred]] += 1
        return cls(labels, confusion, per_condition)

    def to_dict(self) -> dict:
        return {
            "labels": self.labels,
            "accuracy": self.accuracy,
            "total": self.total,
            "confusion": self.confusion.tolist(),
            "per_condition": {
                tag: {
                    "accuracy": self.condition_accuracy(tag),
                    "total": int(mat.sum()),
                    "confusion": mat.tolist(),
                }
                for tag, mat in sorted(self.per_condition.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def save(self, path) -> None:
        write_output(path, self.to_json().encode("utf-8"))

    def text_table(self) -> str:
        width = max((len(lab) for lab in self.labels), default=5) + 2
        lines = [f"overall accuracy: {self.accuracy:.4f} ({self.total} items)"]
        for tag in sorted(self.per_condition):
            lines.append(f"  {tag}: {self.condition_accuracy(tag):.4f}")
        lines.append("")
        header = " " * width + "".join(lab.rjust(width) for lab in self.labels)
        lines.append(header + "   (rows: truth, cols: predicted)")
        for i, lab in enumerate(self.labels):
            lines.append(
                lab.rjust(width)
                + "".join(str(int(v)).rjust(width) for v in self.confusion[i])
            )
        return "\n".join(lines) + "\n"


@dataclass
class ModelBundle:
    """Trained UBM + T + backend plus the config snapshot that produced them."""

    config: PipelineConfig
    ubm: gmm_mod.GmmModel
    tv: ivector_mod.TvMatrix
    backend: backend_mod.BackendModel

    def save(self, bundle_dir) -> None:
        """Write the four model files and `bundle.json`, which lists their
        SHA-256 hashes, each file opened once."""
        bundle_dir = Path(bundle_dir)
        with _file_errors(bundle_dir):
            bundle_dir.mkdir(parents=True, exist_ok=True)
        encoded = {
            "config.txt": self.config.snapshot_text().encode("utf-8"),
            "ubm.gmm": gmm_mod.gmm_to_bytes(self.ubm),
            "tv.tvm": ivector_mod.tv_to_bytes(self.tv),
            "backend.gbe": backend_mod.backend_to_bytes(self.backend),
        }
        for name, data in encoded.items():
            write_output(bundle_dir / name, data)
        index = {"files": {name: sha256_hex(data) for name, data in encoded.items()}}
        write_output(
            bundle_dir / "bundle.json",
            (json.dumps(index, sort_keys=True, indent=2) + "\n").encode("utf-8"),
        )

    @classmethod
    def load(cls, bundle_dir) -> "ModelBundle":
        """Load a bundle whose index lists, and checksums, exactly its files.

        Every file is read once, by `read_model_file`, and every checksum
        is checked before any file is parsed. Every failure to read a
        bundle file is a config-stage error naming it.
        """
        bundle_dir = Path(bundle_dir)
        for name in _BUNDLE_FILES + ("bundle.json",):
            if not (bundle_dir / name).exists():
                raise PipelineStageError(STAGE_CONFIG, f"bundle file missing: {name}")
        index = read_model_file(lambda raw: json.loads(bytes(raw)), bundle_dir / "bundle.json")
        files = index.get("files") if isinstance(index, dict) else None
        if not isinstance(files, dict) or sorted(files) != sorted(_BUNDLE_FILES):
            raise PipelineStageError(
                STAGE_CONFIG, f"bundle.json must list exactly the files {list(_BUNDLE_FILES)}"
            )
        raw = {  # every file is read before any is parsed
            name: read_model_file(lambda data: data, bundle_dir / name) for name in _BUNDLE_FILES
        }
        for name, data in raw.items():
            if sha256_hex(data) != files[name]:
                raise PipelineStageError(STAGE_CONFIG, f"bundle file corrupted: {name}")

        def decoded(decode, name):
            with _file_errors(bundle_dir / name):
                return decode(raw.pop(name))

        return cls(
            config=decoded(PipelineConfig.from_bytes, "config.txt"),
            ubm=decoded(gmm_mod.gmm_from_bytes, "ubm.gmm"),
            tv=decoded(ivector_mod.tv_from_bytes, "tv.tvm"),
            backend=decoded(backend_mod.backend_from_bytes, "backend.gbe"),
        )


def _file_errors(path):
    """Failing to read, parse or write `path` is a config-stage error naming it."""
    return stage(STAGE_CONFIG, OSError, SceneidError, ValueError, item=path)


def read_model_file(decode, path):
    """Read a model, config, index or iVector file and decode it with `decode`.

    This is the one reader of these files. It opens the file once and reads
    it straight into an owned float64 buffer, placed so that the file ends on
    an 8-byte boundary, and `decode` gets a writeable memoryview of its bytes.
    A container's last array (T in `tv.tvm`) is then aligned, and
    `serialize.unpack_array` keeps it as a view of the buffer: the file's
    bytes are copied once, from disk, and never again.
    """
    with _file_errors(path):
        with open(path, "rb") as fh:
            st = os.fstat(fh.fileno())
            if not stat.S_ISREG(st.st_mode):
                raise OSError("not a regular file")
            size = st.st_size
            words = np.empty(-(-size // 8), dtype=np.float64)
            raw = memoryview(words).cast("B")[words.nbytes - size:]
            got = fh.readinto(raw)
        if got != size:
            raise OSError(f"read {got} of {size} bytes")
        return decode(raw)


def write_output(path, data: bytes) -> None:
    """Write an output file: a model, a report, features or audio."""
    with _file_errors(path):
        Path(path).write_bytes(data)


def load_audio(path, sample_rate: int | None) -> AudioBuffer:
    """Read and downmix one recording, resampled to `sample_rate` (None keeps
    the file's rate). The one place a WAV file is read."""
    with stage(STAGE_AUDIO, OSError, SceneidError, ValueError, item=path):
        buf = downmix_mono(read_wav(path))
        return buf if sample_rate is None else resample(buf, sample_rate)


def _reject_silent(rec_id, buf: AudioBuffer) -> None:
    """A digitally silent recording (every sample exactly zero) has no scene
    to classify."""
    if not np.any(buf.samples):
        raise PipelineStageError(STAGE_FEATURES, f"{rec_id}: recording is digitally silent")


def features_for_buffers(items, config: PipelineConfig):
    """Featurize (recording id, mono buffer) pairs, FEATURE_CHUNK at a time.

    Yields one FeatureMatrix per pair, in order. `items` is drawn one chunk
    at a time, so a lazy iterable never has more than a chunk of audio alive.
    A digitally silent recording is rejected (`_reject_silent`).
    """
    feature_config = config.to_feature_config()
    items = iter(items)
    while chunk := list(itertools.islice(items, FEATURE_CHUNK)):
        for rec_id, buf in chunk:
            _reject_silent(rec_id, buf)
        with (
            stage(STAGE_FEATURES, SceneidError, ValueError),
            stage(STAGE_NOISE_FLOOR, NoiseFloorError),
        ):
            feats = extract_features_many(
                [buf for _, buf in chunk], feature_config, [rec_id for rec_id, _ in chunk]
            )
        del chunk  # free this chunk's audio before the next one is drawn
        yield from feats


def check_manifest(manifest: CorpusManifest) -> None:
    """Reject an invalid or empty manifest before any audio is read."""
    with stage(STAGE_MANIFEST, ManifestError):
        manifest.validate()
    if not manifest.entries:
        raise PipelineStageError(STAGE_MANIFEST, "manifest is empty")


def manifest_buffers(manifest: CorpusManifest, config: PipelineConfig):
    """(entry path, mono buffer) per manifest entry, each read as it is drawn."""
    return (
        (e.path, load_audio(manifest.resolve(e), config.sample_rate)) for e in manifest.entries
    )


def manifest_features(manifest: CorpusManifest, config: PipelineConfig) -> list[FeatureMatrix]:
    """Check the manifest, then read and featurize every entry."""
    check_manifest(manifest)
    return list(features_for_buffers(manifest_buffers(manifest, config), config))


def train_ubm(config: PipelineConfig, feats) -> gmm_mod.GmmModel:
    """UBM stage: k-means++ and EM over the pooled frames of every recording."""
    with stage(STAGE_GMM, gmm_mod.GmmError):
        return gmm_mod.train_ubm(
            np.vstack([f.rows for f in feats]),
            config.ubm_components,
            n_iters=config.ubm_iters,
            seed=config.seed,
            kmeans_iters=config.kmeans_iters,
        )


def collect_stats(ubm: gmm_mod.GmmModel, feats) -> list[gmm_mod.SufficientStats]:
    """Statistics stage: Baum-Welch statistics per recording, drawn lazily."""
    stats = []
    for f in feats:
        with stage(STAGE_GMM, gmm_mod.GmmError, item=f.recording_id):
            stats.append(gmm_mod.accumulate_stats(ubm, f))
    return stats


def train_tv(config: PipelineConfig, ubm: gmm_mod.GmmModel, stats) -> ivector_mod.TvMatrix:
    """T-matrix stage: PCA init and EM refinement."""
    with stage(STAGE_IVECTOR, ivector_mod.IVectorError):
        return ivector_mod.train_tv(stats, ubm, config.tv_rank, n_iters=config.tv_iters)


def extract_ivectors(tv: ivector_mod.TvMatrix, ubm: gmm_mod.GmmModel, stats) -> np.ndarray:
    """iVector stage: one posterior-mean row per recording's statistics."""
    with stage(STAGE_IVECTOR, ivector_mod.IVectorError):
        return ivector_mod.extract_ivectors(tv, ubm, stats)


def train_backend(config: PipelineConfig, w_matrix, labels) -> backend_mod.BackendModel:
    """Backend stage: regularized Gaussian per class."""
    with stage(STAGE_BACKEND, backend_mod.BackendError):
        return backend_mod.train_backend(w_matrix, labels, config.alpha)


def run_training(config: PipelineConfig, manifest: CorpusManifest) -> ModelBundle:
    """features -> UBM -> statistics -> T -> iVectors -> backend."""
    feats = manifest_features(manifest, config)
    ubm = train_ubm(config, feats)
    stats = collect_stats(ubm, feats)
    del feats  # the frames are not needed past the statistics
    tv = train_tv(config, ubm, stats)
    w_matrix = extract_ivectors(tv, ubm, stats)
    gb = train_backend(config, w_matrix, [e.label for e in manifest.entries])
    return ModelBundle(config=config, ubm=ubm, tv=tv, backend=gb)


def ivectors_for_buffers(bundle: ModelBundle, items) -> np.ndarray:
    """(recording id, mono buffer) pairs -> (n, R) iVector matrix.

    `items` is drawn lazily, one feature chunk at a time.
    """
    stats = collect_stats(bundle.ubm, features_for_buffers(items, bundle.config))
    return extract_ivectors(bundle.tv, bundle.ubm, stats)


def score_ivectors(bundle: ModelBundle, w_matrix) -> np.ndarray:
    """(n, L) backend scores, columns in `bundle.backend.class_labels` order."""
    with stage(STAGE_BACKEND, backend_mod.BackendError):
        return backend_mod.score_many(bundle.backend, w_matrix)


def _check_test_manifest(bundle: ModelBundle, manifest: CorpusManifest) -> None:
    """Manifest and label checks, made before any audio is read."""
    check_manifest(manifest)
    unknown = {e.label for e in manifest.entries} - set(bundle.backend.class_labels)
    if unknown:
        raise PipelineStageError(
            STAGE_EVALUATION, f"labels {sorted(unknown)} not in the trained label set"
        )


def _evaluate(bundle: ModelBundle, items, truth, conditions) -> EvalReport:
    """Classify (recording id, mono buffer) pairs, drawn lazily, and score the
    predictions against the true labels and condition tags of the same items."""
    w_matrix = ivectors_for_buffers(bundle, items)
    with stage(STAGE_BACKEND, backend_mod.BackendError):
        predictions = backend_mod.classify_many(bundle.backend, w_matrix)
    return EvalReport.from_predictions(
        bundle.backend.class_labels, truth, predictions, conditions
    )


def run_evaluation(bundle: ModelBundle, manifest: CorpusManifest) -> EvalReport:
    """Evaluate manifest entries with the bundle's exact feature configuration."""
    _check_test_manifest(bundle, manifest)
    return _evaluate(
        bundle,
        manifest_buffers(manifest, bundle.config),
        [e.label for e in manifest.entries],
        [e.condition for e in manifest.entries],
    )


def run_sbr_sweep(
    bundle: ModelBundle,
    clean_manifest: CorpusManifest,
    speech_pool: CorpusManifest | None,
    sbr_list,
    seed: int,
    exclude_speakers=(),
) -> EvalReport:
    """Evaluate clean data plus seeded in-memory mixes at each SBR.

    An empty sbr_list reduces to plain evaluation of the clean manifest.
    Mixes are made as the classifier draws them, so at most one chunk of
    mixed audio exists at a time.
    """
    sbr_list = list(sbr_list)
    if not sbr_list:
        return run_evaluation(bundle, clean_manifest)
    _check_test_manifest(bundle, clean_manifest)

    mix = _speech_mixer(speech_pool, sbr_list, seed, exclude_speakers)
    entries = clean_manifest.entries
    return _evaluate(
        bundle,
        _sweep_samples(bundle.config, clean_manifest, mix, sbr_list),
        [e.label for _ in sbr_list for e in entries],
        [condition_tag(cond) for cond in sbr_list for _ in entries],
    )


def _sweep_samples(config, clean_manifest, mix, sbr_list):
    """Yield (recording id, mono buffer) for the clean clips and their seeded
    mixes, condition by condition."""
    clean = list(manifest_buffers(clean_manifest, config))
    for rec_id, buf in clean:
        _reject_silent(rec_id, buf)  # before any mix of it is drawn
    for ci, cond in enumerate(sbr_list):
        tag = condition_tag(cond)
        for ei, (rec_id, buf) in enumerate(clean):
            if cond is None:
                yield rec_id, buf
            else:
                mixed, _, _ = mix(rec_id, buf, cond, ci, ei)
                yield f"{rec_id}@{tag}", mixed


def _mix(background, speech, sbr_db, seed, background_id, speech_id):
    """`mix_at_sbr` under the mixer stage, naming the background."""
    with stage(STAGE_MIXER, SceneidError, ValueError, item=background_id):
        return mix_at_sbr(background, speech, sbr_db, seed, background_id, speech_id)


def _speech_mixer(speech_pool, sbr_list, seed, exclude_speakers):
    """The mixing step of a sweep and a built corpus: `mix` draws the speech
    clip and seed of one (condition, entry) position, loads the clip at the
    background's rate (once per clip and rate) and returns the mix, its
    `MixSpec` and the speech entry."""
    with stage(STAGE_MIXER, ValueError):
        pool = usable_speech_pool(speech_pool, sbr_list, exclude_speakers)
    speech_cache: dict = {}

    def mix(background_id, background, sbr_db, condition_index, entry_index):
        mix_seed, entry = draw_speech(pool, seed, condition_index, entry_index)
        key = (entry.path, background.sample_rate)
        if key not in speech_cache:
            speech_cache[key] = load_audio(speech_pool.resolve(entry), background.sample_rate)
        mixed, spec = _mix(background, speech_cache[key], sbr_db, mix_seed, background_id,
                           entry.path)
        return mixed, spec, entry

    return mix


def mix_recording(background_path, speech_path, sbr_db, seed):
    """Mix one speech file into one background file at `sbr_db`, the speech
    read at the background's rate: the mix and its `MixSpec`."""
    background = load_audio(background_path, None)
    speech = load_audio(speech_path, background.sample_rate)
    return _mix(background, speech, sbr_db, seed, background_path, speech_path)


def build_multicondition_corpus(
    manifest: CorpusManifest, sbr_list_db, speech_pool: CorpusManifest, rng_seed: int,
    out_dir, exclude_speakers=(),
) -> CorpusManifest:
    """Mix every background at every SBR condition; None passes through.

    Speech clips are drawn as a sweep with the same seed draws them, never
    from excluded speakers. Mixed files are written under out_dir as 16-bit
    WAV at the background's rate; labels are inherited from the background.
    """
    conditions = list(sbr_list_db)
    mix = _speech_mixer(speech_pool, conditions, rng_seed, exclude_speakers)
    out_dir = Path(out_dir)
    with _file_errors(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    out_entries: list[ManifestEntry] = []
    for ci, cond in enumerate(conditions):
        if cond is None:
            # Pass-through: keep records. A relative path moves from the input
            # manifest's directory to out_dir, which the output manifest
            # resolves it against; an absolute one stays as it is.
            out_entries.extend(
                e if Path(e.path).is_absolute()
                else replace(e, path=os.path.relpath(manifest.resolve(e), out_dir))
                for e in manifest.entries
            )
            continue
        tag = condition_tag(cond)
        for ei, entry in enumerate(manifest.entries):
            background = load_audio(manifest.resolve(entry), None)
            mixed, spec, speech = mix(entry.path, background, cond, ci, ei)
            out_name = f"{ei:05d}_{Path(entry.path).stem}_{tag}.wav"
            write_output(out_dir / out_name, wav_bytes(mixed))
            out_entries.append(ManifestEntry(
                out_name, entry.label, speech.speaker_id, condition=tag,
                seed=spec.rng_seed, gain=spec.speech_gain * spec.headroom_gain,
            ))
    return CorpusManifest(out_entries, base_dir=out_dir)
