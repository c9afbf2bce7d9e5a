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
import re
import stat
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import backend as backend_mod
from . import gmm as gmm_mod
from . import ivector as ivector_mod
from .audio import AudioBuffer, read_wav, resample, wav_bytes
from .config import PipelineConfig
from .errors import SceneidError
from .features import FeatureConfig, check_buffer, extract_features_many
from .manifest import CorpusManifest, ManifestError
from .mixer import condition_tag, draw_speech, mix_at_sbr, usable_speech_pool
from .noisefloor import NoiseFloorError

# The model files of a bundle, in the order they are decoded: name ->
# (ModelBundle field, encoder, decoder).
_BUNDLE_FILES = {
    "config.txt": ("config", lambda config: config.snapshot_text().encode("utf-8"),
                   PipelineConfig.from_bytes),
    "ubm.gmm": ("ubm", gmm_mod.gmm_to_bytes, gmm_mod.gmm_from_bytes),
    "tv.tvm": ("tv", ivector_mod.tv_to_bytes, ivector_mod.tv_from_bytes),
    "backend.gbe": ("backend", backend_mod.backend_to_bytes, backend_mod.backend_from_bytes),
}

# A digest as `bundle.json` lists it (`file_digest`).
_DIGEST = re.compile("[0-9a-f]{8}")

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
# spectra at once. Evaluation, sweeps and classification draw their audio
# lazily, so they hold one chunk of audio, its spectra and one tile of
# statistics at a time, plus the (n, R) iVector rows.
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
        """Write the four model files and `bundle.json`, which lists each
        file's `file_digest`, taken on the bytes written; each file is opened
        once."""
        bundle_dir = Path(bundle_dir)
        with _file_errors(bundle_dir):
            bundle_dir.mkdir(parents=True, exist_ok=True)
        encoded = {name: encode(getattr(self, attr)) for name, (attr, encode, _) in
                   _BUNDLE_FILES.items()}
        for name, data in encoded.items():
            write_output(bundle_dir / name, data)
        index = {"files": {name: file_digest(data) for name, data in encoded.items()}}
        write_output(
            bundle_dir / "bundle.json",
            (json.dumps(index, sort_keys=True, indent=2) + "\n").encode("utf-8"),
        )

    @classmethod
    def load(cls, bundle_dir) -> "ModelBundle":
        """Load a bundle whose index lists, and checksums, exactly its files.

        An index whose values are not `file_digest`s (an older sceneid's
        SHA-256 values, say) is refused before any model file is read. Every
        file is read once, by `read_model_file`, and every checksum is checked
        before any file is parsed. Every failure to read a bundle file is a
        config-stage error naming it.
        """
        bundle_dir = Path(bundle_dir)
        for name in (*_BUNDLE_FILES, "bundle.json"):
            if not (bundle_dir / name).exists():
                raise PipelineStageError(STAGE_CONFIG, f"bundle file missing: {name}")
        index = read_model_file(lambda raw: json.loads(bytes(raw)), bundle_dir / "bundle.json")
        files = index.get("files") if isinstance(index, dict) else None
        if not isinstance(files, dict) or sorted(files) != sorted(_BUNDLE_FILES):
            raise PipelineStageError(
                STAGE_CONFIG, f"bundle.json must list exactly the files {list(_BUNDLE_FILES)}"
            )
        if not all(isinstance(v, str) and _DIGEST.fullmatch(v) for v in files.values()):
            raise PipelineStageError(
                STAGE_CONFIG, "bundle.json lists no 8-hex-digit CRC-32 checksums (older "
                "sceneid versions listed SHA-256); retrain the bundle"
            )
        raw = {  # every file is read before any is parsed
            name: read_model_file(lambda data: data, bundle_dir / name) for name in _BUNDLE_FILES
        }
        for name, data in raw.items():
            if file_digest(data) != files[name]:
                raise PipelineStageError(STAGE_CONFIG, f"bundle file corrupted: {name}")
        fields = {}
        for name, (attr, _, decode) in _BUNDLE_FILES.items():
            with _file_errors(bundle_dir / name):
                fields[attr] = decode(raw.pop(name))
        return cls(**fields)


def file_digest(data) -> str:
    """A bundle file's checksum, as `bundle.json` lists it: the CRC-32
    (`zlib.crc32`) of its bytes, as 8 lowercase hex digits.

    It guards against accidental damage, not tampering (the index sits beside
    the files): any error burst of up to 32 bits, so any one damaged byte,
    changes it.
    """
    return f"{zlib.crc32(data):08x}"


def _file_errors(path):
    """Failing to read, parse or write `path` is a config-stage error naming it."""
    return stage(STAGE_CONFIG, OSError, SceneidError, ValueError, item=path)


def read_model_file(decode, path):
    """Read a model, config, index or iVector file and decode it with `decode`.

    This is the one reader of these files. It opens the file once and reads
    it straight into an owned float64 buffer, placed so that the file ends on
    an 8-byte boundary, and `decode` gets a writeable memoryview of its bytes.
    A container's last array (T in `tv.tvm`) is then aligned, and
    `serialize.Format.decode` keeps it as a view of the buffer: the file's
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
    """Read one recording (`read_wav` downmixes it), resampled to
    `sample_rate` (None keeps the file's rate). The one place a WAV file is read."""
    with stage(STAGE_AUDIO, OSError, SceneidError, ValueError, item=path):
        buf = read_wav(path)
        return buf if sample_rate is None else resample(buf, sample_rate)


def _reject_silent(buf: AudioBuffer) -> None:
    """A digitally silent recording (every sample exactly zero) has no scene
    to classify."""
    if not np.any(buf.samples):
        raise SceneidError("recording is digitally silent")


@contextmanager
def front_end_errors(rec_id=None):
    """Front-end failures of recording `rec_id` (None: of a batch): a tracker
    too short for its seed frames in the noise-floor stage, any other in the
    features stage."""
    with (
        stage(STAGE_FEATURES, SceneidError, ValueError, item=rec_id),
        stage(STAGE_NOISE_FLOOR, NoiseFloorError, item=rec_id),
    ):
        yield


def check_recording(buf: AudioBuffer, feature_config: FeatureConfig) -> None:
    """The checks a recording passes before it is transformed: not digitally
    silent (`_reject_silent`), then `check_buffer`. Raised as library errors,
    for `front_end_errors` to name the recording."""
    _reject_silent(buf)
    check_buffer(buf, feature_config)


def features_for_buffers(items, config: PipelineConfig):
    """Featurize (recording id, mono buffer) pairs, FEATURE_CHUNK at a time.

    Yields one (recording id, (T, D) feature rows) pair per input pair, in
    order. `items` is drawn one chunk at a time, so a lazy iterable never has
    more than a chunk of audio alive. Each recording of a chunk is checked
    (`check_recording`) in input order, under its id, before any is
    transformed.
    """
    feature_config = config.to_feature_config()
    items = iter(items)
    while chunk := list(itertools.islice(items, FEATURE_CHUNK)):
        for rec_id, buf in chunk:
            with front_end_errors(rec_id):
                check_recording(buf, feature_config)
        with front_end_errors():
            feats = extract_features_many([buf for _, buf in chunk], feature_config)
        ids = [rec_id for rec_id, _ in chunk]
        del chunk  # free this chunk's audio before the next one is drawn
        yield from zip(ids, feats)


def check_manifest(manifest: CorpusManifest) -> None:
    """Reject an invalid or empty manifest before any audio is read."""
    with stage(STAGE_MANIFEST, ManifestError):
        manifest.validate()
    if not manifest.entries:
        raise PipelineStageError(STAGE_MANIFEST, "manifest is empty")


def manifest_buffers(manifest: CorpusManifest, rate: int | None):
    """(entry path, mono buffer at `rate`, None for the file's own) per
    manifest entry, each read as it is drawn."""
    return ((e.path, load_audio(manifest.resolve(e), rate)) for e in manifest.entries)


def manifest_features(manifest: CorpusManifest, config: PipelineConfig):
    """Check the manifest (`check_manifest`), then return the lazy
    `features_for_buffers` stream of its entries: one (entry path, (T, D)
    feature rows) pair per entry, in manifest order, each chunk read and
    featurized as it is drawn. A bad manifest fails here, before any audio is
    read; a faulty recording fails when its chunk is drawn."""
    check_manifest(manifest)
    return features_for_buffers(manifest_buffers(manifest, config.sample_rate), config)


def pooled_features(manifest: CorpusManifest, config: PipelineConfig):
    """`manifest_features`, with every recording's rows copied into one
    (N, D) frame pool: the pool, and one (entry path, view of its rows in the
    pool) pair per entry, in manifest order. The UBM needs the whole pool, so
    this is where the stream becomes a list.

    Each recording's own array is dropped as soon as it is copied, so the
    frames are held once, in the pool, before `train_ubm` starts. The copy
    runs from the last recording to the first: freed in the reverse of the
    order they were made, the arrays go back to the system as they are
    freed (the allocator trims the top of its heap), not all at the end.
    """
    feats = list(manifest_features(manifest, config))
    pool = np.empty((sum(len(rows) for _, rows in feats), feats[0][1].shape[1]))
    end = len(pool)
    for i in reversed(range(len(feats))):
        rec_id, rows = feats[i]
        view = pool[end - len(rows):end]
        view[...] = rows
        feats[i] = (rec_id, view)
        end -= len(rows)
    del rows  # the first recording's own array
    return pool, feats


def train_ubm(config: PipelineConfig, frames) -> gmm_mod.GmmModel:
    """UBM stage: k-means++ and EM over the (N, D) frame pool `frames`."""
    with stage(STAGE_GMM, gmm_mod.GmmError):
        return gmm_mod.train_ubm(
            frames,
            config.ubm_components,
            n_iters=config.ubm_iters,
            seed=config.seed,
            kmeans_iters=config.kmeans_iters,
        )


def collect_stats(ubm: gmm_mod.GmmModel, feats):
    """Statistics stage: Baum-Welch statistics per recording, yielded as each
    (recording id, feature rows) pair is drawn from `feats`. A failure names
    the pair's recording id."""
    for rec_id, rows in feats:
        with stage(STAGE_GMM, gmm_mod.GmmError, item=rec_id):
            stats = gmm_mod.accumulate_stats(ubm, rows)
        yield stats


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
    pool, feats = pooled_features(manifest, config)
    ubm = train_ubm(config, pool)
    stats = list(collect_stats(ubm, feats))
    del pool, feats  # the frames are not needed past the statistics
    tv = train_tv(config, ubm, stats)
    w_matrix = extract_ivectors(tv, ubm, stats)
    gb = train_backend(config, w_matrix, [e.label for e in manifest.entries])
    return ModelBundle(config=config, ubm=ubm, tv=tv, backend=gb)


class _Stream:
    """`count` items drawn lazily from `items`: an iterable whose length is
    known before it is drawn, so a caller (the benchmark's tracer, say) can
    count the recordings of the `extract_ivectors` call that
    `ivectors_for_buffers` streams them into."""

    def __init__(self, items, count: int):
        self._items, self._count = items, count

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return self._count


def ivectors_for_buffers(
    config: PipelineConfig, ubm: gmm_mod.GmmModel, tv: ivector_mod.TvMatrix, items, count: int
) -> np.ndarray:
    """`count` (recording id, mono buffer) pairs -> (count, R) iVector matrix,
    featurized by `config` and extracted with `ubm` and `tv`: a bundle's
    models, or the loose model files of `extract-ivectors`.

    Everything is a stream: `items` is drawn one feature chunk at a time,
    each recording's statistics go to `extract_ivectors` as they are made, and
    each tile's iVectors are solved as soon as it fills. So at most a chunk
    of audio and features and a tile of statistics are alive at once, beyond
    the iVector rows; a fault surfaces when its item is drawn.
    """
    stats = collect_stats(ubm, features_for_buffers(items, config))
    return extract_ivectors(tv, ubm, _Stream(stats, count))


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
    w_matrix = ivectors_for_buffers(bundle.config, bundle.ubm, bundle.tv, items, len(truth))
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
        manifest_buffers(manifest, bundle.config.sample_rate),
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
    Items come clip by clip from `_conditions`, each clip read at the
    bundle's rate, and are classified as they are drawn: memory holds a
    feature chunk of audio and one tile of statistics, not the corpus. The
    report counts items per (label, condition), so it does not depend on
    that order.
    """
    sbr_list = list(sbr_list)
    if not sbr_list:
        return run_evaluation(bundle, clean_manifest)
    _check_test_manifest(bundle, clean_manifest)
    walk = _conditions(clean_manifest, bundle.config.sample_rate, speech_pool, sbr_list, seed,
                       exclude_speakers)
    entries = clean_manifest.entries
    return _evaluate(
        bundle,
        (
            (entry.path if spec is None else f"{entry.path}@{condition_tag(sbr_list[ci])}", buf)
            for ci, _, entry, buf, spec, _ in walk
        ),
        [e.label for e in entries for _ in sbr_list],
        [condition_tag(cond) for _ in entries for cond in sbr_list],
    )


def _mix(background, speech, sbr_db, seed, background_id, speech_id):
    """`mix_at_sbr` under the mixer stage, naming the background."""
    with stage(STAGE_MIXER, SceneidError, ValueError, item=background_id):
        return mix_at_sbr(background, speech, sbr_db, seed, background_id, speech_id)


def _conditions(manifest, rate, speech_pool, sbr_list, seed, exclude_speakers):
    """Walk the (clip, condition) grid of a sweep or a built corpus.

    Checks the speech pool before any audio is read. The walk reads each clip
    once, at `rate` (None: the file's own), rejects it if it is digitally
    silent, then yields its conditions in `sbr_list` order as (condition
    index, entry index, entry, buffer, MixSpec, speech entry): the clip and
    None, None for a None condition, its mix otherwise. A mix's seed and
    speech clip depend only on its (condition, entry) position
    (`draw_speech`), so the order changes no mix. Speech is read once per
    (clip, rate).
    """
    with stage(STAGE_MIXER, ValueError):
        pool = usable_speech_pool(speech_pool, sbr_list, exclude_speakers)

    def walk():
        speech_cache: dict = {}
        clips = zip(manifest.entries, manifest_buffers(manifest, rate))
        for ei, (entry, (rec_id, buf)) in enumerate(clips):
            with stage(STAGE_FEATURES, SceneidError, item=rec_id):
                _reject_silent(buf)  # before any mix of it is drawn
            for ci, sbr_db in enumerate(sbr_list):
                if sbr_db is None:
                    yield ci, ei, entry, buf, None, None
                    continue
                mix_seed, speech = draw_speech(pool, seed, ci, ei)
                key = (speech.path, buf.sample_rate)
                if key not in speech_cache:
                    speech_cache[key] = load_audio(speech_pool.resolve(speech), buf.sample_rate)
                mixed, spec = _mix(buf, speech_cache[key], sbr_db, mix_seed, rec_id, speech.path)
                yield ci, ei, entry, mixed, spec, speech

    return walk()


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

    The mixes come from `_conditions`, as a sweep with the same seed makes
    them, never from excluded speakers. Each background is read once, at its
    own rate, and its mixes are written under out_dir as 16-bit WAV at that
    rate as they are made; labels and folds are inherited from the
    background. The manifest is checked first (`check_manifest`). The output
    manifest stays condition-major. A clean-only build reads no audio.
    """
    check_manifest(manifest)
    conditions = list(sbr_list_db)
    walk = _conditions(manifest, None, speech_pool, conditions, rng_seed, exclude_speakers)
    out_dir = Path(out_dir)
    with _file_errors(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    # Pass-through entries keep their records. A relative path moves from the
    # input manifest's directory to out_dir, which the output manifest
    # resolves it against; an absolute one stays as it is.
    kept = [
        e if Path(e.path).is_absolute()
        else replace(e, path=os.path.relpath(manifest.resolve(e), out_dir))
        for e in manifest.entries
    ]
    out_entries = [e if cond is None else None for cond in conditions for e in kept]
    if any(cond is not None for cond in conditions):
        for ci, ei, entry, mixed, spec, speech in walk:
            if spec is not None:  # placed by (condition, entry), so condition-major
                tag = condition_tag(conditions[ci])
                out_name = f"{ei:05d}_{Path(entry.path).stem}_{tag}.wav"
                write_output(out_dir / out_name, wav_bytes(mixed))
                out_entries[ci * len(kept) + ei] = replace(
                    entry, path=out_name, speaker_id=speech.speaker_id, condition=tag,
                    seed=spec.rng_seed, gain=spec.speech_gain * spec.headroom_gain,
                )
    return CorpusManifest(out_entries, base_dir=out_dir)
