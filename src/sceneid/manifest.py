"""JSON-lines corpus manifests: one record per recording.

Each line holds at least a path and a scene label; optional fields carry
speaker identity (for mixing exclusion rules), a condition tag (clean / SBR
variant), a cross-validation fold, and mixing provenance (seed, gain).
Paths are stored as written and resolved relative to the manifest file.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import SceneidError


class ManifestError(SceneidError):
    pass


# Field -> (JSON value types it accepts, what the error says it must be).
# JSON booleans are never accepted, although Python's bool is an int.
_FIELD_TYPES = {
    "path": ((str,), "a string"),
    "label": ((str,), "a string"),
    "speaker_id": ((str, type(None)), "a string or null"),
    "condition": ((str,), "a string"),
    "fold": ((int, type(None)), "an integer or null"),
    "seed": ((int, type(None)), "an integer or null"),
    "gain": ((int, float, type(None)), "a number or null"),
}


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: str
    speaker_id: str | None = None
    condition: str = "clean"
    fold: int | None = None
    seed: int | None = None
    gain: float | None = None

    def to_record(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


class CorpusManifest:
    """Ordered list of manifest entries plus the directory they resolve against."""

    def __init__(self, entries, base_dir=None):
        self.entries: list[ManifestEntry] = list(entries)
        self.base_dir = Path(base_dir) if base_dir is not None else Path(".")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def resolve(self, entry: ManifestEntry) -> Path:
        p = Path(entry.path)
        return p if p.is_absolute() else self.base_dir / p

    def filter(self, predicate) -> "CorpusManifest":
        return CorpusManifest([e for e in self.entries if predicate(e)], self.base_dir)

    def validate(self) -> None:
        """Check path uniqueness and fold consistency."""
        seen = set()
        for e in self.entries:
            if e.path in seen:
                raise ManifestError(f"duplicate path in manifest: {e.path}")
            seen.add(e.path)
        folds = [e.fold for e in self.entries]
        with_fold = [f for f in folds if f is not None]
        if with_fold and len(with_fold) != len(folds):
            raise ManifestError("fold assignments must cover all entries or none")

    @classmethod
    def load(cls, path) -> "CorpusManifest":
        """Parse a JSON-lines manifest; any unreadable file or malformed record
        is a ManifestError naming the file, and the line where there is one."""
        path = Path(path)
        try:
            raw = path.read_bytes()
        except FileNotFoundError as exc:
            raise ManifestError(f"manifest not found: {path}") from exc
        except OSError as exc:
            raise ManifestError(f"{path}: cannot read manifest ({exc.strerror or exc})") from exc
        entries = []
        for lineno, line in enumerate(raw.splitlines(), start=1):
            where = f"{path}:{lineno}"
            try:
                line = line.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ManifestError(f"{where}: not UTF-8 text ({exc.reason})") from exc
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ManifestError(f"{where}: invalid JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise ManifestError(f"{where}: record must be a JSON object")
            if "path" not in record or "label" not in record:
                raise ManifestError(f"{where}: record needs 'path' and 'label'")
            unknown = set(record) - set(_FIELD_TYPES)
            if unknown:
                raise ManifestError(f"{where}: unknown fields {sorted(unknown)}")
            for name, value in record.items():
                types, expected = _FIELD_TYPES[name]
                if isinstance(value, bool) or not isinstance(value, types):
                    raise ManifestError(f"{where}: {name!r} must be {expected}, got {value!r}")
            entries.append(ManifestEntry(**record))
        return cls(entries, base_dir=path.parent)

    def to_bytes(self) -> bytes:
        """The JSON-lines file `load` reads: one sorted-key record per line."""
        lines = (json.dumps(e.to_record(), sort_keys=True) + "\n" for e in self.entries)
        return "".join(lines).encode("utf-8")

    def save(self, path) -> None:
        Path(path).write_bytes(self.to_bytes())
