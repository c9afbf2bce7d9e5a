"""Outside-in span tracer for the benchmark's traced runs.

The tracer replaces each public layer function at every `sceneid` module
attribute that holds it (for example both `sceneid.features.extract_features`
and `sceneid.pipeline.extract_features`), so each call records a span: name,
start, end, parent span and request id. A request is one top-level span, i.e.
one `sceneid.cli.main` call. Spans stay in memory; `write` saves them when the
run ends. No program file is changed.

The tracing overhead is measured in the same run: each wrapper adds up the
time it spends outside the function it wraps (span bookkeeping and counters),
which is the time a traced run spends that an untraced run does not.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path


def _rows(x) -> int:
    return int(getattr(x, "rows", x).shape[0])


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


# Layer name -> (stats reported as `<layer>.<stat>`, counter). A counter maps
# (args, result) of one call to the counts it adds, e.g. {"frames": 499}.
LAYERS = {
    "audio.read_wav": (("calls", "self_s", "bytes"), lambda a, r: {"bytes": os.path.getsize(a[0])}),
    "audio.resample": (("self_s", "samples"), lambda a, r: {"samples": a[0].samples.size}),
    "audio.frame_signal": (("self_s",), None),
    "features.extract_features": (("calls", "self_s", "frames"), lambda a, r: {"frames": r.n_frames}),
    "features.power_spectrogram": (("self_s",), None),
    "features.mfcc": (("self_s",), None),
    "features.append_sdc": (("self_s",), None),
    "noisefloor.noise_floor_spectrogram": (
        ("calls", "self_s", "frames"), lambda a, r: {"frames": _rows(r.frames)}),
    "mixer.mix_at_sbr": (("calls", "self_s"), None),
    "mixer.active_speech_level": (("self_s",), None),
    "gmm.train_ubm": (("self_s", "frames"), lambda a, r: {"frames": _rows(a[0])}),
    "gmm.accumulate_stats": (("calls", "self_s", "frames"), lambda a, r: {"frames": _rows(a[1])}),
    "ivector.init_tv_pca": (("self_s",), None),
    "ivector.train_tv": (("self_s", "recordings"), lambda a, r: {"recordings": len(a[0])}),
    "ivector.extract_ivectors": (
        ("calls", "self_s", "recordings"), lambda a, r: {"recordings": len(a[2])}),
    "ivector.extract_ivector": (("calls", "self_s"), None),
    "backend.train_backend": (("self_s",), None),
    "backend.classify_many": (("self_s",), None),
    "backend.score": (("calls", "self_s"), None),
    # a[0] is the class: the wrapper sits under the classmethod.
    "pipeline.ModelBundle.load": (("calls", "self_s", "bytes"), lambda a, r: {"bytes": _dir_bytes(a[1])}),
    "pipeline.ModelBundle.save": (("self_s",), None),
    "cli.main": (("calls", "self_s"), None),
}


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{layer}.{stat}" for layer, (stats, _) in LAYERS.items() for stat in stats]
    return names + ["untraced_s", "trace.spans", "trace.overhead_s"]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counts: dict[str, dict[str, int]] = {name: {} for name in LAYERS}
        self._stack: list[int] = []
        self._requests = 0
        self.overhead_s = 0.0

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            if self._stack:
                parent = self._stack[-1]
                request = self.spans[parent][4]
            else:
                parent, request = None, self._requests
                self._requests += 1
            index = len(self.spans)
            span = [name, time.perf_counter(), None, parent, request]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                totals = self.counts[name]
                for stat, value in count(args, result).items():
                    totals[stat] = totals.get(stat, 0) + int(value)
            self.overhead_s += time.perf_counter() - entered - (span[2] - span[1])
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function wherever a `sceneid` module refers to it."""
        import sceneid.cli  # noqa: F401  (imports every module the CLI reaches)
        from sceneid.pipeline import ModelBundle

        modules = [m for n, m in sys.modules.items() if n == "sceneid" or n.startswith("sceneid.")]
        for name, (_, count) in LAYERS.items():
            module_name, attr = name.split(".", 1)
            if attr.startswith("ModelBundle."):
                method = attr.split(".", 1)[1]
                raw = ModelBundle.__dict__[method]
                if isinstance(raw, classmethod):
                    setattr(ModelBundle, method, classmethod(self._wrap(name, raw.__func__, count)))
                else:
                    setattr(ModelBundle, method, self._wrap(name, raw, count))
                continue
            original = getattr(sys.modules[f"sceneid.{module_name}"], attr)
            traced = self._wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer calls, self time and counts, plus `untraced_s`.

        Self time is a span's duration minus the durations of its direct
        children; `untraced_s` is the wall time not inside any top-level span;
        `trace.overhead_s` is the time the wrappers add.
        """
        child = [0.0] * len(self.spans)
        top = 0.0
        for name, start, end, parent, _ in self.spans:
            if parent is None:
                top += end - start
            else:
                child[parent] += end - start
        calls = {name: 0 for name in LAYERS}
        self_s = {name: 0.0 for name in LAYERS}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        out = {}
        for name, (stats, _) in LAYERS.items():
            for stat in stats:
                if stat == "calls":
                    out[f"{name}.calls"] = calls[name]
                elif stat == "self_s":
                    out[f"{name}.self_s"] = self_s[name]
                else:
                    out[f"{name}.{stat}"] = self.counts[name].get(stat, 0)
        out["untraced_s"] = wall_s - top
        out["trace.spans"] = len(self.spans)
        out["trace.overhead_s"] = self.overhead_s
        return out

    def write(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
