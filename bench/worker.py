"""Set-up and timed phases of a benchmark run.

`bench/run.py` calls `setup` in its own process and starts the timed phase as

    python3 bench/worker.py --workload W --seed N --dir D --seconds S [--trace-out FILE]

which prints one JSON object as its last line. Every program call goes
through `sceneid.cli.main` in-process, with its standard output captured and
checked.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wl  # noqa: E402  (bench/ is sys.path[0] when run as a script)


class Call:
    def __init__(self, argv, rc, stdout, seconds):
        self.argv, self.rc, self.stdout, self.seconds = argv, rc, stdout, seconds
        self.ok = rc == 0


class Calls:
    """Runs CLI calls in-process, timing each; a call fails on a non-zero exit
    code or on an output that fails a check."""

    def __init__(self):
        self.done: list[Call] = []
        self.problems: list[str] = []

    def run(self, *argv) -> Call:
        import sceneid.cli  # looked up per call, so a traced `main` is used

        argv = [str(a) for a in argv]
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = sceneid.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught program error is a failed call, not a crash
            traceback.print_exc()
            rc = -1
        call = Call(argv, rc, out.getvalue(), time.perf_counter() - start)
        if rc != 0:
            self.problems.append(f"{argv[0]} exited with {rc}")
        self.done.append(call)
        return call

    def check(self, call: Call, ok: bool, message: str) -> None:
        if not ok:
            call.ok = False
            self.problems.append(f"{call.argv[0]}: {message}")

    @property
    def failed(self) -> int:
        return sum(not c.ok for c in self.done)


def config_args(config: dict) -> list[str]:
    return [a for key, value in config.items() for a in ("--set", f"{key}={value}")]


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile; a single sample is its own quantile."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def check_report(calls: Calls, call: Call, path: Path, n_clips: int, tags) -> dict:
    """A sweep report covers every clip once per requested condition."""
    if not call.ok:
        return {}
    report = json.loads(path.read_text(encoding="utf-8"))
    per = report["per_condition"]
    calls.check(call, sorted(per) == sorted(tags), f"conditions {sorted(per)} != {sorted(tags)}")
    calls.check(call, report["total"] == n_clips * len(tags),
                f"report total {report['total']} != {n_clips} x {len(tags)}")
    calls.check(call, all(per[t]["total"] == n_clips for t in per if t in tags),
                "a condition does not cover every clip")
    return {wl.SWEEP_TAGS[t]: per[t]["accuracy"] for t in per if t in wl.SWEEP_TAGS}


def sweep_tags(sbrs: str) -> list[str]:
    return ["clean" if s == "clean" else f"sbr+{s}dB" for s in sbrs.split(",")]


def timed_loop(seconds: float, least: int, step) -> None:
    start = time.perf_counter()
    i = 0
    while i < least or time.perf_counter() - start < seconds:
        step(i)
        i += 1


def accuracy_sweep(calls, d: Path, seed: int, bundle: Path, sbrs: str) -> dict:
    """Sweep every test clip; gives sweep_rec_per_s and accuracies on the
    workloads that do not time sweeps."""
    corpus = d / "corpus"
    n_clips = len(read_jsonl(corpus / "test.jsonl"))
    tags = sweep_tags(sbrs)
    call = calls.run("sweep", "--bundle", bundle, "--manifest", corpus / "test.jsonl",
                     "--speech-pool", corpus / "speech_eval.jsonl", "--sbrs", sbrs,
                     "--seed", seed, "--out", d / "acc_report.json")
    out = check_report(calls, call, d / "acc_report.json", n_clips, tags)
    out["classified"] = n_clips * len(tags)
    out["sweep_rec_per_s"] = out["classified"] / call.seconds
    return out


def measure_train_paper(calls: Calls, d: Path, seed: int, seconds: float, spec) -> dict:
    corpus = d / "corpus"
    trained = []

    def step(i):
        out = d / f"trained{i}"
        call = calls.run("train", "--manifest", corpus / "train.jsonl", "--out", out,
                         *config_args(spec["config"]))
        trained.append((call, out))

    timed_loop(seconds, wl.MIN_TRAIN_CALLS, step)
    first = trained[0][1]
    for call, out in trained[1:]:
        calls.check(call, tree_digest(out) == tree_digest(first),
                    "bundle differs from the first one trained with the same seed")
    times = [c.seconds for c, _ in trained]
    result = {"train_s": statistics.median(times), "call_times": times, "bundle": first}
    result.update(accuracy_sweep(calls, d, seed, first, wl.SWEEP_SBRS))
    return result


def measure_sweep_desk_nf(calls: Calls, d: Path, seed: int, seconds: float, spec) -> dict:
    corpus = d / "corpus"
    n_clips = len(read_jsonl(corpus / "test.jsonl"))
    tags = sweep_tags(wl.SWEEP_SBRS)
    runs = []

    def step(i):
        report = d / f"report{i}.json"
        call = calls.run("sweep", "--bundle", d / "bundle", "--manifest", corpus / "test.jsonl",
                         "--speech-pool", corpus / "speech_eval.jsonl", "--sbrs", wl.SWEEP_SBRS,
                         "--seed", seed, "--out", report)
        runs.append((call, report, check_report(calls, call, report, n_clips, tags)))

    timed_loop(seconds, wl.MIN_SWEEP_CALLS, step)
    first_text = runs[0][1].read_bytes() if runs[0][0].ok else None
    for call, report, _ in runs[1:]:
        calls.check(call, call.ok and report.read_bytes() == first_text,
                    "report differs from the first sweep with the same seed")
    times = [c.seconds for c, _, _ in runs]
    items = n_clips * len(tags)
    result = {"call_times": times, "sweep_rec_per_s": statistics.median(items / t for t in times),
              "classified": items * len(runs)}
    result.update(runs[0][2])
    return result


def measure_classify_paper(calls: Calls, d: Path, seed: int, seconds: float, spec) -> dict:
    corpus = d / "corpus"
    bundle = d / "bundle"
    clips = read_jsonl(corpus / "test.jsonl")
    classes = spec["classes"]
    times, hits = [], []

    def step(i):
        clip = clips[i % len(clips)]
        path = str(corpus / clip["path"])
        call = calls.run("classify", "--bundle", bundle, "--audio", path)
        times.append(call.seconds)
        if not call.ok:
            return
        lines = call.stdout.splitlines()
        calls.check(call, len(lines) == 1, f"{len(lines)} output lines for one request")
        try:
            rec = json.loads(lines[0])
        except (IndexError, ValueError):
            calls.check(call, False, "no JSON result line")
            return
        scores = rec.get("scores", {})
        calls.check(call, rec.get("id") == path, "id does not name the request")
        calls.check(call, rec.get("label") in classes, f"label {rec.get('label')!r} not in {classes}")
        calls.check(call, sorted(scores) == sorted(classes) and all(math.isfinite(v) for v in scores.values()),
                    "scores are not one finite value per class")
        if i < len(clips):
            hits.append(rec.get("label") == clip["label"])

    timed_loop(seconds, wl.MIN_REQUESTS, step)
    result = accuracy_sweep(calls, d, seed, bundle, "5,20")
    result.update(call_times=times, acc_clean=sum(hits) / len(hits) if hits else None,
                  classified=len(times) + result["classified"])
    return result


MEASURE = {
    "train_paper": measure_train_paper,
    "sweep_desk_nf": measure_sweep_desk_nf,
    "classify_paper": measure_classify_paper,
}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
    }


def setup(workload: str, seed: int, d: Path) -> dict:
    """Generate the corpus into `d`, and train the bundle where the workload
    needs one; `setup_s` times both."""
    import sceneid.cli  # noqa: F401  (import cost stays out of setup_s)

    spec = wl.WORKLOADS[workload]
    calls = Calls()
    synth = spec["synth"]
    start = time.perf_counter()
    calls.run("synth", "--out", d / "corpus", "--classes", 4,
              "--train-per-class", synth["train_per_class"],
              "--test-per-class", synth["test_per_class"],
              "--clip-seconds", synth["clip_seconds"], "--sample-rate", synth["sample_rate"],
              "--seed", seed)
    train_s = None
    if spec["train_in_setup"]:
        call = calls.run("train", "--manifest", d / "corpus" / "train.jsonl", "--out", d / "bundle",
                         *config_args(spec["config"]))
        train_s = call.seconds
    setup_s = time.perf_counter() - start
    return {"setup_s": setup_s, "train_s": train_s, "digest": tree_digest(d),
            "attempted": len(calls.done), "failed": calls.failed, "problems": calls.problems}


def measure(args) -> dict:
    from sceneid.pipeline import ModelBundle

    spec = wl.WORKLOADS[args.workload]
    d = Path(args.dir)
    if spec["train_in_setup"]:
        spec = dict(spec, classes=ModelBundle.load(d / "bundle").backend.class_labels)
    tracer = None
    if args.trace_out:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    calls = Calls()
    start = time.perf_counter()
    result = MEASURE[args.workload](calls, d, args.seed, args.seconds, spec)
    wall = time.perf_counter() - start
    times = result.pop("call_times")
    result["latency_p50_ms"] = 1000.0 * statistics.median(times)
    result["latency_p90_ms"] = 1000.0 * quantile(times, 0.9)
    result["samples"] = len(times)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(wall)
        tracer.write(args.trace_out)
    bundle = result.pop("bundle", None)
    if bundle is not None:  # the trained bundle must reload through the public loader
        try:
            ModelBundle.load(bundle)
            result["digest"] = tree_digest(bundle)
        except Exception as exc:  # any load failure fails the train call that wrote it
            calls.check(calls.done[0], False, f"bundle does not reload: {exc!r}")
    result.update(env=environment(), attempted=len(calls.done), failed=calls.failed,
                  problems=calls.problems)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
