"""sceneid benchmark: one workload, one run.

    python3 bench/run.py --workload {train_paper,sweep_desk_nf,classify_paper}
                         --seed N --seconds S --trace {0,1}

Run from the repository root. Set-up (corpus generation, plus bundle training
where the workload needs a bundle) runs in this process; the timed phase runs
in a child process, so its peak RSS is its own.
With --trace 1 the timed phase runs with span wrappers installed and the
per-layer metrics are reported instead of the end-to-end ones.

Prints one `{"env": ...}` line, then the result as the last line:
{"correct", "attempted", "failed", "metrics"}. Exits non-zero without a
result if the program's sources are missing or a phase cannot complete.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from spans import metric_names

# One load-generating process at a time; BLAS pinned to one thread (never
# more than nproc) so runs on a shared machine stay comparable. Set before
# numpy is first imported, here or in the child.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {  # name -> unit
    "train_s": "s",
    "sweep_rec_per_s": "rec/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "acc_clean": "fraction",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units() -> dict:
    units = {}
    for name in metric_names():
        stat = name.rsplit(".", 1)[-1]
        units[name] = {"self_s": "s", "calls": "count", "untraced_s": "s", "spans": "count",
                       "overhead_s": "s"}.get(stat, stat)
    units["pipeline.ModelBundle.load.per_request"] = "loads/rec"
    units["classified_recordings"] = "recordings"
    return units


class PhaseError(Exception):
    pass


def run_measure(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PhaseError("out of time before the timed phase")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT, env=dict(os.environ), stdout=subprocess.PIPE, timeout=timeout, text=True,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise PhaseError("the timed phase did not finish in time") from exc
    if proc.returncode != 0:
        raise PhaseError(f"the timed phase exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sceneid").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def check_determinism(key: str, digest: str, problems: list) -> bool:
    """Compare a digest with the one an earlier run of the same sources and
    seed recorded in this checkout; record it if there is none."""
    path = ROOT / ".bench_work" / "digests.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    seen = json.loads(path.read_text()) if path.exists() else {}
    if key in seen:
        if seen[key] != digest:
            problems.append(f"{key}: output differs from an earlier run with the same seed")
            return False
        return True
    seen[key] = digest
    path.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "sceneid" / "cli.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + DEADLINE_S
    os.environ.update(BLAS_ENV)
    import worker  # its set-up imports numpy, so the BLAS settings go first

    spec = wl.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = worker.setup(args.workload, args.seed, work)
        trace_out = ROOT / ".bench_work" / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        measured = run_measure(
            ["--workload", args.workload, "--seed", str(args.seed), "--dir", str(work),
             "--seconds", str(args.seconds), *(["--trace-out", str(trace_out)] if args.trace else [])],
            deadline,
        )
    except PhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = setup["problems"] + measured["problems"]
    attempted = setup["attempted"] + measured["attempted"]
    failed = setup["failed"] + measured["failed"]
    # Same seed, same inputs and bundles across runs.
    source = source_digest()
    for kind, digest in (("setup", setup["digest"]), ("trained", measured.get("digest"))):
        key = f"{source}:{args.workload}:{kind}:{args.seed}"
        if digest is not None and not check_determinism(key, digest, problems):
            failed += 1

    values = dict(measured)
    values["setup_s"] = setup["setup_s"]
    if spec["train_in_setup"]:
        values["train_s"] = setup["train_s"]
    if args.trace:
        values = dict(measured["layers"])
        values["classified_recordings"] = measured["classified"]
        values["pipeline.ModelBundle.load.per_request"] = (
            values["pipeline.ModelBundle.load.calls"] / measured["classified"])
        units = per_layer_units()
    else:
        units = END_TO_END
    missing = [name for name in units if values.get(name) is None]
    if missing:
        print(f"error: no value for {missing}; failed checks: {problems}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    env = dict(
        measured["env"],
        nproc=os.cpu_count(),
        blas_threads=int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),
        platform=platform.platform(),
        commit=git_commit(),
        source_sha256=source,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        run_s=time.monotonic() - started,
        timed_samples=measured["samples"],
        accuracy={k: measured[k] for k in ("acc_clean", "acc_sbr5", "acc_sbr20") if k in measured},
        synth=spec["synth"],
        config=spec["config"],
        fail_ratio=failed / attempted,
        problems=problems,
    )
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
