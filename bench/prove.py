"""Repeat the benchmark over many seeds and summarise it into a baseline file.

    python3 bench/prove.py --seeds 11-20 [--out bench/baseline.json]

For every workload: one untraced run per seed (end-to-end metrics), then one
traced run on the first seed (per-layer metrics). Writes, per workload, each
metric's per-seed values, median, and quartile spread (Q3 - Q1 over the median,
from `statistics.quantiles(values, n=4)`), the same for the accuracies and
`fail_ratio` the runs print in their `env` line, the layer self-time shares of
the traced run, whether the layer each workload is meant to load has the
largest self time, and the tracing overhead the traced run measured. Runs one
at a time, each for the `run_seconds` that `BENCHMARK.json` sets; run from
the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, stdout=subprocess.PIPE, text=True, check=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median if median else None, "values": values}


def layer_shares(layers: dict) -> list:
    """[layer, share of all traced self time] pairs, largest first."""
    self_s = {k[: -len(".self_s")]: v for k, v in layers.items() if k.endswith(".self_s")}
    total = sum(self_s.values())
    return [[k, v / total] for k, v in sorted(self_s.items(), key=lambda kv: -kv[1]) if v > 0]


def loaded_layer(workload: str, shares: list) -> dict:
    """Share of the layers the workload is meant to load, against the largest other layer."""
    loads = wl.WORKLOADS[workload]["loads"]
    shares = dict(shares)
    mine = {k: v for k, v in shares.items() if any(k == p or k.startswith(p + ".") for p in loads)}
    others = {k: v for k, v in shares.items() if k not in mine}
    top = max(others, key=others.get) if others else None
    return {"loads": loads, "share": sum(mine.values()), "largest_other": top,
            "largest_other_share": others.get(top, 0.0),
            "is_largest": sum(mine.values()) > others.get(top, 0.0)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="11-20")
    parser.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = parser.parse_args()
    seeds = seed_list(args.seeds)
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]

    out = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    for workload in wl.WORKLOADS:
        runs, envs = {}, {}
        for seed in seeds:
            env, result = one_run(workload, seed, seconds, 0)
            runs[seed], envs[seed] = result, env
            out["env"] = {k: env[k] for k in ("python", "numpy", "scipy", "blas", "blas_threads",
                                               "nproc", "platform", "commit", "source_sha256")}
            print(workload, seed, result["correct"], {k: round(m["value"], 4) for k, m in
                                                     result["metrics"].items()}, flush=True)
        names = next(iter(runs.values()))["metrics"]
        entry = {
            "correct": all(r["correct"] for r in runs.values()),
            "attempted": sum(r["attempted"] for r in runs.values()),
            "failed": sum(r["failed"] for r in runs.values()),
            "metrics": {n: dict(summarise([runs[s]["metrics"][n]["value"] for s in seeds]),
                                unit=names[n]["unit"]) for n in names},
            "env_metrics": {n: summarise([envs[s][n] for s in seeds]) for n in ("fail_ratio",)},
            "run_env": {k: env[k] for k in ("synth", "config", "timed_samples")},
        }
        for n in envs[seeds[0]]["accuracy"]:
            entry["env_metrics"][n] = summarise([envs[s]["accuracy"][n] for s in seeds])
        env, traced = one_run(workload, seeds[0], seconds, 1)
        layers = {k: m["value"] for k, m in traced["metrics"].items()}
        shares = layer_shares(layers)
        entry["traced"] = {
            "seed": seeds[0],
            "correct": traced["correct"],
            "layers": layers,
            "self_time_shares": shares,
            "loaded_layer": loaded_layer(workload, shares),
            "overhead_s": layers["trace.overhead_s"],
        }
        out["workloads"][workload] = entry
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
