"""Record a baseline: run every workload on several seeds, twice, and
summarize.

Run from the root of a checkout::

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload in BENCHMARK.json it makes two sets of untraced runs,
one run per seed in each set and each of BENCHMARK.json's ``run_seconds``,
and one traced run on the first seed. Per end-to-end metric and set it
writes the median, the quartiles and their distance as a share of the
median (the run-to-run spread that the bounds in BENCHMARK.json must
cover), and how far the second set's median is from the first's, together
with the sample counts each run reported, the per-layer metrics of the
traced run and the machine facts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(detail line, result line) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(series: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(series, n=4)
    median = statistics.median(series)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": series}


def run_set(workload: str, seeds: list[int], seconds: int, bounds: dict):
    """(metric summaries, per-run facts) of one untraced run per seed, or
    None when a run was incorrect."""
    values: dict[str, list[float]] = {}
    runs = []
    for seed in seeds:
        detail, result = run(workload, seed, seconds, 0)
        if not result["correct"]:
            print(f"{workload} seed {seed}: incorrect: {detail['problems']}", file=sys.stderr)
            return None
        runs.append({"seed": seed, "attempted": result["attempted"],
                     "failed": result["failed"], "samples": detail["samples"],
                     "machine": detail["machine"]})
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return {name: summarize(series, bounds[name]) for name, series in values.items()}, runs


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", type=Path, help="write the summary JSON here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    summary = {"seconds": seconds, "seeds": seed_list(args.seeds), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for _ in range(2):
            result = run_set(workload, summary["seeds"], seconds, bounds)
            if result is None:
                return 1
            sets.append(result)
        (metrics, runs), (metrics_repeat, runs_repeat) = sets
        for name, first in metrics.items():
            second = metrics_repeat[name]
            second["median_change"] = second["median"] / first["median"] - 1.0
            print(f"{workload:14s} {name:16s} median {first['median']:12.4f} "
                  f"spread {first['spread']:.4f} / {second['spread']:.4f}, "
                  f"second median {second['median_change']:+.4f} (bound {bounds[name]})",
                  flush=True)
        summary["machine"] = {k: v for k, v in runs[-1]["machine"].items()
                              if k != "loadavg_at_start"}
        detail, traced = run(workload, summary["seeds"][0], seconds, 1)
        summary["workloads"][workload] = {
            "end_to_end": metrics,
            "runs": runs,
            "end_to_end_repeat": metrics_repeat,
            "runs_repeat": runs_repeat,
            "traced_run": {
                "seed": summary["seeds"][0],
                "correct": traced["correct"],
                "attempted": traced["attempted"],
                "samples": {"untraced": detail["untraced_samples"],
                            "traced": detail["traced_samples"]},
                "per_layer": {n: m["value"] for n, m in traced["metrics"].items()},
                "layer_self_ms": {n: row["self_ms"] for n, row in detail["layers"].items()},
            },
        }
    text = json.dumps(summary, indent=1, sort_keys=True)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
