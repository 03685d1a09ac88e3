"""Benchmark of the reaper toolkit's serving path and forge.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_overhead --seed 1 --seconds 20 --trace 0

Workloads: ``serve_overhead``, ``serve_dag``, ``forge_pool`` and
``forge_batches`` (see ``serving.py``, ``forging.py`` and README.md). Inputs
are generated from ``--seed``; every output is checked. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A traced run alternates untraced and
traced operations, reports the difference between the two as the tracing
overhead, and writes its spans to ``.perfbench_out/<workload>-spans.jsonl``.
Earlier lines give sample counts, machine facts and failures for a reader.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# Per workload, (q, slices): the tail is the highest percentile q with at
# least ten samples beyond it at the run length BENCHMARK.json sets, fixed so
# that a faster program does not change which percentile is reported.
# forge_pool runs too few invocations for a tail, so its tail is its median.
# serve_overhead's p99 is taken in 10 consecutive slices of its requests and
# the median of the ten is reported: a few seconds of host preemption moved
# its pooled p99 from 1 to 5 ms, where the slice median barely moves.
TAIL = {
    "serve_overhead": (0.99, 10),
    "serve_dag": (0.90, 1),
    "forge_pool": (0.50, 1),
    "forge_batches": (0.90, 1),
}
SETUP_PROBES = 5

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@dataclass
class Phase:
    """The operations of one kind, untraced or traced, in one run."""

    request_ms: list = field(default_factory=list)
    units: int = 0  # work units: plan steps executed or tasks forged
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # the first few, for a reader
    first_pass: list = field(default_factory=list)  # operate's notes, see drive

    def record(self, problems: list[str]) -> None:
        """Count one operation, failed when it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 10 - len(self.problems))])


def drive(items, operate, seconds: float, recorder=None, replacements=()):
    """One closed-loop client: run ``operate`` on ``items`` round-robin for
    ``seconds`` and at least one full pass; returns the untraced and the
    traced phase (None without a recorder).

    ``operate(item, traced)`` returns ``(wall_ms, units, problems, note)``;
    an exception counts as a failed operation. The notes of the operations
    in the passes that every run covers go to the phase's ``first_pass``.
    With a recorder, operations alternate between untraced and traced so
    that both see the same machine, each item is traced once in every two
    passes, which the run then covers at least, and ``replacements`` are
    installed for the traced operations only.
    """
    n = len(items)
    passes = 1 if recorder is None else 2
    untraced, traced = Phase(), (None if recorder is None else Phase())
    deadline = time.perf_counter() + seconds
    i = 0
    while i < passes * n or time.perf_counter() < deadline:
        item = items[i % n]
        is_traced = recorder is not None and (i % n + i // n) % 2 == 1
        phase, saved = (traced if is_traced else untraced), []
        if is_traced:
            recorder.request_id = i
            saved = tracing.install(replacements)
        try:
            wall_ms, units, problems, note = operate(item, is_traced)
        except Exception as exc:  # a raising operation is a failed one
            problems, note = [f"{item.key}: {type(exc).__name__}: {exc}"], None
        else:
            phase.request_ms.append(wall_ms)
            phase.units += units
        finally:
            tracing.uninstall(saved)
        if i < passes * n:
            phase.first_pass.append(note)
        phase.record(problems)
        i += 1
    return untraced, traced


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def sliced_percentile(values, q: float, slices: int) -> float:
    """Median of the ``q`` percentiles of ``slices`` consecutive equal runs
    of ``values`` (a remainder shorter than a slice is left out)."""
    size = len(values) // slices
    return statistics.median(
        percentile(values[k * size:(k + 1) * size], q) for k in range(slices)
    )


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_info() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_at_start": os.getloadavg(),
    }


def pin_to_one_cpu() -> int:
    """Run this process, its threads and its set-up probes on one CPU.

    On the 2-vCPU virtual machine the benchmark was tuned on, a thread woken
    on the other, idle vCPU sometimes waited milliseconds: serve_overhead's
    p99 then read anywhere from 1 to 7 ms from one run to the next. One
    client thread under the interpreter lock gains nothing from a second CPU.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def measure_setup(probes: int) -> list[tuple[float, dict]]:
    """(seconds from spawn to first request ready, probe timings) for each
    of ``probes`` fresh interpreters, after one discarded warm-up probe."""
    results = []
    for number in range(probes + 1):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(ROOT)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-800:]}")
        if number:
            results.append((elapsed, json.loads(line)))
    return results


def end_to_end(workload: str, phase, setup_s: float, rss_mib: float) -> tuple[dict, dict]:
    """End-to-end metrics of one phase, and their sample counts."""
    ms = phase.request_ms
    busy_s = sum(ms) / 1000.0
    q, slices = TAIL[workload]
    slices = min(slices, len(ms)) or 1
    size = len(ms) // slices
    metrics = {
        "setup_s": setup_s,
        "requests_per_s": len(ms) / busy_s if ms else 0.0,
        "tasks_per_s": phase.units / busy_s if ms else 0.0,
        "request_ms.p50": statistics.median(ms) if ms else 0.0,
        "request_ms.tail": sliced_percentile(ms, q, slices) if ms else 0.0,
        "peak_rss_mib": rss_mib,
    }
    samples = {
        "requests": len(ms),
        "tail_percentile": f"p{round(q * 100)}",
        "tail_slices": slices,
        "samples_beyond_tail_per_slice": size - math.ceil(q * size),
    }
    return metrics, samples


def overhead(traced: dict, untraced: dict) -> dict:
    """Relative cost of tracing on each end-to-end metric; positive is worse."""
    out = {}
    for name in END_TO_END:
        # The set-up probes run no wrappers in either mode, and traced and
        # untraced operations share one process and so one peak memory.
        if name in ("setup_s", "peak_rss_mib"):
            continue
        before, after = untraced[name], traced[name]
        if END_TO_END[name]["better"] == "higher":
            before, after = after, before
        out[f"trace_overhead.{name}"] = after / before - 1.0 if before else 0.0
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "reaper" / "__init__.py").is_file():
        print(f"error: no toolkit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    machine = machine_info()
    machine["pinned_cpu"] = pin_to_one_cpu()

    import numpy

    import forging
    import serving
    from reaper.forge import load_generic_pool

    machine["numpy"] = numpy.__version__
    probes = measure_setup(SETUP_PROBES)
    setup_s = statistics.median(elapsed for elapsed, _ in probes)

    if args.workload.startswith("serve"):
        module = serving
        ws = serving.generate(args.workload, args.seed)
    else:
        module = forging
        ws = forging.generate(
            args.workload, args.seed, OUT / args.workload, len(load_generic_pool())
        )

    detail = {"workload": args.workload, "seed": args.seed, "machine": machine,
              "setup_probes": len(probes)}
    recorder = tracing.Recorder() if args.trace else None
    items, operate, replacements = module.operations(ws, recorder)
    untraced, traced = drive(items, operate, args.seconds, recorder, replacements)
    module.final_checks(ws, untraced, traced)
    if args.trace:
        untraced_metrics, detail["untraced_samples"] = end_to_end(
            args.workload, untraced, setup_s, peak_rss_mib()
        )
        traced_metrics, detail["traced_samples"] = end_to_end(
            args.workload, traced, setup_s, peak_rss_mib()
        )
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics["cli.import_ms"] = statistics.median(p["import_ms"] for _, p in probes)
        metrics["registry.load_ms"] = statistics.median(p["registry_ms"] for _, p in probes)
        metrics["prompt.example_pool_load_ms"] = statistics.median(
            p["example_pool_ms"] for _, p in probes
        )
        metrics.update(module.layer_metrics(ws, traced, recorder))
        metrics["trace.spans"] = len(recorder.spans)
        metrics.update(overhead(traced_metrics, untraced_metrics))
        if set(metrics) != set(PER_LAYER):
            raise RuntimeError(f"per-layer metrics differ: {set(metrics) ^ set(PER_LAYER)}")
        spec = PER_LAYER
        spans_path = OUT / f"{args.workload}-spans.jsonl"
        tracing.write_spans(recorder.spans, spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        detail["layers"] = tracing.layer_table(recorder.spans)
    else:
        metrics, detail["samples"] = end_to_end(
            args.workload, untraced, setup_s, peak_rss_mib()
        )
        spec = END_TO_END

    phases = [phase for phase in (untraced, traced) if phase is not None]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    detail["failed_fraction"] = failed / attempted
    detail["problems"] = [problem for p in phases for problem in p.problems][:10]
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": spec[name]["unit"]}
                    for name in spec
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
