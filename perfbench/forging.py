"""The forge workloads: a trainer running ``reaper forge`` as a batch job,
in-process through ``reaper.cli.main``.

``forge_pool`` forges one task file of a few hundred tasks per invocation;
the CLI uses the task pool as its own DQS reference, so the n x n
similarity matrix dominates. ``forge_batches`` forges many small task files
one invocation each, so per-invocation loads and record generation dominate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reaper.cli as cli
import reaper.embedding as embedding
import reaper.forge.dqs as dqs
import reaper.forge.pipeline as pipeline

import plans
import tracing

POOL_TASKS = 240
BATCH_SIZES = (24, 32, 40)  # cycled over the batch files
BATCH_FILES = 18
TASKS_PER_QUERY = 3
GENERIC_FRACTION = 0.5


@dataclass(frozen=True)
class Batch:
    key: str  # the task file's name
    tasks_path: Path
    out_path: Path
    queries: tuple
    argv: tuple

    @property
    def n_tasks(self) -> int:
        return len(self.queries)


@dataclass
class Workset:
    batches: list
    generic_expected: int
    digests: dict = field(default_factory=dict)  # out path -> first output digest


def _tasks(rng: random.Random, count: int, first_id: int) -> list[dict]:
    lengths = [1 + i % 6 for i in range(count)]
    rng.shuffle(lengths)
    tasks = []
    for offset, length in enumerate(lengths):
        plan = plans.random_plan(rng, length)
        context = plans.phrase(rng, 3).title() if rng.random() < 0.5 else None
        query = f"{plans.phrase(rng, rng.randint(4, 9))} ref {first_id + offset}"
        tasks.append({"query": query, "context": context, "plan": plans.render_text(plan)})
    return tasks


def generate(workload: str, seed: int, workdir: Path, generic_pool_size: int) -> Workset:
    """Write the seeded task files under ``workdir``."""
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "forge_pool":
        sizes = [POOL_TASKS]
    else:
        sizes = [BATCH_SIZES[i % len(BATCH_SIZES)] for i in range(BATCH_FILES)]
    batches, first_id = [], 0
    for number, size in enumerate(sizes):
        tasks_path = workdir / f"tasks-{number:03d}.jsonl"
        out_path = workdir / f"out-{number:03d}.jsonl"
        tasks = _tasks(rng, size, first_id)
        tasks_path.write_text(
            "".join(json.dumps(task) + "\n" for task in tasks), encoding="utf-8"
        )
        first_id += size
        argv = (
            "forge", "--tasks", str(tasks_path), "--out", str(out_path),
            "--tasks-per-query", str(TASKS_PER_QUERY),
            "--generic-fraction", str(GENERIC_FRACTION),
            "--seed", str(rng.randrange(1, 2**31)),
        )
        queries = tuple(task["query"] for task in tasks)
        batches.append(Batch(tasks_path.name, tasks_path, out_path, queries, argv))
    generic = math.floor(GENERIC_FRACTION * generic_pool_size)
    return Workset(batches, generic)


def check_output(data: bytes, manifest_text: str, n_tasks: int, generic_expected: int,
                 reference_digest: str | None) -> list[str]:
    """Problems with one forge output; empty when the record-count law holds
    and the bytes equal the first output of the same input."""
    problems = []
    try:
        manifest = json.loads(manifest_text)
        records = [json.loads(line) for line in data.decode("utf-8").splitlines()]
    except ValueError as exc:
        return [f"unreadable output: {exc}"]
    reaper_expected = n_tasks * TASKS_PER_QUERY
    if manifest.get("reaper_count") != reaper_expected:
        problems.append(f"manifest reaper_count {manifest.get('reaper_count')}, "
                        f"expected {reaper_expected}")
    if manifest.get("generic_count") != generic_expected:
        problems.append(f"manifest generic_count {manifest.get('generic_count')}, "
                        f"expected {generic_expected}")
    kinds = Counter(r.get("task_kind") for r in records)
    per_source = Counter(r.get("source_id") for r in records if r.get("task_kind") != "generic")
    if len(records) != reaper_expected + generic_expected:
        problems.append(f"{len(records)} records, expected {reaper_expected + generic_expected}")
    if kinds["primary"] != n_tasks or kinds["generic"] != generic_expected:
        problems.append(f"{kinds['primary']} primary and {kinds['generic']} generic records")
    wanted_sources = {f"q{i:05d}" for i in range(n_tasks)}
    if set(per_source) != wanted_sources or set(per_source.values()) != {TASKS_PER_QUERY}:
        problems.append(f"not exactly {TASKS_PER_QUERY} records for each of {n_tasks} tasks")
    if any(not r.get("prompt") or not r.get("target") for r in records):
        problems.append("a record has an empty prompt or target")
    digest = hashlib.sha256(data).hexdigest()
    if reference_digest is not None and digest != reference_digest:
        problems.append("output bytes differ from the first run of the same input")
    return problems


def forge_once(batch: Batch) -> tuple[int, str, float]:
    """One in-process ``reaper forge``; returns (exit code, stdout, wall ms)."""
    captured = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        code = cli.main(list(batch.argv))
    return code, captured.getvalue(), (time.perf_counter() - started) * 1000.0


def _traced_functions(recorder):
    similarity = dqs.similarity_matrix

    def counted_similarity(provider, q_initial, q_large):
        recorder.count("embedding.pairs", len(q_initial) * len(q_large))
        return similarity(provider, q_initial, q_large)

    embedder = cli.HashingEmbedder
    return [
        (cli, "HashingEmbedder",
         lambda *a, **k: tracing.EmbedderProxy(embedder(*a, **k), recorder)),
        (dqs, "similarity_matrix", recorder.wrap("embedding.similarity", counted_similarity)),
    ] + tracing.wrapped(recorder, [
        (cli, "load_tasks", "cli.load_tasks"),
        (cli, "default_registry", "registry.load"),
        (pipeline, "dqs_sample_indices", "forge.dqs"),
        (pipeline, "load_example_pool", "prompt.example_pool_load"),
        (pipeline, "generate_records", "forge.records"),
        (pipeline, "tevo_evolve", "forge.tevo"),
        (pipeline, "ttg_transform", "forge.ttg"),
        (pipeline, "build_prompt", "prompt.build"),
        (pipeline, "load_generic_pool", "forge.generic_pool_load"),
        (pipeline, "mix_dataset", "forge.mix"),
        (pipeline, "write_records", "forge.write"),
    ])


def operations(ws: Workset, recorder=None):
    """The batches, the operation that forges one, and the wrappers of a
    traced invocation. An operation's note is ``(output bytes, plan-task
    records)`` when its output passed the checks, else None."""
    replacements = [] if recorder is None else _traced_functions(recorder)

    def operate(batch: Batch, traced: bool):
        token = recorder.begin("cli.forge") if traced else None
        try:
            code, stdout, wall_ms = forge_once(batch)
        finally:
            if token is not None:
                recorder.end(token)
        if code:
            return wall_ms, batch.n_tasks, [f"{batch.key}: exit code {code}"], None
        data = batch.out_path.read_bytes()
        reference = ws.digests.setdefault(batch.out_path, hashlib.sha256(data).hexdigest())
        problems = check_output(data, stdout, batch.n_tasks, ws.generic_expected, reference)
        note = None if problems else (len(data), json.loads(stdout)["reaper_count"])
        return wall_ms, batch.n_tasks, [f"{batch.key}: {p}" for p in problems], note

    return ws.batches, operate, replacements


def reference_cosine(a, b, norm_a: float, norm_b: float) -> float:
    """The cosine contract, written out: exactly 1.0 for equal vectors, else
    the dot product over the product of the norms, clamped to [-1, 1]."""
    if np.array_equal(a, b):
        return 1.0
    return min(1.0, max(-1.0, float(np.dot(a, b)) / (norm_a * norm_b)))


def check_similarity(batch: Batch) -> list[str]:
    """Problems with ``similarity_matrix`` of the task file's queries against
    themselves, which the forge computes for its DQS stage; empty when every
    entry equals the double loop over the same embedder bit for bit."""
    provider = embedding.HashingEmbedder()
    values = embedding.similarity_matrix(provider, batch.queries, batch.queries).values
    n = batch.n_tasks
    if values.shape != (n, n):
        return [f"{batch.key}: similarity matrix of shape {values.shape}, expected {(n, n)}"]
    vectors = [provider.embed(query) for query in batch.queries]
    norms = [float(np.linalg.norm(v)) for v in vectors]
    wrong = sum(
        values[i, j] != reference_cosine(vectors[i], vectors[j], norms[i], norms[j])
        for i in range(n)
        for j in range(n)
    )
    if wrong:
        return [f"{batch.key}: {wrong} of {n * n} similarities differ from the double loop"]
    return []


def final_checks(ws: Workset, untraced, traced) -> None:
    """The similarity check of each task file counts as one more operation
    of the untraced phase: the forge's output does not show the similarity
    values, because with the task pool as its own reference DQS drops
    nothing."""
    for batch in ws.batches:
        untraced.record(check_similarity(batch))


def layer_metrics(ws: Workset, phase, recorder) -> dict:
    """Per-layer metrics of a traced forge phase: times are medians per
    invocation, counts are totals over one pass of the seeded input set."""
    spans = recorder.spans
    own = tracing.self_times_ns(spans)
    n = len(ws.batches)
    per_invocation: dict[int, Counter] = {}
    first_pass = Counter()
    similarity_ns = invocation_ns = 0
    for span_id, _, request_id, name, start, end, _ in spans:
        per_invocation.setdefault(request_id, Counter())[name] += own[span_id]
        if request_id is not None and request_id < 2 * n:
            first_pass[name] += 1
        if name == "embedding.similarity":
            similarity_ns += end - start
        elif name == "cli.forge":
            invocation_ns += end - start

    def per_call_ms(name):
        return tracing.median([c[name] / 1e6 for c in per_invocation.values() if name in c])

    first_counts, all_counts = Counter(), Counter()
    for (name, request_id), count in recorder.counts.items():
        all_counts[name] += count
        if request_id < 2 * n:
            first_counts[name] += count
    all_pairs = all_counts["embedding.pairs"]
    checked = [note for note in phase.first_pass if note is not None]
    return {
        "registry.load_ms": per_call_ms("registry.load"),
        "prompt.example_pool_load_ms": per_call_ms("prompt.example_pool_load"),
        "prompt.build_us": tracing.median(
            [own[s[0]] / 1e3 for s in spans if s[3] == "prompt.build"]
        ),
        "cli.load_tasks_ms": per_call_ms("cli.load_tasks"),
        "embedding.similarity_ms": per_call_ms("embedding.similarity"),
        "embedding.pairs": first_counts["embedding.pairs"],
        "embedding.embed_calls": first_counts["embedding.embed_calls"],
        "embedding.ns_per_pair": similarity_ns / all_pairs if all_pairs else 0.0,
        "embedding.similarity_share": similarity_ns / invocation_ns if invocation_ns else 0.0,
        "forge.dqs_ms": per_call_ms("forge.dqs"),
        "forge.tevo_ms": per_call_ms("forge.tevo"),
        "forge.tevo_calls": first_pass["forge.tevo"],
        "forge.ttg_ms": per_call_ms("forge.ttg"),
        "forge.ttg_calls": first_pass["forge.ttg"],
        "forge.records_ms": per_call_ms("forge.records"),
        "forge.records": sum(records for _, records in checked),
        "forge.generic_pool_load_ms": per_call_ms("forge.generic_pool_load"),
        "forge.mix_ms": per_call_ms("forge.mix"),
        "forge.write_ms": per_call_ms("forge.write"),
        "forge.output_bytes": sum(size for size, _ in checked),
    }
