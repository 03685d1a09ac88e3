"""The end-to-end forge run: diverse sampling, record generation, mixing.

Record count law: every surviving query yields exactly ``tasks_per_query``
records (one evolved primary plus ``tasks_per_query - 1`` secondaries whose
kinds are sampled without replacement from the applicable ones, cycling when
fewer kinds apply than are needed). The output JSONL is a pure function of
the inputs and the configuration, whose one seed, ``ForgeConfig.seed``,
drives the DQS sample, each task's TEVO/TTG stream and the mix shuffle.

Work that repeats within a run is done once per run. :func:`forge_run`
prepares the demonstration pool against the registry, leaving out each
demonstration that fails :func:`~reaper.plan.validate_plan`, the rule that
it holds each task to: each demonstration's canonical tool set, and each
renaming for one choice of variant names, which keeps its rendered text.
Each task's evolved prompt is built from these tables, with one registry,
the presented one (see :func:`~reaper.forge.tevo.tevo_evolve`); each task,
an ``InContextExample``, keeps its rendered gold plan and input lines for
all of its secondary records. The CLI's embedder hashes each distinct token
once. All of these die with the run. A presented tool spec, with its
tool-block text, is kept by the spec it presents, so it lives exactly as
long as its registry, which later runs may reuse: at most the registry's
names times its paraphrases. What depends only on the installed package
belongs to no run and is built once per process: the shipped registries
(so their presented specs), the shipped demonstrations, the shipped generic
pool's frozen records, and the CLI's argument parser. A file the caller
names (a registry, an example pool or a generic pool) is read again on
every call, and its registry's presented specs die with it.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Sequence

from ..boundary import write_output
from ..embedding import EmbeddingProvider
from ..plan import check_labeled_plan, render_plan
from ..prompt import InContextExample, build_prompt, load_example_pool
from ..registry import ToolRegistry
from .dqs import dqs_sample_indices
from .mixer import load_generic_pool, mix_dataset
from .records import ForgeConfig, MixManifest, TaskKind, TrainingRecord
from .tevo import _PreparedPool, evolve_target, tevo_evolve
from .ttg import applicable_kinds, ttg_transform

_SEED_STRIDE = 1_000_003


def generate_records(
    task: InContextExample,
    index: int,
    registry: ToolRegistry,
    cfg: ForgeConfig,
    example_pool: Sequence[InContextExample] | None = None,
) -> list[TrainingRecord]:
    """All ``tasks_per_query`` records for the labeled example ``task``, the
    ``index``-th of its run's task list: its stream is seeded by ``cfg.seed``
    and ``index`` alone, and its records' source id is ``q{index:05d}``."""
    rng = random.Random(cfg.seed * _SEED_STRIDE + index)
    source_id = f"q{index:05d}"
    spec = tevo_evolve(
        task, registry, cfg, rng.randrange(2**31), example_pool=example_pool
    )
    records = [
        TrainingRecord(
            prompt=build_prompt(spec),
            target=render_plan(evolve_target(task, spec)),
            task_kind=TaskKind.PRIMARY,
            source_id=source_id,
        )
    ]
    kinds: list[TaskKind] = []
    applicable = applicable_kinds(task)
    needed = cfg.tasks_per_query - 1
    while len(kinds) < needed:
        kinds.extend(rng.sample(applicable, min(needed - len(kinds), len(applicable))))
    for kind in kinds:
        records.append(
            ttg_transform(
                task, kind, registry, rng.randrange(2**31), source_id=source_id
            )
        )
    return records


def write_records(records: Sequence[TrainingRecord], out: str | Path) -> None:
    """Write training JSONL to ``out`` through
    :func:`~reaper.boundary.write_output`: a new file beside it, the old one
    removed, then the rename. The old file survives any failure before that
    swap, and no partial file survives at all. The output is not fsynced,
    because it can be rebuilt from its seed. A record holding a lone
    surrogate, which UTF-8 cannot encode, raises ``ValueError`` naming its
    ``source_id`` and field."""
    write_output(out, (_jsonl_line(record) for record in records))


def _jsonl_line(record: TrainingRecord) -> bytes:
    line = record.to_json() + "\n"
    try:
        return line.encode("utf-8")
    except UnicodeEncodeError as exc:  # the line's first surrogate
        surrogate = line[exc.start]
        field = next(
            name for name in ("prompt", "target", "source_id")
            if surrogate in getattr(record, name)
        )
        raise ValueError(
            f"record {record.source_id!r}: {field}: lone surrogate {surrogate!r}"
        ) from None


def forge_run(
    tasks: Sequence[InContextExample],
    registry: ToolRegistry,
    cfg: ForgeConfig,
    provider: EmbeddingProvider,
    out: str | Path,
    q_initial: Sequence[str] | None = None,
    example_pool: Sequence[InContextExample] | None = None,
    generic_pool: Sequence[TrainingRecord] | None = None,
) -> MixManifest:
    """Run the full pipeline over the labeled examples ``tasks``, which may
    also serve as ``example_pool``, and write their records mixed with the
    ``generic_pool`` records (the shipped pool's when omitted) to ``out``.
    The first task whose plan fails :func:`~reaper.plan.check_labeled_plan`
    raises, before sampling and before any record is made.

    ``q_initial`` is the curated reference pool for diverse sampling; when
    omitted, the task pool itself is used, which makes the sampling stage an
    order-shuffling pass-through (and requires
    ``ForgeConfig.extreme_pairs == 0``). With no extremes to drop, DQS only
    checks the embeddings, in O(n), and scores nothing.
    """
    for index, task in enumerate(tasks):
        check_labeled_plan(index, task.target_plan, registry)
    queries = [task.input.query for task in tasks]
    reference = list(q_initial) if q_initial is not None else queries
    surviving = dqs_sample_indices(reference, queries, provider, cfg)
    if example_pool is None:
        example_pool = load_example_pool()
    demonstrations = _PreparedPool(example_pool, registry)
    if generic_pool is None:
        generic_pool = load_generic_pool()

    records: list[TrainingRecord] = []
    for index in surviving:
        records.extend(
            generate_records(tasks[index], index, registry, cfg, demonstrations)
        )

    mixed, manifest = mix_dataset(records, generic_pool, cfg)
    write_records(mixed, out)
    return manifest
