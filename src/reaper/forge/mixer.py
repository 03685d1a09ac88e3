"""Reading generic instruction records and mixing them with plan-task records."""

from __future__ import annotations

import math
import random
from functools import cache
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from ..boundary import read_jsonl, typed_field
from ..errors import SchemaError
from .records import ForgeConfig, MixManifest, TaskKind, TrainingRecord

if TYPE_CHECKING:
    from importlib.resources.abc import Traversable


def load_generic_pool(path: str | Path | None = None) -> list[TrainingRecord]:
    """Read a generic instruction pool (JSONL of prompt/target pairs, with an
    optional stable ``id``) into ``GENERIC`` records; the shipped 200-record
    stand-in when ``path`` is None. Each field must be a non-empty string; a
    record's ``source_id`` is its ``id``, or ``gen-NNNN`` from its position
    when the ``id`` is absent or null.

    The shipped pool is read and checked once per process; each call
    returns a new list of the same frozen records. A named file is read on
    every call."""
    if path is None:
        return list(_shipped_generic_pool())
    return _read_generic_pool(Path(path))


@cache
def _shipped_generic_pool() -> tuple[TrainingRecord, ...]:
    return tuple(
        _read_generic_pool(resources.files("reaper.data").joinpath("generic_pool.jsonl"))
    )


def _read_generic_pool(source: Path | Traversable) -> list[TrainingRecord]:
    pool = []
    for where, record in read_jsonl(source):
        for key, optional in (("prompt", False), ("target", False), ("id", True)):
            value = typed_field(record, key, str, str(source), where, optional)
            if value == "":
                raise SchemaError(str(source), f"{where}.{key}", "must be non-empty")
        source_id = record.get("id") or f"gen-{len(pool):04d}"  # absent or null
        pool.append(
            TrainingRecord(record["prompt"], record["target"], TaskKind.GENERIC, source_id)
        )
    return pool


def _ratio(reaper_count: int, generic_count: int) -> str:
    if reaper_count == 0:
        return f"0:{generic_count}"
    return f"1:{generic_count / reaper_count:.1f}"


def mix_dataset(
    reaper_records: Sequence[TrainingRecord],
    generic_records: Sequence[TrainingRecord],
    cfg: ForgeConfig,
) -> tuple[list[TrainingRecord], MixManifest]:
    """Concatenate plan-task records with a seeded sample of the generic
    records and globally shuffle; deterministic in ``cfg.seed``."""
    take = math.floor(cfg.generic_fraction * len(generic_records))
    rng = random.Random(cfg.seed)
    chosen = [generic_records[i] for i in rng.sample(range(len(generic_records)), take)]
    combined = list(reaper_records) + chosen
    rng.shuffle(combined)
    manifest = MixManifest(
        reaper_count=len(reaper_records),
        generic_count=len(chosen),
        ratio=_ratio(len(reaper_records), len(chosen)),
        seed=cfg.seed,
    )
    return combined, manifest
