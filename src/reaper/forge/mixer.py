"""Mixing plan-task records with generic instruction-following records."""

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


def load_generic_pool(path: str | Path | None = None) -> list[dict]:
    """Load a generic instruction pool (JSONL of prompt/target pairs, with an
    optional stable ``id``); the shipped 200-record stand-in when ``path`` is
    None. Each field must be a non-empty string; an ``id`` that is absent or
    null takes the default ``gen-NNNN`` from the record's position.

    The shipped pool is read and checked once per process; each call
    returns new dicts, so a caller that edits a record changes no later
    call. A named file is read on every call."""
    if path is None:
        return [dict(record) for record in _shipped_generic_pool()]
    return _read_generic_pool(Path(path))


@cache
def _shipped_generic_pool() -> tuple[dict, ...]:
    return tuple(
        _read_generic_pool(resources.files("reaper.data").joinpath("generic_pool.jsonl"))
    )


def _read_generic_pool(source: Path | Traversable) -> list[dict]:
    pool = []
    for where, record in read_jsonl(source):
        for key, optional in (("prompt", False), ("target", False), ("id", True)):
            value = typed_field(record, key, str, str(source), where, optional)
            if value == "":
                raise SchemaError(str(source), f"{where}.{key}", "must be non-empty")
        pool.append(record)
    return pool


def _source_id(record: dict, index: int) -> str:
    ident = record.get("id")
    return f"gen-{index:04d}" if ident is None else str(ident)


def _ratio(reaper_count: int, generic_count: int) -> str:
    if reaper_count == 0:
        return f"0:{generic_count}"
    return f"1:{generic_count / reaper_count:.1f}"


def mix_dataset(
    reaper_records: Sequence[TrainingRecord],
    generic_pool: Sequence[dict],
    cfg: ForgeConfig,
) -> tuple[list[TrainingRecord], MixManifest]:
    """Concatenate plan-task records with a seeded sample of the generic pool
    and globally shuffle; deterministic in ``cfg.seed``."""
    take = math.floor(cfg.generic_fraction * len(generic_pool))
    rng = random.Random(cfg.seed)
    chosen = rng.sample(range(len(generic_pool)), take)
    generic_records = [
        TrainingRecord(
            prompt=generic_pool[i]["prompt"],
            target=generic_pool[i]["target"],
            task_kind=TaskKind.GENERIC,
            source_id=_source_id(generic_pool[i], i),
        )
        for i in chosen
    ]
    combined = list(reaper_records) + generic_records
    rng.shuffle(combined)
    manifest = MixManifest(
        reaper_count=len(reaper_records),
        generic_count=len(generic_records),
        ratio=_ratio(len(reaper_records), len(generic_records)),
        seed=cfg.seed,
    )
    return combined, manifest
