"""Record and configuration types for the training-data forge."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum
from json.encoder import encode_basestring, encode_basestring_ascii

from ..prompt import DEFAULT_EXAMPLE_COUNT


def _quote(text: str) -> str:
    """``text`` as a JSON string, as ``ensure_ascii=False`` writes it. The
    ASCII escaper writes the same bytes for ASCII text without DEL, the one
    ASCII character only it escapes, and is faster on a long prompt."""
    if text.isascii() and "\x7f" not in text:
        return encode_basestring_ascii(text)
    return encode_basestring(text)


class TaskKind(str, Enum):
    PRIMARY = "primary"
    T1 = "T1"  # write the query a plan answers
    T2 = "T2"  # complete a partial plan
    T3 = "T3"  # name the tools a query needs
    T4 = "T4"  # reconstruct a masked step
    T5 = "T5"  # reorder shuffled steps
    T6 = "T6"  # recover a masked argument value
    T7 = "T7"  # plan with a restricted tool set
    GENERIC = "generic"


SECONDARY_KINDS = (
    TaskKind.T1,
    TaskKind.T2,
    TaskKind.T3,
    TaskKind.T4,
    TaskKind.T5,
    TaskKind.T6,
    TaskKind.T7,
)


@dataclass(frozen=True)
class TrainingRecord:
    prompt: str
    target: str
    task_kind: TaskKind
    source_id: str

    def __post_init__(self):
        if not self.prompt or not self.target:
            raise ValueError("prompt and target must be non-empty")

    def to_json(self) -> str:
        """The record as one JSON object, byte for byte what
        ``json.dumps(..., ensure_ascii=False)`` writes for these four keys:
        the same C string escapers, without building an encoder per record.
        The two short fields skip ``_quote``'s check, which would cost more
        than it saves."""
        return (
            f'{{"prompt": {_quote(self.prompt)}, "target": {_quote(self.target)}, '
            f'"task_kind": {encode_basestring(self.task_kind.value)}, '
            f'"source_id": {encode_basestring(self.source_id)}}}'
        )


@dataclass(frozen=True)
class ForgeConfig:
    """Knobs for one forge run; ``seed``, its one seed, drives the DQS
    sample, each task's TEVO/TTG stream and the mix shuffle."""

    tasks_per_query: int = 1
    seed: int = 0
    extra_tool_count: int = 2
    generic_fraction: float = 1.0
    example_count: int = DEFAULT_EXAMPLE_COUNT
    extreme_pairs: int = 0

    def __post_init__(self):
        if not 1 <= self.tasks_per_query <= 1 + len(SECONDARY_KINDS):
            raise ValueError(
                f"tasks_per_query must be in [1, {1 + len(SECONDARY_KINDS)}]"
            )
        if not 0.0 <= self.generic_fraction <= 1.0:
            raise ValueError("generic_fraction must be in [0, 1]")
        for name in ("extra_tool_count", "example_count", "extreme_pairs"):
            if (count := getattr(self, name)) < 0:
                raise ValueError(f"{name} must be non-negative, got {count}")


@dataclass(frozen=True)
class MixManifest:
    reaper_count: int
    generic_count: int
    ratio: str
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)
