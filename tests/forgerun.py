"""A forge run that differs from the golden one in its registry and its
demonstration pool; importable by a fresh interpreter without the test
framework."""

from pathlib import Path

from reaper import extended_registry, load_example_pool
from reaper.cli import load_tasks
from reaper.embedding import HashingEmbedder
from reaper.forge import ForgeConfig, forge_run

GOLDEN_TASKS = Path(__file__).parent / "data" / "forge_tasks.jsonl"


def forge_with_another_pool_and_registry(out: str) -> None:
    """The golden tasks and seed, forged against the extended registry and
    the demonstration pool in reverse order."""
    registry = extended_registry()
    forge_run(
        list(load_tasks(str(GOLDEN_TASKS)).values()),
        registry,
        ForgeConfig(tasks_per_query=8, seed=7, generic_fraction=0.5),
        HashingEmbedder(),
        out,
        example_pool=load_example_pool()[::-1],
    )
