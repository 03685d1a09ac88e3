"""Prompt evolution: semantics-preserving perturbation of the planner prompt.

For a given labeled task the evolved prompt keeps the tools the gold plan
needs, adds a random subset of distractor tools, presents every tool under a
sampled name variant and description paraphrase, and samples the in-context
demonstrations. The gold plan is unchanged up to renaming tools to the
sampled variants, so its canonical tool sequence is stable by construction.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import replace
from functools import cache

from ..plan import parse_plan, rename_tools, render_plan, tool_sequence
from ..prompt import (
    DEFAULT_ROLE,
    DEFAULT_SYSTEM_INSTRUCTION,
    InContextExample,
    PromptSpec,
    load_example_pool,
)
from ..registry import ToolRegistry, ToolSpec, subset_with
from .records import ForgeConfig, PrimaryTask


@cache
def _presented(spec: ToolSpec, shown: str, description: str) -> ToolSpec:
    """``spec`` shown under the variant name ``shown`` and the paraphrase
    ``description``, its example usage renamed to match. Pure, so it is
    memoised: a registry has few distinct (tool, name, paraphrase) keys, and
    each costs a parse and a render of the example usage, and a second parse
    in ``ToolSpec.__post_init__``."""
    usage = render_plan(
        rename_tools(parse_plan(spec.example_usage), {spec.canonical_name: shown})
    )
    return replace(
        spec, canonical_name=shown, description=description, example_usage=usage
    )


def _present(
    registry: ToolRegistry,
    names: dict[str, str],
    descriptions: dict[str, str],
) -> ToolRegistry:
    """Rebuild a registry with each tool shown under a chosen variant name and
    paraphrase; variant pools are kept so canonicalization still works."""
    entries = []
    for canonical in registry.canonical_names:
        spec, pool = registry.entry(canonical)
        entries.append(
            (_presented(spec, names[canonical], descriptions[canonical]), pool)
        )
    return ToolRegistry(entries)


class _PreparedPool(Sequence):
    """A demonstration pool prepared against one registry, so that the work
    that is the same for every task is done once: a demonstration's
    canonical tool set is computed when a task first needs it, and each
    demonstration is renamed once per distinct choice of variant names for
    the tools its plan names. It reads as the pool itself.

    Memos are keyed by position and by tuples of names, never by value.
    :func:`~reaper.forge.pipeline.forge_run` makes one per run and drops it
    with the run; :func:`tevo_evolve` makes a throwaway one when it is given
    a plain pool or one prepared against another registry."""

    def __init__(self, pool: Sequence[InContextExample], registry: ToolRegistry):
        self._pool = tuple(pool)
        self.registry = registry
        self.queries = [example.input.query for example in self._pool]
        self._tools: list[frozenset[str] | None] = [None] * len(self._pool)
        # the distinct tool names each plan writes, in first-use order:
        # ``rename_tools`` looks up nothing else
        self._written = [
            tuple(dict.fromkeys(step.tool_name for step in ex.target_plan.steps))
            for ex in self._pool
        ]
        self._renamed: dict[tuple[int, ...], InContextExample] = {}

    def __len__(self) -> int:
        return len(self._pool)

    def __getitem__(self, index):
        return self._pool[index]

    def tools(self, k: int) -> frozenset[str]:
        """The canonical tool set of demonstration ``k``, computed when a
        task first needs it; a tool the registry does not know raises then."""
        tools = self._tools[k]
        if tools is None:
            tools = self._tools[k] = frozenset(
                tool_sequence(self._pool[k].target_plan, self.registry)
            )
        return tools

    def renamed(self, k: int, names: dict[str, str]) -> InContextExample:
        """Demonstration ``k`` with its tools renamed through ``names``."""
        key = (k, *[names.get(name, name) for name in self._written[k]])
        example = self._renamed.get(key)
        if example is None:
            source = self._pool[k]
            example = self._renamed[key] = InContextExample(
                source.input, rename_tools(source.target_plan, names)
            )
        return example


def tevo_evolve(
    task: PrimaryTask,
    registry: ToolRegistry,
    cfg: ForgeConfig,
    rng_seed: int,
    example_pool: Sequence[InContextExample] | None = None,
) -> PromptSpec:
    """Produce an evolved prompt spec for ``task``; deterministic in
    ``rng_seed``. The distractor count is capped at the tools available."""
    rng = random.Random(rng_seed)
    needed = set(tool_sequence(task.target, registry))
    extra = min(cfg.extra_tool_count, len(registry) - len(needed))
    subset = subset_with(registry, needed, extra, seed=rng.randrange(2**31))

    names: dict[str, str] = {}
    descriptions: dict[str, str] = {}
    for canonical in subset.canonical_names:
        _, pool = subset.entry(canonical)
        names[canonical] = rng.choice(pool.name_variants)
        descriptions[canonical] = rng.choice(pool.description_paraphrases)
    presented = _present(subset, names, descriptions)

    if example_pool is None:
        example_pool = load_example_pool()
    if isinstance(example_pool, _PreparedPool) and example_pool.registry is registry:
        demos = example_pool
    else:
        demos = _PreparedPool(example_pool, registry)
    allowed = set(subset.canonical_names)
    query = task.input.query
    candidates = [
        k
        for k, shown in enumerate(demos.queries)
        if shown != query and demos.tools(k) <= allowed
    ]
    chosen = rng.sample(candidates, min(cfg.example_count, len(candidates)))
    return PromptSpec(
        role_text=DEFAULT_ROLE,
        system_instruction=DEFAULT_SYSTEM_INSTRUCTION,
        tools=presented,
        examples=tuple(demos.renamed(k, names) for k in chosen),
        input=task.input,
    )


def evolve_target(
    task: PrimaryTask, spec: PromptSpec, registry: ToolRegistry
):
    """The gold plan rewritten with the tool names an evolved prompt uses."""
    originals = set(tool_sequence(task.target, registry))
    return rename_tools(
        task.target, {name: spec.tools.canonical_of(name) for name in originals}
    )
