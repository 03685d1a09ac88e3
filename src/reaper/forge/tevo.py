"""Prompt evolution: semantics-preserving perturbation of the planner prompt.

For a given labeled task the evolved prompt keeps the tools the gold plan
needs, adds a random subset of distractor tools, presents every tool under a
sampled name variant and description paraphrase, and samples the in-context
demonstrations. The gold plan is unchanged up to renaming tools to the
sampled variants, so its canonical tool sequence is stable by construction.
"""

from __future__ import annotations

import random
from dataclasses import replace
from functools import cache
from typing import Sequence

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
    allowed = set(subset.canonical_names)
    candidates = [
        example
        for example in example_pool
        if example.input.query != task.input.query
        and set(tool_sequence(example.target_plan, registry)) <= allowed
    ]
    chosen = rng.sample(candidates, min(cfg.example_count, len(candidates)))
    examples = tuple(
        InContextExample(ex.input, rename_tools(ex.target_plan, names))
        for ex in chosen
    )
    return PromptSpec(
        role_text=DEFAULT_ROLE,
        system_instruction=DEFAULT_SYSTEM_INSTRUCTION,
        tools=presented,
        examples=examples,
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
