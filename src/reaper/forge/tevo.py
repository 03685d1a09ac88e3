"""Prompt evolution: semantics-preserving perturbation of the planner prompt.

For a labeled task (an ``InContextExample``) the evolved prompt keeps the tools
the gold plan needs, adds a random subset of distractor tools, presents every
tool under a sampled name variant and description paraphrase, and samples the
in-context demonstrations. The gold plan is unchanged up to renaming tools to
the sampled variants, so its canonical tool sequence is stable by construction.

Everything a task reads that does not depend on the task is made once:
each presented spec is kept by the spec it presents
(:meth:`~reaper.registry.ToolSpec._presented`), and :class:`_PreparedPool`
holds, per run, the tool sets of the demonstrations that validate clean and
their renamings. A task then builds one registry, the presented one, through
the validating ``ToolRegistry(...)``; the subset it keeps is drawn by the
helper that ``subset_with`` draws with, without building the subset registry.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from ..plan import rename_tools, tool_sequence, validate_plan
from ..prompt import (
    DEFAULT_ROLE,
    DEFAULT_SYSTEM_INSTRUCTION,
    InContextExample,
    PromptSpec,
    load_example_pool,
)
from ..registry import ToolRegistry, ToolSpec, VariantPool, _draw_extras
from .records import ForgeConfig


class _PreparedPool(Sequence):
    """A demonstration pool prepared against one registry, so that the work
    that is the same for every task is done once per run. It holds each
    demonstration's written tool names, their canonical tools and its
    canonical tool set, and no presented spec (each is kept by the spec it
    presents); each demonstration is renamed once per distinct choice of
    variant names for the tools its plan names. It reads as the pool less
    each demonstration whose plan fails :func:`~reaper.plan.validate_plan`
    against the registry: a prompt shows only demonstrations whose tools it
    shows, so leaving out one with an unknown tool changes no prompt. Memos
    are keyed by position and by tuples of names, never by value.
    :func:`~reaper.forge.pipeline.forge_run` makes one per run and drops it
    with the run; :func:`tevo_evolve` makes a throwaway one when it is given
    a plain pool or one prepared against another registry."""

    def __init__(self, pool: Sequence[InContextExample], registry: ToolRegistry):
        self._pool = tuple(
            ex for ex in pool if not validate_plan(ex.target_plan, registry)
        )
        self.registry = registry
        self.queries = [example.input.query for example in self._pool]
        # the distinct tool names each plan writes, in first-use order:
        # ``rename_tools`` looks up nothing else
        self._written = [
            tuple(dict.fromkeys(step.tool_name for step in ex.target_plan.steps))
            for ex in self._pool
        ]
        # the canonical tool of each written name
        self._canonical = [
            tuple(registry.canonical_of(name) for name in written)
            for written in self._written
        ]
        self.tools = [frozenset(canonical) for canonical in self._canonical]
        self._renamed: dict[tuple[int, ...], InContextExample] = {}

    def __len__(self) -> int:
        return len(self._pool)

    def __getitem__(self, index):
        return self._pool[index]

    def renamed(self, k: int, names: dict[str, str]) -> InContextExample:
        """Demonstration ``k`` with each tool name its plan writes, canonical
        or a variant, renamed to the name ``names`` gives its canonical tool."""
        shown = [names[canonical] for canonical in self._canonical[k]]
        key = (k, *shown)
        example = self._renamed.get(key)
        if example is None:
            source = self._pool[k]
            example = self._renamed[key] = InContextExample(
                source.input,
                rename_tools(source.target_plan, dict(zip(self._written[k], shown))),
            )
        return example


def tevo_evolve(
    task: InContextExample,
    registry: ToolRegistry,
    cfg: ForgeConfig,
    rng_seed: int,
    example_pool: Sequence[InContextExample] | None = None,
) -> PromptSpec:
    """Produce an evolved prompt spec for the labeled example ``task``;
    deterministic in ``rng_seed``. The distractor count is capped at the
    tools available, and no demonstration shares ``task``'s query.

    The draws are those of :func:`~reaper.registry.subset_with`, then a
    name and a paraphrase per kept tool in registry order, then the
    demonstrations; the one registry the prompt shows is built from the
    prepared tables (see the module docstring)."""
    if example_pool is None:
        example_pool = load_example_pool()
    if isinstance(example_pool, _PreparedPool) and example_pool.registry is registry:
        demos = example_pool
    else:
        demos = _PreparedPool(example_pool, registry)
    rng = random.Random(rng_seed)
    needed = set(tool_sequence(task.target_plan, registry))
    order = registry.canonical_names
    extra = min(cfg.extra_tool_count, len(order) - len(needed))
    kept = _draw_extras(order, needed, extra, rng.randrange(2**31))

    names: dict[str, str] = {}
    entries: list[tuple[ToolSpec, VariantPool]] = []
    for canonical in order:
        if canonical not in kept:
            continue
        spec, pool = registry.entry(canonical)
        shown = names[canonical] = rng.choice(pool.name_variants)
        description = rng.choice(pool.description_paraphrases)
        entries.append((spec._presented(shown, description), pool))
    presented = ToolRegistry(entries)

    query = task.input.query
    candidates = [
        k
        for k, shown in enumerate(demos.queries)
        if shown != query and demos.tools[k] <= kept
    ]
    chosen = rng.sample(candidates, min(cfg.example_count, len(candidates)))
    return PromptSpec(
        role_text=DEFAULT_ROLE,
        system_instruction=DEFAULT_SYSTEM_INSTRUCTION,
        tools=presented,
        examples=tuple(demos.renamed(k, names) for k in chosen),
        input=task.input,
    )


def evolve_target(task: InContextExample, spec: PromptSpec):
    """The gold plan rewritten with the tool names an evolved prompt uses:
    each name it writes, canonical or a variant, becomes the name the prompt
    shows for that tool, which ``spec.tools`` knows by every variant."""
    return rename_tools(
        task.target_plan,
        {
            step.tool_name: spec.tools.canonical_of(step.tool_name)
            for step in task.target_plan.steps
        },
    )
