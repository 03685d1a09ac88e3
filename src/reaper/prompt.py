"""Planner prompt assembly.

A prompt is a pure function of a :class:`PromptSpec`: role text, system
instruction, the tool block (rendered from a registry, in registry order),
in-context examples, and the customer input. Identical specs always render
to identical bytes; golden files under ``tests/golden`` pin the layout.
:func:`build_prompt` renders the whole prompt on every call and keeps
nothing; for repeated turns, :class:`~reaper.gateway.Planner` renders all
but the input once.

``adversarial_omit`` builds the instruction-following probe: it removes one
tool from the spec entirely, including every in-context example that uses it,
so the rendered prompt contains no surface form of that tool.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, cached_property
from importlib import resources
from pathlib import Path

from .boundary import plan_field, read_document, typed_field
from .errors import SchemaError
from .plan import Plan, check_labeled_plan, render_plan, tool_sequence
from .registry import ToolRegistry

DEFAULT_ROLE = (
    "You are a retrieval planning assistant for a retail shopping service. "
    "Your job is to decide which information sources must be consulted, and "
    "in what order, to answer the customer's question."
)

DEFAULT_SYSTEM_INSTRUCTION = (
    "Write a numbered retrieval plan using only the tools listed below. "
    "Every step calls exactly one tool on its own line, in the form "
    'Step N: tool(param="value"). A later step may consume an earlier '
    "step's result by writing $k for the whole result or $k.field for one "
    "of its fields, and page context fields are available as $context.field. "
    "Do not invent tools that are not listed and do not add any explanation."
)

# Number of in-context examples sampled into a prompt unless configured.
DEFAULT_EXAMPLE_COUNT = 4

# The header of a prompt's last section, the customer input.
INPUT_HEADER = "### Input:"


@dataclass(frozen=True)
class QueryInput:
    """The customer query plus optional page context (e.g. a product title)."""

    query: str
    context: str | None = None

    def __post_init__(self):
        if not self.query:
            raise ValueError("query must be non-empty")

    @classmethod
    def from_record(cls, record: dict, path: str, where: str) -> "QueryInput":
        """The ``query`` and optional ``context`` fields of a JSONL record or
        a pool document's entry."""
        query = typed_field(record, "query", str, path, where)
        if not query:
            raise SchemaError(path, f"{where}.query", "must be non-empty")
        context = typed_field(record, "context", str, path, where, optional=True)
        return cls(query, context)


@dataclass(frozen=True)
class InContextExample:
    """One labeled planning example, a forge task or a prompt demonstration.
    Its renderings are kept with it: a forge shows a task's input and plan in
    each of its records, and each renamed demonstration in many prompts."""

    input: QueryInput
    target_plan: Plan

    @classmethod
    def from_record(cls, record: dict, path: str, where: str) -> "InContextExample":
        """The ``query``, optional ``context`` and ``plan`` of a JSONL record
        or a pool document's entry."""
        query_input = QueryInput.from_record(record, path, where)
        return cls(query_input, plan_field(record, "plan", path, where))

    @cached_property
    def _input_block(self) -> str:
        return "\n".join(input_lines(self.input))

    @cached_property
    def _plan_text(self) -> str:
        return render_plan(self.target_plan)

    @cached_property
    def _prompt_text(self) -> str:
        """Built without the two above, which a demonstration never reads."""
        return "\n".join(
            [*input_lines(self.input), "Plan:", render_plan(self.target_plan)]
        )


@dataclass(frozen=True)
class PromptSpec:
    """What a prompt renders. Each demonstration in ``examples`` is held to
    :func:`~reaper.plan.check_labeled_plan` against ``tools``."""

    role_text: str
    system_instruction: str
    tools: ToolRegistry
    examples: tuple[InContextExample, ...]
    input: QueryInput

    def __post_init__(self):
        object.__setattr__(self, "examples", tuple(self.examples))
        for index, example in enumerate(self.examples):
            check_labeled_plan(index, example.target_plan, self.tools)


def input_lines(query_input: QueryInput) -> list[str]:
    lines = [f"Query: {query_input.query}"]
    if query_input.context is not None:
        lines.append(f"Context: {query_input.context}")
    return lines


def _render_prefix(role: str, instruction: str, tools: ToolRegistry, examples) -> str:
    """Everything before the input lines, ending in :data:`INPUT_HEADER`
    and a newline."""
    parts = [
        "### Role:\n", role, "\n\n### System Instruction:\n", instruction,
        "\n\nCandidate tools:\n\n", tools._prompt_block, "\n### Examples:\n\n",
    ]
    for number, example in enumerate(examples, start=1):
        parts.append(f"Example {number}:\n{example._prompt_text}\n\n")
    parts += (INPUT_HEADER, "\n")
    return "".join(parts)


def build_prompt(spec: PromptSpec) -> str:
    """Render the prompt text, whole on every call; byte-deterministic in
    the spec."""
    return _render_prefix(
        spec.role_text, spec.system_instruction, spec.tools, spec.examples
    ) + "\n".join(input_lines(spec.input))


def adversarial_omit(spec: PromptSpec, tool: str) -> PromptSpec:
    """Remove ``tool`` (by any of its names) from the prompt: out of the tool
    block, and dropping every example whose plan uses it."""
    canonical = spec.tools.canonical_of(tool)
    kept_examples = tuple(
        example
        for example in spec.examples
        if canonical not in tool_sequence(example.target_plan, spec.tools)
    )
    return replace(spec, tools=spec.tools.without(canonical), examples=kept_examples)


def load_example_pool(path: str | Path | None = None) -> list[InContextExample]:
    """Load the demonstration pool: the shipped ``data/example_pool.json``
    when ``path`` is None, else the JSON or YAML file at ``path``, read as
    :func:`~reaper.boundary.read_document` reads it.

    The shipped pool is read and checked once per process; each call
    returns a new list of the same immutable examples. A named file is read
    on every call. The shipped demonstrations write canonical tool names;
    TEVO, the forge's prompt evolution, renames them to the variants it
    samples.

    Schema: ``examples: [{query, context?, plan}, ...]``, which the shipped
    file follows in JSON; a malformed document raises :class:`SchemaError`
    naming the path and the field."""
    if path is None:
        return list(_shipped_example_pool())
    return _read_example_pool(read_document(Path(path), str(path)), str(path))


@cache
def _shipped_example_pool() -> tuple[InContextExample, ...]:
    source = resources.files("reaper.data").joinpath("example_pool.json")
    path = "reaper/data/example_pool.json"
    return tuple(_read_example_pool(read_document(source, path), path))


def _read_example_pool(data: object, source: str) -> list[InContextExample]:
    """The demonstrations of a pool document, ``data`` as read from
    ``source``."""
    if not isinstance(data, dict) or not isinstance(data.get("examples"), list):
        raise SchemaError(
            source, "examples", "document must be a mapping with an 'examples' list"
        )
    pool = []
    for i, entry in enumerate(data["examples"]):
        where = f"examples[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(source, where, "expected a mapping")
        pool.append(InContextExample.from_record(entry, source, where))
    return pool
