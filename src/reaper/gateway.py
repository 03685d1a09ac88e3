"""Backends that turn a prompt into plan text.

The scripted stub drives tests and offline demos: it matches known query
substrings against the prompt's input section, so evolved prompts still hit
their fixtures. The remote backend speaks a one-endpoint JSON protocol
(``POST /complete {"prompt", "max_tokens"} -> {"text"}``); the endpoint is
taken from the ``REAPER_BACKEND_URL`` environment variable unless given.

``generate_plan`` composes prompt building, completion, and parsing for
one call on one spec; a :class:`Planner` renders its prompt prefix once,
for repeated turns. Both turn CRLF and CR line endings into LF and strip
surrounding whitespace from the completion first, since ``parse_plan``
itself is strict. Backend failures (network, bad endpoint) raise
:class:`BackendError`; model output that fails to parse raises
:class:`PlanParseError` with the measured latency attached, so callers can
still account for the spent time.
"""

from __future__ import annotations

import os
import time
from typing import Mapping, Protocol, Sequence

from .boundary import post_json
from .errors import ReaperError
from .plan import (
    Plan, PlanParseError, Violation, check_labeled_plan, parse_plan, validate_plan,
)
from .prompt import (
    DEFAULT_ROLE, DEFAULT_SYSTEM_INSTRUCTION, INPUT_HEADER, InContextExample,
    PromptSpec, QueryInput, _render_prefix, build_prompt, input_lines,
)
from .registry import ToolRegistry

BACKEND_URL_ENV = "REAPER_BACKEND_URL"


class BackendError(ReaperError):
    """The completion backend failed; distinct from the model emitting an
    unparseable plan."""


class InvalidFixtureError(ReaperError):
    """A scripted stub was configured with an unparseable plan."""


class PlannerBackend(Protocol):
    def complete(self, prompt: str) -> tuple[str, float]: ...


class ScriptedStub:
    """Deterministic backend: the first table key contained in the prompt's
    input section selects the response; otherwise the default plan."""

    def __init__(
        self,
        table: Mapping[str, str],
        default: str,
        latency_ms: float = 0.0,
    ):
        for key, plan_text in {**dict(table), "<default>": default}.items():
            try:
                parse_plan(plan_text)
            except PlanParseError as exc:
                raise InvalidFixtureError(
                    f"stub entry {key!r} does not parse: {exc}"
                ) from exc
        # case-insensitive so fixtures keyed on query fragments keep matching
        # however the customer capitalized them; folded once, in table order
        self._table = [(key.casefold(), plan_text) for key, plan_text in table.items()]
        self._default = default
        self.latency_ms = latency_ms

    def complete(self, prompt: str) -> tuple[str, float]:
        section = prompt.rsplit(INPUT_HEADER, 1)[-1].casefold()
        for key, plan_text in self._table:
            if key in section:
                return plan_text, self.latency_ms
        return self._default, self.latency_ms


class RemoteBackend:
    def __init__(
        self,
        base_url: str | None = None,
        max_tokens: int = 512,
        timeout_s: float = 30.0,
    ):
        url = base_url if base_url is not None else os.environ.get(BACKEND_URL_ENV)
        if not url:
            raise BackendError(
                f"no backend URL given and {BACKEND_URL_ENV} is not set"
            )
        self.base_url = url.rstrip("/")
        self.max_tokens = max_tokens
        self.timeout_s = timeout_s

    def complete(self, prompt: str) -> tuple[str, float]:
        body, latency = post_json(
            f"{self.base_url}/complete",
            {"prompt": prompt, "max_tokens": self.max_tokens},
            self.timeout_s,
            BackendError,
        )
        text = body.get("text") if isinstance(body, dict) else None
        if not isinstance(text, str):
            raise BackendError("completion response 'text' must be a string")
        return text, latency


def generate_plan(
    backend: PlannerBackend, spec: PromptSpec
) -> tuple[Plan, float]:
    """Build the prompt, complete it, and parse the result. Returns the plan
    and the end-to-end latency in milliseconds."""
    started = time.perf_counter()
    return _complete(backend, build_prompt(spec), started)


class Planner:
    """One planner call per turn over a fixed registry and fixed
    demonstrations, prompted with :data:`~reaper.prompt.DEFAULT_ROLE` and
    :data:`~reaper.prompt.DEFAULT_SYSTEM_INSTRUCTION`. Construction raises
    :class:`~reaper.plan.LabeledPlanError` for a demonstration whose plan
    fails :func:`~reaper.plan.validate_plan` against the registry, as
    :class:`~reaper.prompt.PromptSpec` does, and renders the prompt prefix
    once; a turn renders only its input lines and keeps nothing."""

    def __init__(
        self, registry: ToolRegistry, examples: Sequence[InContextExample], backend
    ):
        for index, example in enumerate(examples):
            check_labeled_plan(index, example.target_plan, registry)
        self.registry = registry
        self.backend = backend
        self._prefix = _render_prefix(
            DEFAULT_ROLE, DEFAULT_SYSTEM_INSTRUCTION, registry, examples
        )

    def prompt(self, query_input: QueryInput) -> str:
        """The prompt text, byte for byte what :func:`build_prompt` renders
        for the same registry, demonstrations and input."""
        return self._prefix + "\n".join(input_lines(query_input))

    def plan(
        self, query: str, context: str | None = None
    ) -> tuple[Plan, list[Violation], float]:
        """Prompt, complete and parse one turn, then validate the plan
        against the registry. Returns the plan, its violations and the
        end-to-end latency in milliseconds; executes nothing."""
        started = time.perf_counter()
        plan, latency = _complete(
            self.backend, self.prompt(QueryInput(query, context)), started
        )
        return plan, validate_plan(plan, self.registry), latency


def _complete(backend: PlannerBackend, prompt: str, started: float):
    """Complete ``prompt`` and parse the normalised text; the latency is the
    backend's reported one or the wall time since ``started``, the larger."""
    text, backend_latency = backend.complete(prompt)
    overhead = (time.perf_counter() - started) * 1000.0
    latency = max(backend_latency, overhead)
    text = text.replace("\r\n", "\n").replace("\r", "\n").strip()
    try:
        plan = parse_plan(text)
    except PlanParseError as exc:
        exc.latency_ms = latency
        raise
    return plan, latency
