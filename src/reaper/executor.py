"""Dependency-aware plan execution against retriever adapters.

Steps run as soon as their referenced steps have finished; independent steps
are dispatched concurrently. Failures never abort the run: a failed step is
recorded and everything depending on it (directly or transitively) is marked
skipped, so the trace always has exactly one terminal entry per step.

Timing is bookkept on a simulated clock derived from the latencies the
retriever reports: a step starts at the latest finish time of its
dependencies and finishes ``latency_ms`` later. With deterministic retrievers
(see :func:`mock_retriever`) the whole trace is reproducible bit for bit;
the HTTP adapter reports measured wall-clock latencies instead.
"""

from __future__ import annotations

import json
import math
import numbers
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Protocol

from .boundary import post_json
from .errors import ReaperError
from .plan import ContextRef, Literal, Plan, PlanStep, StepRef
from .registry import NO_RETRIEVAL_TOOL, ToolRegistry


class RetrieverError(ReaperError):
    """A retriever call failed (transport error, bad response, ...)."""


class UnconfiguredToolError(RetrieverError):
    """A mock retriever was invoked for a tool it has no canned data for."""


class Retriever(Protocol):
    def invoke(
        self, tool: str, args: Mapping[str, str]
    ) -> tuple[Mapping[str, object], float]: ...


class StepStatus(str, Enum):
    OK = "ok"
    FAILED = "failed"
    SKIPPED = "skipped"


@dataclass(frozen=True)
class StepResult:
    index: int
    tool: str  # canonical name
    resolved_args: tuple[tuple[str, str], ...]
    output: Mapping[str, object] | None
    latency_ms: float
    status: StepStatus
    error: str | None = None
    started_ms: float | None = None
    finished_ms: float | None = None


@dataclass(frozen=True)
class ExecutionTrace:
    steps: tuple[StepResult, ...]
    total_ms: float
    critical_path_ms: float

    def step(self, index: int) -> StepResult:
        return self.steps[index - 1]


def _dependencies(step: PlanStep) -> tuple[int, ...]:
    """Indices of the steps ``step`` references, ascending, each once."""
    return tuple(sorted({v.step for _, v in step.args if isinstance(v, StepRef)}))


def dependency_graph(plan: Plan) -> list[tuple[int, int]]:
    """Edges (k, i) for every step i that references step k."""
    return sorted((k, step.index) for step in plan.steps for k in _dependencies(step))


class _ResolutionError(ReaperError):
    pass


def _lookup(output: Mapping[str, object], path: str, producer: int) -> object:
    current: object = output
    for part in path.split("."):
        if not isinstance(current, Mapping) or part not in current:
            raise _ResolutionError(
                f"step {producer} output has no field {path!r}"
            )
        current = current[part]
    return current


def _resolve_args(
    step: PlanStep,
    outputs: Mapping[int, Mapping[str, object]],
    context: Mapping[str, str] | None,
) -> tuple[tuple[str, str], ...]:
    resolved = []
    for name, value in step.args:
        if isinstance(value, Literal):
            text = value.text
        elif isinstance(value, StepRef):
            found = _lookup(outputs[value.step], value.field or "text", value.step)
            text = (
                found
                if isinstance(found, str)
                else json.dumps(found, ensure_ascii=False)
            )
        elif isinstance(value, ContextRef):
            if context is None or value.field not in context:
                raise _ResolutionError(
                    f"no context field {value.field!r} available"
                )
            text = context[value.field]
        else:  # pragma: no cover - ArgValue is a closed union
            raise TypeError(f"unsupported argument value: {value!r}")
        resolved.append((name, text))
    return tuple(resolved)


def execute_plan(
    plan: Plan,
    registry: ToolRegistry,
    retriever: Retriever | None = None,
    timeout_ms: float | None = None,
    context: Mapping[str, str] | None = None,
) -> ExecutionTrace:
    """Run a validated plan; returns a complete trace, never raises for
    per-step failures.

    Every tool name is resolved before any step runs, so an unknown tool
    raises :class:`~reaper.errors.UnknownToolError` with no retriever call.
    A step starts the moment its last dependency finishes. A retriever
    latency that is not a finite, non-negative number fails its step.
    ``timeout_ms`` is checked after the retriever returns: a slower call
    fails its step with ``latency_ms = timeout_ms``, but nothing stops
    waiting for it, so it is not a wall-clock deadline. ``total_ms`` equals
    ``critical_path_ms``, the makespan on the simulated clock, for now.
    """
    tools = [registry.canonical_of(step.tool_name) for step in plan.steps]

    def call(
        tool: str, args: tuple[tuple[str, str], ...]
    ) -> tuple[Mapping[str, object] | None, float, str | None]:
        """(output, latency_ms, error) of one retrieval."""
        if tool == NO_RETRIEVAL_TOOL:
            return {}, 0.0, None
        if retriever is None:
            return None, 0.0, "RetrieverError: no retriever configured"
        try:
            output, latency = retriever.invoke(tool, dict(args))
        except Exception as exc:
            return None, 0.0, f"{type(exc).__name__}: {exc}"
        if not (
            isinstance(latency, numbers.Real) and math.isfinite(latency) and latency >= 0
        ):
            return None, 0.0, f"RetrieverError: invalid latency {latency!r}"
        if timeout_ms is not None and latency > timeout_ms:
            error = f"Timeout: exceeded {timeout_ms} ms (retriever took {latency} ms)"
            return None, float(timeout_ms), error
        return output, float(latency), None

    def run(
        step: PlanStep, tool: str, dependencies: list[Future[StepResult]]
    ) -> StepResult:
        done = [dependency.result() for dependency in dependencies]
        blocked = [d.index for d in done if d.status is not StepStatus.OK]
        if blocked:
            reason = f"skipped: depends on step(s) {', '.join(map(str, blocked))}"
            return StepResult(
                step.index, tool, (), None, 0.0, StepStatus.SKIPPED, reason
            )
        args: tuple[tuple[str, str], ...] = ()
        try:
            args = _resolve_args(step, {d.index: d.output for d in done}, context)
        except _ResolutionError as exc:
            output, latency, error = None, 0.0, f"ResolutionError: {exc}"
        else:
            output, latency, error = call(tool, args)
        started = max((d.finished_ms for d in done), default=0.0)
        status = StepStatus.OK if error is None else StepStatus.FAILED
        return StepResult(
            step.index, tool, args, output, latency, status, error,
            started, started + latency,
        )

    futures: list[Future[StepResult]] = []
    # Cannot deadlock: a step references only earlier steps, whose tasks the
    # FIFO pool received first, and there is one worker per step.
    with ThreadPoolExecutor(max_workers=len(plan.steps)) as pool:
        for step, tool in zip(plan.steps, tools):
            dependencies = [futures[k - 1] for k in _dependencies(step)]
            futures.append(pool.submit(run, step, tool, dependencies))
    results = tuple(future.result() for future in futures)
    makespan = max(
        (r.finished_ms for r in results if r.finished_ms is not None), default=0.0
    )
    return ExecutionTrace(results, total_ms=makespan, critical_path_ms=makespan)


@dataclass(frozen=True)
class CannedCall:
    """Scripted behaviour for one tool of a mock retriever."""

    output: Mapping[str, object]
    latency_ms: float = 0.0
    error: str | None = None


class _MockRetriever:
    def __init__(self, config: Mapping[str, CannedCall]):
        self._config = dict(config)

    def invoke(
        self, tool: str, args: Mapping[str, str]
    ) -> tuple[Mapping[str, object], float]:
        call = self._config.get(tool)
        if call is None:
            raise UnconfiguredToolError(f"no canned output for tool {tool!r}")
        if call.error is not None:
            raise RetrieverError(call.error)
        return dict(call.output), call.latency_ms


def mock_retriever(config: Mapping[str, CannedCall]) -> Retriever:
    """Deterministic retriever returning configured outputs with simulated
    latencies; unknown tools raise :class:`UnconfiguredToolError`."""
    return _MockRetriever(config)


class HttpRetriever:
    """Adapter for tools exposed as ``POST {base_url}/{tool}`` JSON endpoints.

    Latencies are measured wall-clock milliseconds; non-200 responses and
    transport errors raise :class:`RetrieverError`.
    """

    def __init__(self, base_url: str, timeout_ms: float = 10_000.0):
        self.base_url = base_url.rstrip("/")
        self.timeout_ms = timeout_ms

    def invoke(
        self, tool: str, args: Mapping[str, str]
    ) -> tuple[Mapping[str, object], float]:
        url = f"{self.base_url}/{tool}"
        timeout_s = self.timeout_ms / 1000.0
        body, latency = post_json(url, dict(args), timeout_s, RetrieverError)
        if not isinstance(body, dict) or "text" not in body:
            raise RetrieverError(
                f"retriever response for {tool!r} must be a JSON object with "
                "a 'text' field"
            )
        return body, latency
