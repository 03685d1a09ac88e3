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

from concurrent.futures import ThreadPoolExecutor
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


def dependency_graph(plan: Plan) -> list[tuple[int, int]]:
    """Edges (k, i) for every step i that references step k."""
    edges = set()
    for step in plan.steps:
        for _, value in step.args:
            if isinstance(value, StepRef):
                edges.add((value.step, step.index))
    return sorted(edges)


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
            text = found if isinstance(found, str) else str(found)
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


@dataclass
class _Outcome:
    tool: str
    status: StepStatus
    resolved_args: tuple[tuple[str, str], ...] = ()
    output: Mapping[str, object] | None = None
    latency_ms: float = 0.0
    error: str | None = None
    started_ms: float | None = None
    finished_ms: float | None = None


def execute_plan(
    plan: Plan,
    registry: ToolRegistry,
    retriever: Retriever | None = None,
    timeout_ms: float | None = None,
    context: Mapping[str, str] | None = None,
    max_workers: int | None = None,
) -> ExecutionTrace:
    """Run a validated plan; returns a complete trace, never raises for
    per-step failures."""
    deps: dict[int, tuple[int, ...]] = {}
    canonical: dict[int, str] = {}
    for step in plan.steps:
        canonical[step.index] = registry.canonical_of(step.tool_name)
        deps[step.index] = tuple(
            sorted(
                {v.step for _, v in step.args if isinstance(v, StepRef)}
            )
        )

    outcomes: dict[int, _Outcome] = {}

    def invoke(step: PlanStep, args: tuple[tuple[str, str], ...]) -> _Outcome:
        tool = canonical[step.index]
        if tool == NO_RETRIEVAL_TOOL:
            return _Outcome(tool, StepStatus.OK, args, {}, 0.0)
        if retriever is None:
            return _Outcome(
                tool,
                StepStatus.FAILED,
                args,
                error="RetrieverError: no retriever configured",
            )
        try:
            output, latency = retriever.invoke(tool, dict(args))
        except Exception as exc:
            return _Outcome(
                tool,
                StepStatus.FAILED,
                args,
                error=f"{type(exc).__name__}: {exc}",
            )
        if timeout_ms is not None and latency > timeout_ms:
            return _Outcome(
                tool,
                StepStatus.FAILED,
                args,
                latency_ms=float(timeout_ms),
                error=f"Timeout: exceeded {timeout_ms} ms "
                f"(retriever took {latency} ms)",
            )
        return _Outcome(tool, StepStatus.OK, args, output, float(latency))

    remaining = list(plan.steps)
    workers = max_workers or max(1, len(plan.steps))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        while remaining:
            batch = [s for s in remaining if all(d in outcomes for d in deps[s.index])]
            to_run: list[tuple[PlanStep, tuple[tuple[str, str], ...]]] = []
            for step in batch:
                blocked = [
                    d for d in deps[step.index]
                    if outcomes[d].status is not StepStatus.OK
                ]
                if blocked:
                    outcomes[step.index] = _Outcome(
                        canonical[step.index],
                        StepStatus.SKIPPED,
                        error=f"skipped: depends on step(s) "
                        f"{', '.join(map(str, blocked))}",
                    )
                    continue
                try:
                    args = _resolve_args(
                        step,
                        {
                            d: outcomes[d].output
                            for d in deps[step.index]
                            if outcomes[d].output is not None
                        },
                        context,
                    )
                except _ResolutionError as exc:
                    outcomes[step.index] = _Outcome(
                        canonical[step.index],
                        StepStatus.FAILED,
                        error=f"ResolutionError: {exc}",
                    )
                    continue
                to_run.append((step, args))
            futures = {
                pool.submit(invoke, step, args): step for step, args in to_run
            }
            for future, step in futures.items():
                outcomes[step.index] = future.result()
            remaining = [s for s in remaining if s.index not in outcomes]

    # Simulated clock: a step starts when its last dependency finishes.
    for step in plan.steps:
        outcome = outcomes[step.index]
        if outcome.status is StepStatus.SKIPPED:
            continue
        start = max(
            (outcomes[d].finished_ms or 0.0 for d in deps[step.index]),
            default=0.0,
        )
        outcome.started_ms = start
        outcome.finished_ms = start + outcome.latency_ms

    makespan = max(
        (o.finished_ms for o in outcomes.values() if o.finished_ms is not None),
        default=0.0,
    )
    results = tuple(
        StepResult(
            index=step.index,
            tool=outcomes[step.index].tool,
            resolved_args=outcomes[step.index].resolved_args,
            output=outcomes[step.index].output,
            latency_ms=outcomes[step.index].latency_ms,
            status=outcomes[step.index].status,
            error=outcomes[step.index].error,
            started_ms=outcomes[step.index].started_ms,
            finished_ms=outcomes[step.index].finished_ms,
        )
        for step in plan.steps
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
