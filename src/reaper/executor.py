"""Dependency-aware plan execution against retriever adapters.

Steps run as soon as their referenced steps have finished; independent steps
run concurrently on one thread pool shared by every plan in the process.
Failures never abort the run: a failed step is recorded and everything
depending on it (directly or transitively) is marked skipped, so the trace
always has exactly one terminal entry per step.

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
import os
import threading
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


def _dependencies(step: PlanStep) -> tuple[int, ...]:
    """Indices of the steps ``step`` references, ascending, each once."""
    return tuple(sorted({v.step for _, v in step.args if isinstance(v, StepRef)}))


def dependency_graph(plan: Plan) -> list[tuple[int, int]]:
    """Edges (k, i) for every step i that references step k."""
    return sorted((k, step.index) for step in plan.steps for k in _dependencies(step))


class ResolutionError(ReaperError):
    """A step's arguments cannot be built from earlier outputs or the
    context."""


def _lookup(output: Mapping[str, object], path: str, producer: int) -> object:
    current: object = output
    for part in path.split("."):
        if not isinstance(current, Mapping) or part not in current:
            raise ResolutionError(
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
            path = value.field or "text"
            found = _lookup(outputs[value.step], path, value.step)
            if isinstance(found, str):
                text = found
            else:
                try:
                    text = json.dumps(found, ensure_ascii=False, allow_nan=False)
                except (TypeError, ValueError) as exc:
                    raise ResolutionError(
                        f"step {value.step} field {path!r} is not JSON: {exc}"
                    ) from None
        elif isinstance(value, ContextRef):
            if context is None or value.field not in context:
                raise ResolutionError(
                    f"no context field {value.field!r} available"
                )
            text = context[value.field]
        else:  # pragma: no cover - ArgValue is a closed union
            raise TypeError(f"unsupported argument value: {value!r}")
        resolved.append((name, text))
    return tuple(resolved)


# The shared pool's ceiling, the stdlib's own default maximum. A worker
# thread starts only when no worker is idle, so unused capacity costs nothing.
_POOL_WORKERS = 32
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _shared_pool() -> ThreadPoolExecutor:
    """The pool every plan in this process submits fan-out to, made on first
    use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_POOL_WORKERS, thread_name_prefix="reaper-step")
        return _pool


def _forget_pool() -> None:
    """After ``os.fork``: the child inherits the pool's bookkeeping but none
    of its threads, and perhaps a lock held by a parent thread."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


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
    A retriever call that raises, returns an output that is not a mapping or
    a latency that is not a finite, non-negative number fails its step, as
    does a ``$k.field`` value that is not JSON (a set, bytes, NaN, ...).

    Steps are dispatched by continuation, LLMCompiler's task-fetching unit
    (Kim et al. 2023, arXiv 2312.04511) without a scheduler per call. The
    caller runs the first root step itself and submits the other roots to a
    thread pool shared by every plan in the process. The thread that records
    a step runs the first child that step made ready, and submits only the
    extra fan-out, so a chain runs entirely in the calling thread. The caller
    returns once the last step is recorded. The pool is bounded but cannot
    deadlock: a step is submitted only once its dependencies are recorded,
    and no step ever waits for another, so every pool task runs to the end
    without waiting for pool work. (A retriever that itself calls
    ``execute_plan`` from a pool thread would break that premise.) Once the
    interpreter starts to exit the pool takes no new work, and the thread at
    hand runs what it would have submitted. A child created by ``os.fork``
    starts a fresh pool, since it inherits none of the parent's worker
    threads.

    Timing is on the simulated clock: a step starts the moment its last
    dependency finishes and lasts the latency its retriever reports.
    ``timeout_ms`` is compared with that reported latency after the call
    returns: a slower call fails its step with ``latency_ms = timeout_ms``,
    but nothing stops waiting for it, so it is not a wall-clock deadline.
    ``total_ms`` equals ``critical_path_ms``, the makespan on the simulated
    clock, for now.
    """
    tools = [registry.canonical_of(step.tool_name) for step in plan.steps]
    dependencies = [_dependencies(step) for step in plan.steps]
    waiting = [len(needed) for needed in dependencies]
    children: list[list[int]] = [[] for _ in plan.steps]
    for position, needed in enumerate(dependencies):
        for k in needed:
            children[k - 1].append(position)
    results: list[StepResult | None] = [None] * len(plan.steps)
    unrecorded = len(plan.steps)
    lock = threading.Lock()
    finished = threading.Event()

    def call(
        tool: str, args: tuple[tuple[str, str], ...]
    ) -> tuple[Mapping[str, object], float]:
        """(output, latency_ms) of one retrieval; raises if it failed."""
        if tool == NO_RETRIEVAL_TOOL:
            return {}, 0.0
        if retriever is None:
            raise RetrieverError("no retriever configured")
        output, latency = retriever.invoke(tool, dict(args))
        if not (
            isinstance(latency, numbers.Real) and math.isfinite(latency) and latency >= 0
        ):
            raise RetrieverError(f"invalid latency {latency!r}")
        if not isinstance(output, Mapping):
            raise RetrieverError(
                f"output must be a mapping, got {type(output).__name__}"
            )
        return output, float(latency)

    def outcome(position: int) -> StepResult:
        """The terminal entry of a step whose dependencies are recorded.
        Total: a pool thread has no caller to raise to, and a lost entry
        would leave the caller waiting forever."""
        step, tool = plan.steps[position], tools[position]
        done = [results[k - 1] for k in dependencies[position]]
        blocked = [d.index for d in done if d.status is not StepStatus.OK]
        if blocked:
            reason = f"skipped: depends on step(s) {', '.join(map(str, blocked))}"
            return StepResult(
                step.index, tool, (), None, 0.0, StepStatus.SKIPPED, reason
            )
        started = max((d.finished_ms for d in done), default=0.0)
        args: tuple[tuple[str, str], ...] = ()
        try:
            args = _resolve_args(step, {d.index: d.output for d in done}, context)
            output, latency = call(tool, args)
            if timeout_ms is not None and latency > timeout_ms:
                error = f"Timeout: exceeded {timeout_ms} ms (retriever took {latency} ms)"
                return StepResult(
                    step.index, tool, args, None, float(timeout_ms),
                    StepStatus.FAILED, error, started, started + timeout_ms,
                )
        except Exception as exc:
            return StepResult(
                step.index, tool, args, None, 0.0, StepStatus.FAILED,
                f"{type(exc).__name__}: {exc}", started, started,
            )
        return StepResult(
            step.index, tool, args, output, latency, StepStatus.OK, None,
            started, started + latency,
        )

    def run(ready: list[int]) -> None:
        """Submit all but the first ready step to the pool, record the first
        in this thread, and go on the same way with the steps it made ready.
        Steps the pool refuses, as it does once the interpreter starts to
        exit, run in this thread too."""
        nonlocal unrecorded
        here: list[int] = []
        while ready or here:
            for position in ready[1:]:
                try:
                    _shared_pool().submit(run, [position])
                except RuntimeError:
                    here.append(position)
            here.extend(ready[:1])
            position = here.pop()
            result = outcome(position)
            ready = []
            with lock:
                if results[position] is not None:
                    continue  # also queued by a submit whose new thread failed to start
                results[position] = result
                unrecorded -= 1
                for child in children[position]:
                    waiting[child] -= 1
                    if not waiting[child]:
                        ready.append(child)
                if not unrecorded:
                    finished.set()

    run([position for position, count in enumerate(waiting) if not count])
    finished.wait()
    steps = tuple(results)
    makespan = max(
        (r.finished_ms for r in steps if r.finished_ms is not None), default=0.0
    )
    return ExecutionTrace(steps, total_ms=makespan, critical_path_ms=makespan)


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
