"""Dependency-aware plan execution against retriever adapters.

Failures never abort the run: a failed step is recorded and everything
depending on it (directly or transitively) is marked skipped, so the trace
always has exactly one terminal entry per step. Timing is bookkept on a
simulated clock derived from the latencies the retriever reports.

A retriever declares which clock those latencies come from, and the clock
picks one of two dispatch rules: a retriever that only simulates them
(``simulated_clock = True``, like :func:`mock_retriever`) runs inline in step
order, any other runs on a shared thread pool under wall-clock deadlines.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import threading
import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Protocol

from .boundary import post_json
from .errors import ReaperError
from .plan import ContextRef, Literal, Plan, PlanStep, StepRef, _trusted
from .registry import NO_RETRIEVAL_TOOL, ToolRegistry


class RetrieverError(ReaperError):
    """A retriever call failed (transport error, bad response, ...)."""


class UnconfiguredToolError(RetrieverError):
    """A mock retriever was invoked for a tool it has no canned data for."""


class Retriever(Protocol):
    """``invoke`` returns a tool call's output fields and its latency in
    milliseconds, or raises. A retriever that only simulates its latencies
    declares the class attribute ``simulated_clock = True``, and
    :func:`execute_plan` runs its steps in the calling thread, in step order,
    with no wall-clock deadline. Without it the retriever is on the wall
    clock, and its steps run on a shared thread pool."""

    def invoke(
        self, tool: str, args: Mapping[str, str]
    ) -> tuple[Mapping[str, object], float]: ...


class StepStatus(str, Enum):
    OK = "ok"
    FAILED = "failed"
    SKIPPED = "skipped"


_Args = tuple[tuple[str, str], ...]  # a step's resolved arguments


@dataclass(frozen=True)
class StepResult:
    index: int
    tool: str  # canonical name
    resolved_args: _Args
    output: Mapping[str, object] | None
    latency_ms: float
    status: StepStatus
    error: str | None = None
    started_ms: float | None = None
    finished_ms: float | None = None


@dataclass(frozen=True)
class ExecutionTrace:
    steps: tuple[StepResult, ...]
    critical_path_ms: float

    def step(self, index: int) -> StepResult:
        return self.steps[index - 1]


def _dependencies(step: PlanStep) -> tuple[int, ...]:
    """Indices of the steps ``step`` references, ascending, each once."""
    refs = [v.step for _, v in step.args if isinstance(v, StepRef)]
    return tuple(sorted(set(refs))) if len(refs) > 1 else tuple(refs)


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
    results: Sequence[StepResult | None],
    context: Mapping[str, str] | None,
) -> _Args:
    """``step``'s arguments as text; ``results`` holds the plan's entries in
    step order, those ``step`` references recorded."""
    resolved = []
    for name, value in step.args:
        if isinstance(value, Literal):
            text = value.text
        elif isinstance(value, StepRef):
            path = value.field or "text"
            found = _lookup(results[value.step - 1].output, path, value.step)
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


class _Pool:
    """Daemon threads running ``(function, args)`` tasks from one queue. A
    thread starts only when no worker is idle, up to ``size`` threads, so
    unused capacity costs nothing. Unlike ``concurrent.futures``, a task
    makes no future, and a worker still busy with an abandoned call does
    not hold up interpreter exit."""

    def __init__(self, size: int):
        from queue import SimpleQueue

        self._tasks: SimpleQueue = SimpleQueue()
        self._size = size
        self._threads = 0
        self._idle = 0
        self._lock = threading.Lock()

    def submit(self, function: Callable[..., None], *args: object) -> None:
        """Queue a task; raises ``RuntimeError`` and queues nothing when it
        needs a new thread and none can start."""
        with self._lock:
            if self._idle:
                self._idle -= 1
            elif self._threads < self._size:
                threading.Thread(
                    target=self._work, name=f"reaper-step-{self._threads}", daemon=True
                ).start()
                self._threads += 1
        self._tasks.put((function, args))

    def _work(self) -> None:
        while True:
            function, args = self._tasks.get()
            function(*args)
            with self._lock:
                self._idle += 1


# The shared pool's ceiling, the stdlib's own default maximum.
_POOL_WORKERS = 32
_pool: _Pool | None = None
_pool_lock = threading.Lock()


def _shared_pool() -> _Pool:
    """The pool every plan in this process submits steps to, made on first
    use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = _Pool(_POOL_WORKERS)
        return _pool


def _forget_pool() -> None:
    """After ``os.fork``: the child inherits the pool's bookkeeping but none
    of its threads, and perhaps a lock held by a parent thread."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _start(needed: tuple[int, ...], results: Sequence[StepResult | None]) -> float:
    """When a step whose dependencies ``needed`` all succeeded starts."""
    return max([results[k - 1].finished_ms for k in needed], default=0.0)


def _timed_out(
    index: int, tool: str, started: float, args: _Args, timeout_ms: float, why: str
) -> StepResult:
    return _trusted(
        StepResult, index=index, tool=tool, resolved_args=args, output=None,
        latency_ms=float(timeout_ms), status=StepStatus.FAILED,
        error=f"Timeout: exceeded {timeout_ms} ms ({why})", started_ms=started,
        finished_ms=started + timeout_ms,
    )


def _skipped(
    index: int, tool: str, needed: tuple[int, ...], results: Sequence[StepResult | None]
) -> StepResult | None:
    """The entry of a step whose dependencies ``needed`` are recorded, when
    one of them did not succeed."""
    if needed:
        blocked = [k for k in needed if results[k - 1].status is not StepStatus.OK]
        if blocked:
            reason = f"skipped: depends on step(s) {', '.join(map(str, blocked))}"
            return _trusted(
                StepResult, index=index, tool=tool, resolved_args=(), output=None,
                latency_ms=0.0, status=StepStatus.SKIPPED, error=reason,
                started_ms=None, finished_ms=None,
            )
    return None


def _outcome(
    step: PlanStep, tool: str, needed: tuple[int, ...],
    results: Sequence[StepResult | None], retriever: Retriever | None,
    timeout_ms: float | None, context: Mapping[str, str] | None,
    catch: type[BaseException],
) -> StepResult:
    """The terminal entry of a step whose dependencies all succeeded. An
    exception of type ``catch`` fails the step, as does a retriever output
    that is not a mapping or a latency that is not finite and non-negative."""
    started = _start(needed, results) if needed else 0.0
    args: _Args = ()
    try:
        args = _resolve_args(step, results, context)
        if tool == NO_RETRIEVAL_TOOL:
            output, latency = {}, 0.0
        elif retriever is None:
            raise RetrieverError("no retriever configured")
        else:
            output, latency = retriever.invoke(tool, dict(args))
            # exact float and dict first: each ABC check costs about a microsecond
            if not (
                (type(latency) is float or isinstance(latency, numbers.Real))
                and math.isfinite(latency)
                and latency >= 0
            ):
                raise RetrieverError(f"invalid latency {latency!r}")
            if type(output) is not dict and not isinstance(output, Mapping):
                raise RetrieverError(
                    f"output must be a mapping, got {type(output).__name__}"
                )
            latency = float(latency)
        if timeout_ms is not None and latency > timeout_ms:
            why = f"retriever took {latency} ms"
            return _timed_out(step.index, tool, started, args, timeout_ms, why)
    except catch as exc:
        return _trusted(
            StepResult, index=step.index, tool=tool, resolved_args=args, output=None,
            latency_ms=0.0, status=StepStatus.FAILED, started_ms=started,
            finished_ms=started, error=f"{type(exc).__name__}: {exc}",
        )
    return _trusted(
        StepResult, index=step.index, tool=tool, resolved_args=args, output=output,
        latency_ms=latency, status=StepStatus.OK, error=None, started_ms=started,
        finished_ms=started + latency,
    )


def execute_plan(
    plan: Plan,
    registry: ToolRegistry,
    retriever: Retriever | None = None,
    timeout_ms: float | None = None,
    context: Mapping[str, str] | None = None,
) -> ExecutionTrace:
    """Run a validated plan; returns a complete trace, never raises for
    per-step failures.

    Every tool name is resolved, and a negative ``timeout_ms`` rejected with
    ``ValueError``, before any step runs, so an unknown tool raises
    :class:`~reaper.errors.UnknownToolError` with no retriever call. A
    retriever call that raises, returns an output that is not a mapping or a
    latency that is not a finite, non-negative number fails its step, as does
    a ``$k.field`` value that is not JSON (a set, bytes, NaN, ...). A step
    with a dependency that did not succeed is skipped and never called.

    A step starts on the simulated clock the moment its last dependency
    finishes and lasts the latency its retriever reports.
    ``critical_path_ms`` is the makespan on that clock, the latest
    ``finished_ms`` of any step; measured wall time is not part of the trace.
    ``timeout_ms`` is a per-step budget: a step reporting a latency over it
    fails with ``Timeout``. NaN and infinity set no budget.

    A simulated retriever (``simulated_clock = True``), or none, runs every
    step in the calling thread in step order, which is topological because
    a step references only earlier steps. An exception that is not an
    :class:`Exception` (``SystemExit``, say) propagates to the caller.

    A wall-clock retriever runs every step on the shared pool while the
    caller only watches. Steps are dispatched by continuation, LLMCompiler's
    task-fetching unit (Kim et al. 2023, arXiv 2312.04511) without a
    scheduler per call: the thread that records a step runs the first child
    it made ready and submits only the extra fan-out. The bounded pool cannot
    deadlock: a step is submitted only once its dependencies are recorded,
    and no pool thread waits for another step. (A retriever that itself calls
    ``execute_plan`` from a pool thread would break that premise.) A step the
    pool cannot take, because no new thread can start, runs in the thread at
    hand. A child created by ``os.fork`` starts a fresh pool. A step still
    running ``timeout_ms`` after its dispatch is failed there and then, its
    dependents are skipped and its late result is dropped; time queued on a
    saturated pool counts, and an abandoned call keeps its worker until the
    retriever returns. Either way a timed-out step reads ``latency_ms =
    timeout_ms`` and finishes ``timeout_ms`` after it started. An exception
    that is not an :class:`Exception` fails its step, since a pool thread has
    no caller to raise to.
    """
    tools = [registry.canonical_of(step.tool_name) for step in plan.steps]
    if timeout_ms is not None and timeout_ms < 0:
        raise ValueError(f"timeout_ms must not be negative, got {timeout_ms!r}")
    dependencies = [_dependencies(step) for step in plan.steps]
    results: list[StepResult | None] = []
    if retriever is None or getattr(retriever, "simulated_clock", False):
        for step, tool, needed in zip(plan.steps, tools, dependencies):
            results.append(_skipped(step.index, tool, needed, results) or _outcome(
                step, tool, needed, results, retriever, timeout_ms, context, Exception
            ))
        return _trace(results)

    # A plan's step at position p has index p + 1.
    results = [None] * len(plan.steps)
    waiting = [len(needed) for needed in dependencies]
    children: list[list[int]] = [[] for _ in plan.steps]
    for position, needed in enumerate(dependencies):
        for k in needed:
            children[k - 1].append(position)
    unrecorded = len(plan.steps)
    lock = threading.Lock()
    settled = threading.Lock()  # released when the last step is recorded
    settled.acquire()
    no_budget = timeout_ms is None or math.isnan(timeout_ms)
    budget_s = math.inf if no_budget else timeout_ms / 1000.0
    deadlines: dict[int, float] = {}  # dispatched step -> its time.monotonic() deadline

    def record(position: int, result: StepResult) -> list[int]:
        """Under ``lock``: store a step's terminal entry, skip each step it
        blocked, and return the steps it made ready, each given its
        deadline."""
        nonlocal unrecorded
        results[position] = result
        deadlines.pop(position, None)
        unrecorded -= 1
        if not unrecorded:
            settled.release()
        ready = []
        for child in children[position]:
            waiting[child] -= 1
            if not waiting[child]:
                skip = _skipped(child + 1, tools[child], dependencies[child], results)
                if skip is None:
                    ready.append(child)
                else:
                    record(child, skip)
        if ready:
            deadlines.update(dict.fromkeys(ready, time.monotonic() + budget_s))
        return ready

    def run(position: int) -> None:
        """Record a step in this thread, then go on with the first step it
        made ready and dispatch the others. A step that timed out while
        queued is not called, and a result that comes in after its step
        timed out is dropped."""
        while results[position] is None:
            # total: a lost entry would leave the caller waiting forever
            result = _outcome(
                plan.steps[position], tools[position], dependencies[position],
                results, retriever, timeout_ms, context, BaseException,
            )
            with lock:
                if results[position] is not None:
                    return
                ready = record(position, result)
            if not ready:
                return
            dispatch(ready[1:])
            position = ready[0]

    def dispatch(positions: list[int]) -> None:
        """Hand steps to the pool; one it refuses, because no new thread can
        start, runs in this thread."""
        for position in positions:
            try:
                _shared_pool().submit(run, position)
            except RuntimeError:
                run(position)

    def expire(now: float) -> None:
        """Under ``lock``: time out every step past its deadline."""
        for position in [p for p, due in deadlines.items() if due <= now]:
            try:
                args = _resolve_args(plan.steps[position], results, context)
            except ResolutionError:
                args = ()
            started = _start(dependencies[position], results)
            why = "no result by the wall-clock deadline"
            record(position, _timed_out(
                position + 1, tools[position], started, args, timeout_ms, why
            ))

    roots = [position for position, count in enumerate(waiting) if not count]
    deadlines.update(dict.fromkeys(roots, time.monotonic() + budget_s))
    dispatch(roots)
    while True:
        with lock:
            if not unrecorded:
                break
            now = time.monotonic()
            due = min(deadlines.values())
            if due <= now:
                expire(now)
                continue
        settled.acquire(timeout=min(due - now, threading.TIMEOUT_MAX))
    return _trace(results)


def _trace(results: Sequence[StepResult]) -> ExecutionTrace:
    """The trace of a plan's entries; the makespan is the latest finish."""
    finished = [r.finished_ms for r in results if r.finished_ms is not None]
    critical = max(finished, default=0.0)
    return _trusted(ExecutionTrace, steps=tuple(results), critical_path_ms=critical)


@dataclass(frozen=True)
class CannedCall:
    """Scripted behaviour for one tool of a mock retriever."""

    output: Mapping[str, object]
    latency_ms: float = 0.0
    error: str | None = None


class _MockRetriever:
    # Only reports latencies: ``execute_plan`` runs it inline, with no deadline.
    simulated_clock = True

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
