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
the HTTP adapter reports measured wall-clock latencies instead. A step
budget (``timeout_ms``) also stops the wait for a retriever that really
takes its time, at a wall-clock deadline.
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
    results: Sequence[StepResult | None],
    context: Mapping[str, str] | None,
) -> tuple[tuple[str, str], ...]:
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
    (Kim et al. 2023, arXiv 2312.04511) without a scheduler per call. Ready
    steps go to a thread pool shared by every plan in the process, except
    that the thread that records a step runs the first child that step made
    ready and submits only the extra fan-out. Without ``timeout_ms`` the
    caller runs the first root step itself, so a chain runs entirely in the
    calling thread; with it, see below. The caller returns once the last step
    is recorded. The pool is bounded but cannot deadlock: a step is submitted
    only once its dependencies are recorded, and no pool thread ever waits
    for another step, so every pool task runs to the end without waiting for
    pool work. (A retriever that itself calls ``execute_plan`` from a pool
    thread would break that premise.) A step the pool cannot take, because
    no new thread can start, runs in the thread at hand. A child created by
    ``os.fork`` starts a fresh pool, since it inherits none of the parent's
    worker threads.

    Timing is on the simulated clock: a step starts the moment its last
    dependency finishes and lasts the latency its retriever reports.
    ``total_ms`` and ``critical_path_ms`` both equal the makespan on that
    clock, the latest ``finished_ms`` of any step; measured wall time is not
    part of the trace.

    ``timeout_ms`` is a per-step budget, enforced on two clocks. On the
    simulated clock, every retriever's reported latency is compared with it
    after the call returns. On the wall clock, for a retriever that really
    takes its time, it is also a deadline: every call then runs on a pool
    thread while the caller only watches, and a step still running
    ``timeout_ms`` after it was dispatched is failed there and then, its
    dependents are skipped and its late result is dropped. The budget
    starts at dispatch, so time a step spends queued on a saturated pool
    counts against it. An abandoned call keeps its pool worker until the
    retriever returns. Either way a timed-out step reads ``latency_ms =
    timeout_ms`` and finishes ``timeout_ms`` after it started. A retriever
    that only simulates its latencies, like :func:`mock_retriever`, gets no
    wall-clock deadline, so its traces stay reproducible bit for bit.

    An exception that is not an :class:`Exception` (``SystemExit``, say)
    propagates from a step the calling thread runs, and fails its step on a
    pool thread, which has no caller to raise to.
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
    settled = threading.Lock()  # released when the last step is recorded
    settled.acquire()
    budget_s = (
        None
        if timeout_ms is None or not math.isfinite(timeout_ms) or retriever is None
        or getattr(retriever, "_simulated_clock", False)
        else timeout_ms / 1000.0
    )
    deadlines: dict[int, float] = {}  # dispatched step -> its time.monotonic() deadline

    def call(
        tool: str, args: tuple[tuple[str, str], ...]
    ) -> tuple[Mapping[str, object], float]:
        """(output, latency_ms) of one retrieval; raises if it failed."""
        if tool == NO_RETRIEVAL_TOOL:
            return {}, 0.0
        if retriever is None:
            raise RetrieverError("no retriever configured")
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
        return output, float(latency)

    def timed_out(
        position: int, started: float, args: tuple[tuple[str, str], ...], why: str
    ) -> StepResult:
        return StepResult(
            plan.steps[position].index, tools[position], args, None,
            float(timeout_ms), StepStatus.FAILED,
            f"Timeout: exceeded {timeout_ms} ms ({why})", started, started + timeout_ms,
        )

    def outcome(position: int, catch: type[BaseException]) -> StepResult:
        """The terminal entry of a step whose dependencies are recorded.
        Total for ``catch=BaseException``: a pool thread has no caller to
        raise to, and a lost entry would leave the caller waiting forever."""
        step, tool = plan.steps[position], tools[position]
        started = 0.0
        if dependencies[position]:
            done = [results[k - 1] for k in dependencies[position]]
            blocked = [d.index for d in done if d.status is not StepStatus.OK]
            if blocked:
                reason = f"skipped: depends on step(s) {', '.join(map(str, blocked))}"
                return StepResult(
                    step.index, tool, (), None, 0.0, StepStatus.SKIPPED, reason
                )
            started = max(d.finished_ms for d in done)
        args: tuple[tuple[str, str], ...] = ()
        try:
            args = _resolve_args(step, results, context)
            output, latency = call(tool, args)
            if timeout_ms is not None and latency > timeout_ms:
                return timed_out(position, started, args, f"retriever took {latency} ms")
        except catch as exc:
            return StepResult(
                step.index, tool, args, None, 0.0, StepStatus.FAILED,
                f"{type(exc).__name__}: {exc}", started, started,
            )
        return StepResult(
            step.index, tool, args, output, latency, StepStatus.OK, None,
            started, started + latency,
        )

    def record(position: int, result: StepResult) -> list[int]:
        """Under ``lock``: store a step's terminal entry and return the steps
        it made ready, each given its deadline when there is a budget."""
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
                ready.append(child)
        if budget_s is not None and ready:
            deadlines.update(dict.fromkeys(ready, time.monotonic() + budget_s))
        return ready

    def submit(positions: list[int]) -> list[int]:
        """Hand steps to the pool; returns those it refused because it could
        not start a thread."""
        refused = []
        for position in positions:
            try:
                _shared_pool().submit(run, [position], BaseException)
            except RuntimeError:
                refused.append(position)
        return refused

    def run(ready: list[int], catch: type[BaseException]) -> None:
        """Submit all but the first ready step to the pool, record the first
        in this thread, and go on the same way with the steps it made ready.
        Steps the pool refuses run here too. A step that timed out while
        queued is not called, and a result that comes in after its step
        timed out is dropped."""
        here: list[int] = []
        while ready or here:
            here += submit(ready[1:])
            here += ready[:1]
            position = here.pop()
            ready = []
            if results[position] is not None:
                continue
            result = outcome(position, catch)
            with lock:
                if results[position] is None:
                    ready = record(position, result)

    def expire(now: float) -> None:
        """Under ``lock``: time out every step past its deadline, and skip
        what depends on it. A step still queued behind a dependency that did
        not succeed is skipped, as it would have been when run."""
        for position in [p for p, due in deadlines.items() if due <= now]:
            done = [results[k - 1] for k in dependencies[position]]
            if any(d.status is not StepStatus.OK for d in done):
                late = outcome(position, BaseException)
            else:
                try:
                    args = _resolve_args(plan.steps[position], results, context)
                except ResolutionError:
                    args = ()
                started = max((d.finished_ms for d in done), default=0.0)
                late = timed_out(
                    position, started, args, "no result by the wall-clock deadline"
                )
            ready = record(position, late)
            while ready:
                child = ready.pop()
                ready += record(child, outcome(child, BaseException))

    roots = [position for position, count in enumerate(waiting) if not count]
    if budget_s is None:
        run(roots, Exception)
    else:
        deadlines.update(dict.fromkeys(roots, time.monotonic() + budget_s))
        run(submit(roots), Exception)
    while True:
        with lock:
            if not unrecorded:
                break
            now = time.monotonic()
            due = min(deadlines.values(), default=None)
            if due is not None and due <= now:
                expire(now)
                continue
        wait_s = -1 if due is None else min(due - now, threading.TIMEOUT_MAX)
        settled.acquire(timeout=wait_s)
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
    # Only reports latencies, so ``execute_plan`` sets it no wall-clock deadline.
    _simulated_clock = True

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
