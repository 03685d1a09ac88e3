"""Dependency-aware plan execution against retriever adapters.

Failures never abort the run: a failed step is recorded and everything
depending on it (directly or transitively) is marked skipped, so the trace
always has exactly one terminal entry per step. Timing is bookkept on a
simulated clock derived from the latencies the retriever reports.

A retriever declares which clock those latencies come from, and the clock
picks one of two dispatch rules: a retriever that only simulates them
(``simulated_clock = True``, like :func:`mock_retriever`) runs inline in step
order, any other has its calls run on a shared thread pool, scheduled by the
calling thread under wall-clock deadlines.
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
from .plan import Literal, Plan, PlanStep, StepRef, _trusted, tool_sequence
from .registry import NO_RETRIEVAL_TOOL, ToolRegistry


class RetrieverError(ReaperError):
    """A retriever call failed (transport error, bad response, ...)."""


class UnconfiguredToolError(RetrieverError):
    """A mock retriever was invoked for a tool it has no canned data for."""


_Output = tuple[Mapping[str, object], float]  # a call's output fields and latency in ms


class Retriever(Protocol):
    """``invoke`` returns a tool call's output fields and its latency in
    milliseconds, or raises. A retriever that only simulates its latencies
    declares ``simulated_clock = True``, which picks :func:`execute_plan`'s rule."""

    def invoke(self, tool: str, args: Mapping[str, str]) -> _Output: ...


class StepStatus(str, Enum):
    OK = "ok"
    FAILED = "failed"
    SKIPPED = "skipped"


# The members as globals: reading one off the Enum class costs about 8 times as much.
_OK, _FAILED, _SKIPPED = StepStatus.OK, StepStatus.FAILED, StepStatus.SKIPPED


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
    return tuple(sorted({v.step for _, v in step.args if isinstance(v, StepRef)}))


def dependency_graph(plan: Plan) -> list[tuple[int, int]]:
    """Edges (k, i) for every step i that references step k: the plan's DAG,
    for callers that schedule or draw plans."""
    return sorted((k, step.index) for step in plan.steps for k in _dependencies(step))


class ResolutionError(ReaperError):
    """A step's arguments cannot be built from earlier outputs or the context."""


def _lookup(output: Mapping[str, object], path: str, producer: int) -> object:
    current: object = output
    for part in path.split("."):
        # an exact dict first: the ABC check costs about ten times as much
        mapping = type(current) is dict or isinstance(current, Mapping)
        if not mapping or part not in current:
            raise ResolutionError(f"step {producer} output has no field {path!r}")
        current = current[part]
    return current


def _prepare(
    step: PlanStep, results: Sequence[StepResult | None],
    context: Mapping[str, str] | None, catch: type[BaseException],
) -> tuple[tuple[int, ...], float, _Args, str | None]:
    """Read ``step``'s arguments in one pass; ``results`` holds the entries
    of the producers they reference. Returns the producers that did not
    succeed, in argument order; the start, the latest finish of the others;
    the arguments as text, or ``()`` if one cannot be built; and the error
    the first of those raised, of type ``catch``. Nothing is resolved past
    that argument or a blocked producer."""
    blocked, started, resolved, error = (), 0.0, [], None
    for name, value in step.args:
        try:
            if isinstance(value, Literal):
                text = value.text
            elif isinstance(value, StepRef):
                producer = results[value.step - 1]
                if producer.status is not _OK:
                    blocked += (value.step,)
                    continue
                if producer.finished_ms > started:
                    started = producer.finished_ms
                if error is not None or blocked:
                    continue
                path = value.field or "text"
                text = _lookup(producer.output, path, value.step)
                if not isinstance(text, str):
                    try:
                        text = json.dumps(text, ensure_ascii=False, allow_nan=False)
                    except (TypeError, ValueError) as exc:
                        raise ResolutionError(
                            f"step {value.step} field {path!r} is not JSON: {exc}"
                        ) from None
            elif error is not None or blocked:  # a ContextRef, the one other kind
                continue
            elif context is None or value.field not in context:
                raise ResolutionError(f"no context field {value.field!r} available")
            else:
                text = context[value.field]
        except catch as exc:
            error = f"{type(exc).__name__}: {exc}"
            continue
        resolved.append((name, text))
    return blocked, started, () if error else tuple(resolved), error


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
    """The pool every plan in this process submits steps to, made on first use."""
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


def _timed_out(
    index: int, tool: str, started: float, args: _Args, timeout_ms: float, why: str
) -> StepResult:
    return _trusted(StepResult, {
        "index": index, "tool": tool, "resolved_args": args, "output": None,
        "latency_ms": float(timeout_ms), "status": _FAILED,
        "error": f"Timeout: exceeded {timeout_ms} ms ({why})",
        "started_ms": started, "finished_ms": started + timeout_ms,
    })


def _skipped(index: int, tool: str, blocked: tuple[int, ...]) -> StepResult:
    """The entry of a step whose producers ``blocked`` did not succeed."""
    steps = ", ".join(map(str, sorted(set(blocked))))
    return _trusted(StepResult, {
        "index": index, "tool": tool, "resolved_args": (), "output": None,
        "latency_ms": 0.0, "status": _SKIPPED, "started_ms": None, "finished_ms": None,
        "error": f"skipped: depends on step(s) {steps}",
    })


def _outcome(
    index: int, tool: str, started: float, args: _Args, error: str | None,
    retriever: Retriever | None, timeout_ms: float | None,
    catch: type[BaseException],
) -> StepResult:
    """The entry of a step :func:`_prepare` found unblocked, failed by its
    resolution ``error``, an exception of type ``catch`` from the call, an
    output that is not a mapping or a latency not finite and non-negative."""
    output, latency, status = None, 0.0, _FAILED
    if error is None:
        try:
            if tool == NO_RETRIEVAL_TOOL:
                output = {}
            elif retriever is None:
                raise RetrieverError("no retriever configured")
            else:
                output, latency = retriever.invoke(tool, dict(args))
                # exact float and dict first: each ABC check costs about a microsecond
                real = type(latency) is float or isinstance(latency, numbers.Real)
                if not (real and math.isfinite(latency) and latency >= 0):
                    raise RetrieverError(f"invalid latency {latency!r}")
                if type(output) is not dict and not isinstance(output, Mapping):
                    kind = type(output).__name__
                    raise RetrieverError(f"output must be a mapping, got {kind}")
                latency = float(latency)
            if timeout_ms is not None and latency > timeout_ms:
                why = f"retriever took {latency} ms"
                return _timed_out(index, tool, started, args, timeout_ms, why)
            status = _OK
        except catch as exc:
            output, latency = None, 0.0
            error = f"{type(exc).__name__}: {exc}"
    return _trusted(StepResult, {
        "index": index, "tool": tool, "resolved_args": args, "output": output,
        "latency_ms": latency, "status": status, "error": error,
        "started_ms": started, "finished_ms": started + latency,
    })


def execute_plan(
    plan: Plan, registry: ToolRegistry, retriever: Retriever | None = None,
    timeout_ms: float | None = None, context: Mapping[str, str] | None = None,
) -> ExecutionTrace:
    """Run a validated plan; returns a complete trace, never raises for
    per-step failures.

    Every tool name is resolved, and a negative ``timeout_ms`` rejected with
    ``ValueError``, before any step runs, so an unknown tool raises
    :class:`~reaper.errors.UnknownToolError` with no retriever call. A
    retriever call that raises, returns an output that is not a mapping or a
    latency that is not a finite, non-negative number fails its step, as does
    a ``$k.field`` value that is not JSON (a set, bytes, NaN, ...).

    A step's arguments are read once, in argument order, when its last
    dependency is recorded, and three rules order what that finds. *Skip
    beats failure:* a step with a dependency that did not succeed is skipped
    and never called, even when another of its arguments cannot be resolved;
    its reason names each such dependency once, ascending. *Start time:* a
    step starts on the simulated clock at the latest finish of all its
    dependencies, those after an unresolvable argument included, and lasts
    the latency its retriever reports. *First error wins:* the first
    argument that cannot be resolved names the error of its failed step,
    which holds ``resolved_args=()``.

    ``critical_path_ms`` is the makespan on that clock, the latest
    ``finished_ms`` of any step; measured wall time is not part of the trace.
    ``timeout_ms`` is a per-step budget: a step reporting a latency over it
    fails with ``Timeout``. NaN and infinity set no budget.

    A simulated retriever (``simulated_clock = True``), or none, runs every
    step in the calling thread in step order, which is topological because
    a step references only earlier steps. An exception that is not an
    :class:`Exception` (``SystemExit``, say) propagates to the caller.

    A wall-clock retriever's calls run on the shared pool, and the calling
    thread is the plan's one scheduler, LLMCompiler's task-fetching unit (Kim
    et al. 2023, arXiv 2312.04511): it takes the steps one at a time from a
    queue of its own and keeps every entry and deadline; a pool thread only
    calls the retriever and posts the entry to that queue. The bounded pool
    cannot deadlock: a pool thread never waits for a step and never submits
    one. (A retriever that itself calls ``execute_plan`` from a pool thread
    would break that premise.) A step the pool cannot take, because no new
    thread can start, runs in the calling thread. A child created by
    ``os.fork`` starts a fresh pool. A step still running ``timeout_ms`` after
    its dispatch is failed there and then, its dependents are skipped and its
    late result is dropped; time queued on a saturated pool counts, and an
    abandoned call keeps its worker until the retriever returns. Either way a
    timed-out step reads ``latency_ms = timeout_ms`` and finishes
    ``timeout_ms`` after it started. An exception that is not an
    :class:`Exception` fails its step: a pool thread has no caller to raise
    to.
    """
    tools = tool_sequence(plan, registry)
    if timeout_ms is not None and timeout_ms < 0:
        raise ValueError(f"timeout_ms must not be negative, got {timeout_ms!r}")
    if retriever is not None and not getattr(retriever, "simulated_clock", False):
        from queue import SimpleQueue

        posts: SimpleQueue = SimpleQueue()
        for post in (*zip(plan.steps, tools), _END):
            posts.put(post)
        return _trace(_on_pool(posts, retriever, timeout_ms, context))
    results: list[StepResult] = []
    for step, tool in zip(plan.steps, tools):
        blocked, started, args, error = _prepare(step, results, context, Exception)
        results.append(_skipped(step.index, tool, blocked) if blocked else _outcome(
            step.index, tool, started, args, error, retriever, timeout_ms, Exception
        ))
    return _trace(results)


_END = (None, None)  # posted after a plan's last step: no more will come


def _on_pool(
    posts, retriever: Retriever, timeout_ms: float | None,
    context: Mapping[str, str] | None,
) -> list[StepResult]:
    """:func:`execute_plan`'s wall-clock rule. The queue ``posts`` brings the
    steps as ``(step, canonical tool)`` in step order, then :data:`_END`, and
    pool threads post ``(position, entry)`` to it (index = position + 1)."""
    from queue import Empty

    posted, results, prepared = [], [], []  # (step, tool), entry, _prepare's
    waiting, children, ended = [], [], False  # producers unrecorded, consumers, _END
    no_budget = timeout_ms is None or math.isnan(timeout_ms)
    budget_s = math.inf if no_budget else timeout_ms / 1000.0
    deadlines: dict[int, float] = {}  # dispatched step -> its time.monotonic() deadline

    def call(position: int) -> None:
        """Post a step's entry, unless it timed out while queued; total, since
        a lost entry would leave the caller waiting forever."""
        if results[position] is None:
            _, started, args, error = prepared[position]
            posts.put((position, _outcome(
                position + 1, posted[position][1], started, args, error, retriever,
                timeout_ms, BaseException,
            )))

    def admit(position: int) -> None:
        """Prepare a step whose producers are all recorded, then skip it or
        dispatch it with its deadline (here, if no pool thread can start)."""
        step, tool = posted[position]
        prepared[position] = _prepare(step, results, context, BaseException)
        if prepared[position][0]:
            return record(position, _skipped(position + 1, tool, prepared[position][0]))
        deadlines[position] = time.monotonic() + budget_s
        try:
            _shared_pool().submit(call, position)
        except RuntimeError:
            call(position)

    def record(position: int, result: StepResult) -> None:
        """Store a step's entry and admit each step whose last producer it was."""
        results[position] = result
        deadlines.pop(position, None)
        for child in children[position]:
            waiting[child] -= 1
            if not waiting[child]:
                admit(child)

    while deadlines or not ended:  # an unrecorded step is in flight or waits on one
        wait = min(deadlines.values(), default=math.inf) - time.monotonic()
        wait = max(wait, 0.0) if wait < threading.TIMEOUT_MAX else None  # unreachable
        try:
            key, value = posts.get(timeout=wait)
        except Empty:  # time out every step past its deadline
            now = time.monotonic()
            for position in [p for p, at in deadlines.items() if at <= now]:
                _, started, args, _ = prepared[position]
                why = "no result by the wall-clock deadline"
                record(position, _timed_out(
                    position + 1, posted[position][1], started, args, timeout_ms, why
                ))
            continue
        if key is None:
            ended = True
        elif type(key) is int:
            if results[key] is None:  # else it came after its step timed out
                record(key, value)
        else:  # a step: it takes the next position
            pending = [k for k in _dependencies(key) if results[k - 1] is None]
            for k in pending:
                children[k - 1].append(len(posted))
            posted.append((key, value))
            results.append(None)
            prepared.append(None)
            waiting.append(len(pending))
            children.append([])
            if not pending:
                admit(len(posted) - 1)
    return results


def _trace(results: Sequence[StepResult]) -> ExecutionTrace:
    """The trace of a plan's entries; the makespan is the latest finish."""
    critical = 0.0
    for result in results:  # a list comprehension would build a function per call
        finished = result.finished_ms
        if finished is not None and finished > critical:
            critical = finished
    fields = {"steps": tuple(results), "critical_path_ms": critical}
    return _trusted(ExecutionTrace, fields)


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

    def invoke(self, tool: str, args: Mapping[str, str]) -> _Output:
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
    transport errors raise :class:`RetrieverError`."""

    def __init__(self, base_url: str, timeout_ms: float = 10_000.0):
        self.base_url = base_url.rstrip("/")
        self.timeout_ms = timeout_ms

    def invoke(self, tool: str, args: Mapping[str, str]) -> _Output:
        url = f"{self.base_url}/{tool}"
        timeout_s = self.timeout_ms / 1000.0
        body, latency = post_json(url, dict(args), timeout_s, RetrieverError)
        if not isinstance(body, dict) or "text" not in body:
            raise RetrieverError(
                f"retriever response for {tool!r} must be a JSON object with "
                "a 'text' field"
            )
        return body, latency
