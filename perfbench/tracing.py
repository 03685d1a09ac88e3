"""Span recording for the traced run.

Layers are timed from outside the toolkit: proxies wrap the objects the
program is handed (planner backend, retriever, embedder) and ``install``
swaps wrappers into the module attributes through which the toolkit calls
its own public functions. An untraced run installs nothing from here.

A span is ``(span_id, parent_id, request_id, name, start_ns, end_ns,
attrs)``. Spans stay in memory until :func:`write_spans` runs at the end.
A span opened on a thread that has no open span of its own (the executor's
worker threads) takes the client thread's innermost open span as parent.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

_now = time.perf_counter_ns


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.request_id: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client_stack: list[int] = []
        self._local.stack = self._client_stack

    def begin(self, name: str, attrs=None) -> tuple:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            parent = self._client_stack[-1] if self._client_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        return (span_id, parent, self.request_id, name, _now(), attrs)

    def end(self, token: tuple) -> None:
        span_id, parent, request_id, name, start, attrs = token
        self.spans.append((span_id, parent, request_id, name, start, _now(), attrs))
        self._local.stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            token = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(token)

        return traced

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to ``name``'s count for the current request."""
        self.counts[name, self.request_id] += n


def median(values) -> float:
    """Median of a layer's samples; 0 when the layer did no work."""
    return statistics.median(values) if values else 0.0


def wrapped(recorder: Recorder, targets) -> list[tuple]:
    """``(module, attr, wrapper)`` timing ``module.attr`` as span ``name``
    for each ``(module, attr, name)``."""
    return [
        (module, attr, recorder.wrap(name, getattr(module, attr)))
        for module, attr, name in targets
    ]


def install(replacements) -> list[tuple]:
    """Set ``module.attr = replacement`` for each triple; returns what
    :func:`uninstall` needs to put the originals back."""
    saved = []
    for module, attr, replacement in replacements:
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)
    return saved


def uninstall(saved: list[tuple]) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


class BackendProxy:
    """Times ``complete`` calls on the planner backend."""

    def __init__(self, backend, recorder: Recorder):
        self._backend = backend
        self._recorder = recorder

    def complete(self, prompt: str):
        token = self._recorder.begin("gateway.backend")
        try:
            return self._backend.complete(prompt)
        finally:
            self._recorder.end(token)


class RetrieverProxy:
    """Times ``invoke`` calls; the span keeps the call's tool and arguments
    so a workload can map it back to a plan step."""

    def __init__(self, retriever, recorder: Recorder):
        self._retriever = retriever
        self._recorder = recorder

    def invoke(self, tool, args):
        token = self._recorder.begin(
            "executor.retriever", (tool, tuple(args.items()))
        )
        try:
            return self._retriever.invoke(tool, args)
        finally:
            self._recorder.end(token)


class EmbedderProxy:
    """Counts ``embed`` calls on the embedding provider."""

    def __init__(self, embedder, recorder: Recorder):
        self._embedder = embedder
        self._recorder = recorder

    def embed(self, text: str):
        self._recorder.count("embedding.embed_calls")
        return self._embedder.embed(text)


def _covered_ns(start: int, end: int, children: list[tuple[int, int]]) -> int:
    """Length of [start, end) covered by the union of child intervals."""
    covered = 0
    reach = start
    for child_start, child_end in sorted(children):
        child_start = max(child_start, reach)
        child_end = min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            reach = child_end
    return covered


def self_times_ns(spans) -> dict[int, int]:
    """Span id -> its duration minus the part its children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        span_id: end - start - _covered_ns(start, end, children.get(span_id, []))
        for span_id, _, _, _, start, end, _ in spans
    }


def layer_table(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total ms and self ms."""
    own = self_times_ns(spans)
    table: dict[str, dict[str, float]] = {}
    for span_id, _, _, name, start, end, _ in spans:
        row = table.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += (end - start) / 1e6
        row["self_ms"] += own[span_id] / 1e6
    return table


def write_spans(spans, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for span_id, parent, request_id, name, start, end, attrs in spans:
            handle.write(
                json.dumps(
                    {
                        "id": span_id,
                        "parent": parent,
                        "request": request_id,
                        "name": name,
                        "start_ns": start,
                        "end_ns": end,
                        "attrs": attrs,
                    }
                )
                + "\n"
            )
