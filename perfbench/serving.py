"""The serving workloads: one closed-loop client calling the toolkit on every
turn, ``generate_plan`` -> ``validate_plan`` -> ``execute_plan``.

``serve_overhead`` serves 1-6 step plans from a zero-latency scripted stub
and executes them on the zero-latency mock retriever, so every microsecond
is the toolkit's own CPU. ``serve_dag`` serves 3-6 step DAG plans whose
steps really sleep heterogeneous latencies, with seeded retriever errors and
calls that overrun ``timeout_ms``, so only scheduling can move its latency.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass

import reaper.executor as executor
import reaper.gateway as gateway
import reaper.plan as plan_mod
from reaper.evaluation import GoldExample, evaluate
from reaper.executor import CannedCall, RetrieverError, StepStatus, mock_retriever
from reaper.prompt import (
    DEFAULT_EXAMPLE_COUNT,
    DEFAULT_ROLE,
    DEFAULT_SYSTEM_INSTRUCTION,
    PromptSpec,
    QueryInput,
    load_example_pool,
)
from reaper.registry import default_registry

import plans
import tracing

OVERHEAD_PLANS = 48  # 8 of each length 1..6
DAG_PLANS = 192  # 48 of each size 3..6; one pass takes about 20 s
DAG_LATENCY_MS = (5.0, 50.0)
DAG_TIMEOUT_MS = 80.0
DAG_OVERRUN_MS = (10.0, 30.0)
DAG_FAULT_SHARE = 0.04  # of all steps, for errors and again for timeouts


@dataclass(frozen=True)
class Fixture:
    key: str  # the query fragment the scripted stub matches
    query: str
    page_title: str
    context: dict
    plan: plan_mod.Plan
    text: str
    args: tuple  # expected resolved arguments per step
    outcomes: tuple  # expected "ok" | "failed" | "skipped" | "timed_out" per step
    critical_path_ms: float
    deps: tuple  # per step, the steps it references


@dataclass
class Workset:
    name: str
    fixtures: list
    registry: object
    examples: tuple
    backend: object
    retriever: object
    timeout_ms: float | None
    steps_of_call: dict  # key -> {(tool, args): step indices}, for the traced run


def outcome(step) -> str:
    if step.status is StepStatus.FAILED and (step.error or "").startswith("Timeout"):
        return "timed_out"
    return step.status.value


def expected_schedule(plan, deps, latencies, faults, timeout_ms):
    """Outcome per step and the makespan, from the seeded latencies and
    injected faults: a step whose dependency did not succeed is skipped,
    starts when its last dependency finishes, and an overrun counts as
    ``timeout_ms``."""
    outcomes: list[str] = []
    finish: dict[int, float] = {}
    for step, step_deps in zip(plan.steps, deps):
        if any(outcomes[d - 1] != "ok" for d in step_deps):
            outcomes.append("skipped")
            continue
        fault = faults.get(step.index)
        if fault == "error":
            outcomes.append("failed")
            latency = 0.0
        elif fault == "timeout":
            outcomes.append("timed_out")
            latency = float(timeout_ms)
        else:
            outcomes.append("ok")
            latency = latencies.get(step.index, 0.0)
        start = max((finish[d] for d in step_deps), default=0.0)
        finish[step.index] = start + latency
    return tuple(outcomes), max(finish.values(), default=0.0)


def _deps(plan) -> tuple:
    return tuple(
        tuple(sorted({v.step for _, v in step.args if isinstance(v, plan_mod.StepRef)}))
        for step in plan.steps
    )


def _page(rng: random.Random, pid: int) -> tuple[str, dict]:
    title = plans.phrase(rng, 3).title()
    return title, {"product_id": f"CTX{pid:04d}", "page_title": title}


def _overhead_outputs() -> dict:
    return {
        tool: {
            "text": f"{tool} evidence",
            "product_id": f"B0{tool[:4].upper()}01",
            "title": f"{tool} title",
        }
        for tool in plans.RETRIEVING
    }


class SleepingRetriever:
    """Serves each known call after really sleeping its seeded latency;
    injected errors raise at once and unknown calls raise too."""

    def __init__(self, calls: dict):
        self._calls = calls  # (tool, args) -> (latency_ms, fault, output)

    def invoke(self, tool, args):
        try:
            latency, fault, output = self._calls[(tool, tuple(args.items()))]
        except KeyError:
            raise RetrieverError(f"unexpected call {tool}{dict(args)}") from None
        if fault == "error":
            raise RetrieverError("injected fault")
        time.sleep(latency / 1000.0)
        return dict(output), latency


def _serving_parts():
    registry = default_registry()
    pool = [
        ex
        for ex in load_example_pool()
        if all(registry.has_tool(s.tool_name) for s in ex.target_plan.steps)
    ]
    return registry, tuple(pool[:DEFAULT_EXAMPLE_COUNT])


def _stub(fixtures):
    return gateway.ScriptedStub(
        {fx.key: fx.text for fx in fixtures}, default="Step 1: no_retrieval()"
    )


def overhead_fixtures(seed: int) -> list[Fixture]:
    rng = random.Random(f"serve_overhead:{seed}")
    outputs = _overhead_outputs()
    lengths = [1 + i % 6 for i in range(OVERHEAD_PLANS)]
    rng.shuffle(lengths)
    fixtures = []
    for pid, length in enumerate(lengths):
        plan = plans.random_plan(rng, length)
        title, context = _page(rng, pid)
        key = f"[q{pid:04d}]"
        step_outputs = {s.index: outputs.get(s.tool_name) for s in plan.steps}
        deps = _deps(plan)
        outcomes, makespan = expected_schedule(plan, deps, {}, {}, None)
        fixtures.append(
            Fixture(
                key=key,
                query=f"{key} {plans.phrase(rng, 5)}",
                page_title=title,
                context=context,
                plan=plan,
                text=plans.render_text(plan),
                args=tuple(plans.resolve(plan, step_outputs, context)),
                outcomes=outcomes,
                critical_path_ms=makespan,
                deps=deps,
            )
        )
    return fixtures


def dag_fixtures(seed: int) -> tuple[list[Fixture], dict]:
    """DAG fixtures and the sleeping retriever's call table."""
    rng = random.Random(f"serve_dag:{seed}")
    sizes = [3 + i % 4 for i in range(DAG_PLANS)]
    rng.shuffle(sizes)
    drafts = []
    for pid, size in enumerate(sizes):
        plan = plans.dag_plan(rng, size, f"r{pid:04d}")
        low, high = DAG_LATENCY_MS
        # stratified within the plan: every plan mixes fast and slow steps
        latencies = [
            round(low + (high - low) * (j + rng.random()) / size, 3)
            for j in range(size)
        ]
        rng.shuffle(latencies)
        drafts.append((pid, plan, dict(enumerate(latencies, start=1))))
    positions = [(pid, s) for pid, plan, _ in drafts for s in range(1, len(plan) + 1)]
    share = round(DAG_FAULT_SHARE * len(positions))
    chosen = rng.sample(positions, 2 * share)
    faults = {pos: "error" for pos in chosen[:share]}
    faults.update({pos: "timeout" for pos in chosen[share:]})

    fixtures, calls = [], {}
    for pid, plan, latencies in drafts:
        title, context = _page(rng, pid)
        key = f"[q{pid:04d}]"
        step_outputs = {
            s: {
                "text": f"evidence r{pid:04d} s{s}",
                "product_id": f"P{pid:04d}S{s}",
                "title": f"title r{pid:04d} s{s}",
            }
            for s in latencies
        }
        plan_faults = {s: faults[(pid, s)] for s in latencies if (pid, s) in faults}
        for s in plan_faults:
            if plan_faults[s] == "timeout":
                latencies[s] = round(DAG_TIMEOUT_MS + rng.uniform(*DAG_OVERRUN_MS), 3)
        deps = _deps(plan)
        args = tuple(plans.resolve(plan, step_outputs, context))
        for step, step_args in zip(plan.steps, args):
            call = (step.tool_name, step_args)
            if call in calls:
                raise RuntimeError(f"generated call {call} is not unique")
            calls[call] = (
                latencies[step.index], plan_faults.get(step.index), step_outputs[step.index]
            )
        outcomes, makespan = expected_schedule(
            plan, deps, latencies, plan_faults, DAG_TIMEOUT_MS
        )
        fixtures.append(
            Fixture(
                key=key,
                query=f"{key} {plans.phrase(rng, 5)}",
                page_title=title,
                context=context,
                plan=plan,
                text=plans.render_text(plan),
                args=args,
                outcomes=outcomes,
                critical_path_ms=makespan,
                deps=deps,
            )
        )
    return fixtures, calls


def _steps_of_call(fixtures) -> dict:
    table: dict = {}
    for fx in fixtures:
        calls = table.setdefault(fx.key, {})
        for step, args in zip(fx.plan.steps, fx.args):
            calls.setdefault((step.tool_name, args), []).append(step.index)
    return table


def generate(workload: str, seed: int) -> Workset:
    registry, examples = _serving_parts()
    if workload == "serve_overhead":
        fixtures = overhead_fixtures(seed)
        retriever = mock_retriever(
            {tool: CannedCall(out) for tool, out in _overhead_outputs().items()}
        )
        timeout_ms = None
    else:
        fixtures, calls = dag_fixtures(seed)
        retriever = SleepingRetriever(calls)
        timeout_ms = DAG_TIMEOUT_MS
    return Workset(
        workload, fixtures, registry, examples, _stub(fixtures), retriever,
        timeout_ms, _steps_of_call(fixtures),
    )


def serve(ws: Workset, fx: Fixture, backend, retriever):
    """One user turn; returns (plan, violations, trace, wall_ms)."""
    spec = PromptSpec(
        role_text=DEFAULT_ROLE,
        system_instruction=DEFAULT_SYSTEM_INSTRUCTION,
        tools=ws.registry,
        examples=ws.examples,
        input=QueryInput(fx.query, fx.page_title),
    )
    started = time.perf_counter()
    plan, _ = gateway.generate_plan(backend, spec)
    violations = plan_mod.validate_plan(plan, ws.registry)
    trace = executor.execute_plan(
        plan, ws.registry, retriever, timeout_ms=ws.timeout_ms, context=fx.context
    )
    return plan, violations, trace, (time.perf_counter() - started) * 1000.0


def check(fx: Fixture, plan, violations, trace) -> list[str]:
    """Problems with one served request; empty when it is correct."""
    problems = []
    if plan != fx.plan:
        problems.append(f"{fx.key}: served plan differs from its fixture")
    if violations:
        problems.append(f"{fx.key}: {len(violations)} validation violation(s)")
    if len(trace.steps) != len(fx.outcomes):
        return problems + [f"{fx.key}: trace has {len(trace.steps)} steps"]
    for step, want, args in zip(trace.steps, fx.outcomes, fx.args):
        got = outcome(step)
        if got != want:
            problems.append(f"{fx.key} step {step.index}: {got}, expected {want}")
        elif want != "skipped" and step.resolved_args != args:
            problems.append(f"{fx.key} step {step.index}: wrong resolved arguments")
    if trace.critical_path_ms != fx.critical_path_ms:
        problems.append(
            f"{fx.key}: critical_path_ms {trace.critical_path_ms}, "
            f"expected {fx.critical_path_ms}"
        )
    return problems


def check_served_set(ws: Workset, served) -> list[str]:
    """``evaluate`` over one pass of served plans against the fixtures."""
    gold = [
        GoldExample(QueryInput(fx.query, fx.page_title), fx.plan, plans.class_label(fx.plan))
        for fx, _, _, _ in served
    ]
    report = evaluate([plan for _, plan, _, _ in served], gold, ws.registry)
    if report.tool_accuracy != 1.0:
        return [f"evaluate: tool_accuracy {report.tool_accuracy} over {len(gold)} plans"]
    return []


def operations(ws: Workset, recorder=None):
    """The fixtures, the operation that serves one, and the wrappers of a
    traced request. An operation's note is ``(fixture, plan, trace, wall_ms)``."""
    if recorder is None:
        proxies, replacements = None, []
    else:
        proxies = (
            tracing.BackendProxy(ws.backend, recorder),
            tracing.RetrieverProxy(ws.retriever, recorder),
        )
        replacements = tracing.wrapped(recorder, TRACED_FUNCTIONS)

    def operate(fx: Fixture, traced: bool):
        backend, retriever = proxies if traced else (ws.backend, ws.retriever)
        plan, violations, trace, wall_ms = serve(ws, fx, backend, retriever)
        problems = check(fx, plan, violations, trace)
        return wall_ms, len(trace.steps), problems, (fx, plan, trace, wall_ms)

    return ws.fixtures, operate, replacements


def final_checks(ws: Workset, untraced, traced) -> None:
    """On serve_overhead, ``evaluate`` over each phase's first pass counts as
    one more operation of that phase, unless a request of the pass raised."""
    if ws.name != "serve_overhead":
        return
    for phase in (untraced, traced):
        if phase is not None and None not in phase.first_pass:
            phase.record(check_served_set(ws, phase.first_pass))


TRACED_FUNCTIONS = [
    (gateway, "generate_plan", "gateway.generate"),
    (gateway, "build_prompt", "prompt.build"),
    (gateway, "parse_plan", "plan.parse"),
    (plan_mod, "validate_plan", "plan.validate"),
    (executor, "execute_plan", "executor.call"),
]


def layer_metrics(ws: Workset, phase, recorder) -> dict:
    """Per-layer metrics of a traced serving phase."""
    spans = recorder.spans
    own = tracing.self_times_ns(spans)
    by_name: dict[str, list] = {}
    by_request: dict[int, dict[str, list]] = {}
    for span in spans:
        by_name.setdefault(span[3], []).append(span)
        by_request.setdefault(span[2], {}).setdefault(span[3], []).append(span)

    def per_call_us(name, whole=False):
        return tracing.median(
            [(s[5] - s[4] if whole else own[s[0]]) / 1e3 for s in by_name.get(name, [])]
        )

    n = len(ws.fixtures)
    ready, busy, overrun = [], [], []
    for request_id, named in by_request.items():
        fx = ws.fixtures[request_id % n]
        calls = named.get("executor.call", [])
        if len(calls) != 1:
            continue
        call_start = calls[0][4]
        retrievals = sorted(named.get("executor.retriever", []), key=lambda s: s[4])
        ends: dict[int, int] = {}
        pending = {call: list(steps) for call, steps in ws.steps_of_call[fx.key].items()}
        waits = 0
        for span in retrievals:
            indices = pending.get(span[6])
            if not indices:
                continue
            step = indices.pop(0)
            ready_at = max([call_start] + [ends[d] for d in fx.deps[step - 1] if d in ends])
            waits += span[4] - ready_at
            ends[step] = span[5]
        ready.append(waits / 1e6)
        durations_ms = [(s[5] - s[4]) / 1e6 for s in retrievals]
        busy.append(sum(durations_ms))
        if ws.timeout_ms is not None:
            overrun.append(sum(max(0.0, d - ws.timeout_ms) for d in durations_ms))

    served = [note for note in phase.first_pass if note is not None]
    statuses = [outcome(step) for _, _, trace, _ in served for step in trace.steps]
    walls = [wall for _, _, _, wall in served]
    makespans = [trace.critical_path_ms for _, _, trace, _ in served]
    return {
        "prompt.build_us": per_call_us("prompt.build"),
        "gateway.backend_us": per_call_us("gateway.backend"),
        "plan.parse_us": per_call_us("plan.parse"),
        "gateway.generate_us": per_call_us("gateway.generate", whole=True),
        "plan.validate_us": per_call_us("plan.validate"),
        "executor.call_us": per_call_us("executor.call", whole=True),
        "executor.ready_wait_ms": tracing.median(ready),
        "executor.slack_ms": tracing.median([wall - cp for wall, cp in zip(walls, makespans)]),
        "executor.makespan_efficiency": sum(makespans) / sum(walls) if walls else 0.0,
        "executor.overrun_ms": statistics.fmean(overrun) if overrun else 0.0,
        "executor.retriever_busy_ms": tracing.median(busy),
        "executor.steps": len(statuses),
        "executor.steps_failed": statuses.count("failed"),
        "executor.steps_skipped": statuses.count("skipped"),
        "executor.steps_timed_out": statuses.count("timed_out"),
    }
