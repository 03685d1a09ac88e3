import collections
import dataclasses
import fractions
import json
import math
import os
import queue
import random
import signal
import subprocess
import sys
import textwrap
import threading
import time
import types
from collections.abc import Mapping
from pathlib import Path

import numpy
import pytest

import reaper
import reaper.executor as executor_mod
from reaper.errors import UnknownToolError
from reaper.executor import (
    CannedCall,
    ExecutionTrace,
    HttpRetriever,
    RetrieverError,
    StepResult,
    StepStatus,
    dependency_graph,
    execute_plan,
    mock_retriever,
)
from reaper.plan import (
    ContextRef, Literal, Plan, PlanStep, StepRef, _trusted, parse_plan, tool_sequence,
)

from .httpserve import json_server
from .plangen import generator_registry, random_plan

GALAXY_MOCK = {
    "shipment_status": CannedCall(
        {"text": "order delivered", "product_id": "B0GALAXY"}, 50.0
    ),
    "prod_qna": CannedCall({"text": "128 GB"}, 50.0),
}


class _FrozenMapping(Mapping):
    """A user ``Mapping`` that is not a ``dict``."""

    def __init__(self, items):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


class WallClock:
    """``retriever``'s calls without its clock declaration, so that
    ``execute_plan`` dispatches them as wall-clock calls, on the pool."""

    def __init__(self, retriever):
        self._retriever = retriever

    def invoke(self, tool, args):
        return self._retriever.invoke(tool, args)


class TestDependencyGraph:
    def test_two_step_chain(self, galaxy_plan):
        assert dependency_graph(galaxy_plan) == [(1, 2)]

    def test_independent_steps(self):
        plan = parse_plan("Step 1: a()\nStep 2: b()\nStep 3: c()")
        assert dependency_graph(plan) == []

    def test_fan_in(self):
        plan = parse_plan(
            'Step 1: a()\nStep 2: b()\nStep 3: c(x=$1.text, y=$2.text)'
        )
        assert dependency_graph(plan) == [(1, 3), (2, 3)]

    def test_duplicate_refs_collapse_to_one_edge(self):
        plan = parse_plan("Step 1: a()\nStep 2: b(x=$1, y=$1.text)")
        assert dependency_graph(plan) == [(1, 2)]


class TestExecutePlan:
    def test_no_retrieval_with_null_retriever(self, registry):
        trace = execute_plan(parse_plan("Step 1: no_retrieval()"), registry, None)
        step = trace.step(1)
        assert step.status is StepStatus.OK
        assert step.output == {}
        assert step.latency_ms == 0.0

    def test_chained_reference_resolution(self, registry, galaxy_plan):
        trace = execute_plan(galaxy_plan, registry, mock_retriever(GALAXY_MOCK))
        assert trace.step(2).resolved_args == (
            ("product_id", "B0GALAXY"),
            ("query", "memory capacity"),
        )
        assert trace.step(2).status is StepStatus.OK

    def test_timeout_fails_step_and_skips_dependents(self, registry, galaxy_plan):
        slow = dict(GALAXY_MOCK)
        slow["shipment_status"] = CannedCall({"text": "late"}, 5000.0)
        trace = execute_plan(
            galaxy_plan, registry, mock_retriever(slow), timeout_ms=1000
        )
        assert trace.step(1).status is StepStatus.FAILED
        assert "Timeout" in trace.step(1).error
        assert trace.step(1).latency_ms == 1000.0
        assert trace.step(2).status is StepStatus.SKIPPED
        assert len(trace.steps) == 2

    def test_configured_latency_reported(self, registry):
        trace = execute_plan(
            parse_plan('Step 1: prod_qna(product_id="B0X", query="size")'),
            registry,
            mock_retriever({"prod_qna": CannedCall({"text": "ok"}, 50.0)}),
        )
        assert trace.step(1).latency_ms == 50.0

    def test_unconfigured_tool_fails_step(self, registry):
        trace = execute_plan(
            parse_plan('Step 1: prod_search(keywords="mug")'),
            registry,
            mock_retriever({}),
        )
        assert trace.step(1).status is StepStatus.FAILED
        assert "UnconfiguredTool" in trace.step(1).error

    def test_injected_error_fails_step(self, registry):
        trace = execute_plan(
            parse_plan('Step 1: prod_search(keywords="mug")'),
            registry,
            mock_retriever({"prod_search": CannedCall({}, 10.0, error="boom")}),
        )
        assert trace.step(1).status is StepStatus.FAILED
        assert "boom" in trace.step(1).error

    def test_independent_steps_share_the_clock(self, registry):
        plan = parse_plan(
            'Step 1: prod_search(keywords="mug")\n'
            'Step 2: customer_support(query="returns")'
        )
        retriever = mock_retriever(
            {
                "prod_search": CannedCall({"text": "hits"}, 50.0),
                "customer_support": CannedCall({"text": "policy"}, 50.0),
            }
        )
        trace = execute_plan(plan, registry, retriever)
        assert trace.critical_path_ms == 50.0

    def test_chain_accumulates_latency(self, registry, galaxy_plan):
        trace = execute_plan(galaxy_plan, registry, mock_retriever(GALAXY_MOCK))
        assert trace.critical_path_ms == 100.0
        assert trace.step(2).started_ms == trace.step(1).finished_ms == 50.0

    def test_variant_names_canonicalized_for_retriever(self, registry):
        calls = []

        class Spy:
            def invoke(self, tool, args):
                calls.append(tool)
                return {"text": "ok"}, 1.0

        execute_plan(
            parse_plan('Step 1: product_facts(product_id="B0X", query="size")'),
            registry,
            Spy(),
        )
        assert calls == ["prod_qna"]

    def test_bare_reference_uses_text_field(self, registry):
        plan = parse_plan(
            'Step 1: prod_search(keywords="mug")\n'
            "Step 2: prod_qna(product_id=$1, query=$1.text)"
        )
        retriever = mock_retriever(
            {
                "prod_search": CannedCall({"text": "B0MUG"}, 1.0),
                "prod_qna": CannedCall({"text": "11 oz"}, 1.0),
            }
        )
        trace = execute_plan(plan, registry, retriever)
        assert trace.step(2).resolved_args == (
            ("product_id", "B0MUG"),
            ("query", "B0MUG"),
        )

    def test_missing_reference_field_fails_consumer_only(self, registry, galaxy_plan):
        retriever = mock_retriever(
            {
                "shipment_status": CannedCall({"text": "no id here"}, 1.0),
                "prod_qna": CannedCall({"text": "x"}, 1.0),
            }
        )
        trace = execute_plan(galaxy_plan, registry, retriever)
        assert trace.step(1).status is StepStatus.OK
        assert trace.step(2).status is StepStatus.FAILED
        assert "product_id" in trace.step(2).error

    def test_context_reference_resolution(self, registry):
        plan = parse_plan("Step 1: review_summary(product_id=$context.product_id)")
        retriever = mock_retriever(
            {"review_summary": CannedCall({"text": "4.5 stars"}, 1.0)}
        )
        trace = execute_plan(
            plan, registry, retriever, context={"product_id": "B0CTX"}
        )
        assert trace.step(1).resolved_args == (("product_id", "B0CTX"),)
        missing = execute_plan(plan, registry, retriever)
        assert missing.step(1).status is StepStatus.FAILED

    def test_skipped_step_never_resolves_args(self, registry, galaxy_plan):
        trace = execute_plan(galaxy_plan, registry, mock_retriever({}))
        assert trace.step(1).status is StepStatus.FAILED
        assert trace.step(2).status is StepStatus.SKIPPED
        assert trace.step(2).resolved_args == ()
        assert trace.step(2).output is None

    def test_non_string_fields_are_passed_as_json(self, registry):
        plan = parse_plan(
            'Step 1: prod_search(keywords="mug")\n'
            "Step 2: prod_qna(product_id=$1.spec, query=$1.in_stock)\n"
            "Step 3: review_summary(product_id=$1.sizes)"
        )
        output = {"text": "ok", "spec": {"b": "c"}, "in_stock": True, "sizes": [1, "é"]}
        retriever = mock_retriever(
            {
                "prod_search": CannedCall(output, 1.0),
                "prod_qna": CannedCall({"text": "x"}, 1.0),
                "review_summary": CannedCall({"text": "y"}, 1.0),
            }
        )
        trace = execute_plan(plan, registry, retriever)
        assert trace.step(2).resolved_args == (
            ("product_id", '{"b": "c"}'),
            ("query", "true"),
        )
        assert trace.step(3).resolved_args == (("product_id", '[1, "é"]'),)

    def test_unknown_tool_raises_before_any_retriever_call(self, registry):
        calls = []

        class Spy:
            def invoke(self, tool, args):
                calls.append(tool)
                return {"text": "ok"}, 1.0

        plan = parse_plan(
            'Step 1: prod_search(keywords="mug")\nStep 2: compare(query="a vs b")'
        )
        with pytest.raises(UnknownToolError):
            execute_plan(plan, registry, Spy())
        assert calls == []

    @pytest.mark.parametrize("clock", ["simulated", "wall"])
    @pytest.mark.parametrize("timeout_ms", [-5, -0.5, -math.inf])
    def test_negative_budget_raises_before_any_retriever_call(
        self, registry, galaxy_plan, clock, timeout_ms
    ):
        calls = []

        class Spy:
            simulated_clock = clock == "simulated"

            def invoke(self, tool, args):
                calls.append(tool)
                return {"text": "ok", "product_id": "B0X"}, 1.0

        with pytest.raises(ValueError, match="timeout_ms must not be negative"):
            execute_plan(galaxy_plan, registry, Spy(), timeout_ms=timeout_ms)
        assert calls == []


    @pytest.mark.parametrize("timeout_ms", [None, 50])
    @pytest.mark.parametrize("latency", [None, "5", float("nan"), float("inf"), -1.0])
    def test_invalid_latency_fails_step_and_skips_dependents(
        self, registry, galaxy_plan, latency, timeout_ms
    ):
        class BadLatency:
            def invoke(self, tool, args):
                return {"text": "x", "product_id": "B0GALAXY"}, latency

        trace = execute_plan(galaxy_plan, registry, BadLatency(), timeout_ms=timeout_ms)
        assert trace.step(1).status is StepStatus.FAILED
        assert trace.step(1).error == f"RetrieverError: invalid latency {latency!r}"
        assert trace.step(1).latency_ms == 0.0
        assert trace.step(2).status is StepStatus.SKIPPED

    @pytest.mark.parametrize("timeout_ms", [None, 50])
    @pytest.mark.parametrize(
        "latency",
        [7, fractions.Fraction(15, 2), numpy.float64(7.5)],
        ids=["int", "Fraction", "numpy.float64"],
    )
    def test_any_real_latency_is_accepted(
        self, registry, galaxy_plan, latency, timeout_ms
    ):
        class RealLatency:
            def invoke(self, tool, args):
                return {"text": "x", "product_id": "B0GALAXY"}, latency

        trace = execute_plan(galaxy_plan, registry, RealLatency(), timeout_ms=timeout_ms)
        assert [s.status for s in trace.steps] == [StepStatus.OK] * 2
        assert type(trace.step(1).latency_ms) is float
        assert trace.step(1).latency_ms == float(latency)
        assert trace.step(2).finished_ms == 2 * float(latency)

    @pytest.mark.parametrize("timeout_ms", [None, 50])
    @pytest.mark.parametrize(
        "mapping",
        [types.MappingProxyType, collections.OrderedDict, _FrozenMapping],
        ids=["MappingProxyType", "OrderedDict", "Mapping-subclass"],
    )
    def test_any_mapping_output_is_accepted(
        self, registry, galaxy_plan, mapping, timeout_ms
    ):
        class MappingOutput:
            def invoke(self, tool, args):
                return mapping({"text": "x", "product_id": "B0GALAXY"}), 1.0

        trace = execute_plan(galaxy_plan, registry, MappingOutput(), timeout_ms=timeout_ms)
        assert [s.status for s in trace.steps] == [StepStatus.OK] * 2
        assert type(trace.step(1).output) is mapping
        assert ("product_id", "B0GALAXY") in trace.step(2).resolved_args

    @pytest.mark.parametrize(
        "value", [{1, 2}, b"B0", float("nan"), float("inf")], ids=repr
    )
    @pytest.mark.parametrize("consumer", [2, 3], ids=["chain", "fan-out"])
    def test_field_that_is_not_json_fails_its_consumer(
        self, registry, value, consumer
    ):
        # Step 1 makes steps 2 and 3 ready. On the wall clock, the calling
        # thread reads both steps' arguments once step 1's entry comes back
        # from the pool, and submits the one it can resolve.
        field = {2: "product_id", 3: "text"}
        plan = parse_plan(
            'Step 1: prod_search(keywords="mug")\n'
            f"Step 2: prod_qna(product_id=$1.{field[consumer]})\n"
            f"Step 3: prod_qna(product_id=$1.{field[5 - consumer]})\n"
            f"Step 4: review_summary(product_id=${consumer}.text)"
        )
        simulated = mock_retriever(
            {
                "prod_search": CannedCall({"text": "t", "product_id": value}),
                "prod_qna": CannedCall({"text": "t", "product_id": "B0OK"}),
                "review_summary": CannedCall({"text": "t"}),
            }
        )
        for retriever in [simulated, WallClock(simulated)]:
            trace = execute_plan(plan, registry, retriever)
            bad = trace.step(consumer)
            assert bad.status is StepStatus.FAILED
            assert bad.error.startswith(
                "ResolutionError: step 1 field 'product_id' is not JSON: "
            )
            assert bad.resolved_args == ()
            assert trace.step(5 - consumer).status is StepStatus.OK
            assert trace.step(4).status is StepStatus.SKIPPED
            assert trace.step(1).status is StepStatus.OK

    @pytest.mark.parametrize("output", [["a", "b"], "text"], ids=repr)
    def test_output_that_is_not_a_mapping_fails_step(
        self, registry, galaxy_plan, output
    ):
        class Unmapped:
            def invoke(self, tool, args):
                return output, 1.0

        trace = execute_plan(galaxy_plan, registry, Unmapped())
        assert trace.step(1).status is StepStatus.FAILED
        assert trace.step(1).error == (
            f"RetrieverError: output must be a mapping, got {type(output).__name__}"
        )
        assert trace.step(1).output is None
        assert trace.step(2).status is StepStatus.SKIPPED


FAN_OUT_PLAN = (
    'Step 1: prod_search(keywords="mug")\n'
    'Step 2: customer_support(query="returns")\n'
    'Step 3: review_summary(product_id="B0R")\n'
    "Step 4: prod_qna(product_id=$1, query=$2.text)\n"
    "Step 5: shipment_status(query=$3.text)"
)
FAN_OUT_STATUSES = ["ok", "ok", "failed", "ok", "skipped"]


class Sleeping:
    """Sleeps 5-20 ms per call; ``review_summary`` fails."""

    def __init__(self, seed):
        self._rng = random.Random(seed)

    def invoke(self, tool, args):
        latency_ms = self._rng.uniform(5.0, 20.0)
        time.sleep(latency_ms / 1000.0)
        if tool == "review_summary":
            raise RetrieverError("down")
        return {"text": tool}, latency_ms


class Keyed:
    """Sleeps 5-20 ms and reports it, the time drawn from the call's tool
    and arguments, so two runs of a plan report equal latencies whatever
    their order; ``review_summary`` fails. Records each call's tool and
    wall-clock start and finish."""

    def __init__(self):
        self.calls = []

    def invoke(self, tool, args):
        latency_ms = random.Random(repr((tool, sorted(args.items())))).uniform(5, 20)
        started = time.monotonic()
        time.sleep(latency_ms / 1000.0)
        self.calls.append((tool, started, time.monotonic()))
        if tool == "review_summary":
            raise RetrieverError("down")
        return {"text": f"{tool} {sorted(args.items())}"}, latency_ms


def warm_pool(plan, registry):
    """Run ``plan`` from several threads at once against a sleeping
    retriever, so the shared pool ends up with more idle workers than one
    call's fan-out needs."""
    callers = [
        threading.Thread(target=execute_plan, args=(plan, registry, Sleeping(seed)))
        for seed in range(4)
    ]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join(timeout=10)
        assert not caller.is_alive()


class TestDispatch:
    def test_caller_prepares_every_step_and_the_pool_only_calls(
        self, registry, monkeypatch
    ):
        # Steps 4 and 5 become ready when a pool call finishes; the calling
        # thread still reads their arguments (step 5's to skip it).
        prepared, called = [], []
        prepare = executor_mod._prepare

        def spied_prepare(step, *args):
            prepared.append((step.index, threading.get_ident()))
            return prepare(step, *args)

        class Spy(Sleeping):
            def invoke(self, tool, args):
                called.append(threading.get_ident())
                return super().invoke(tool, args)

        monkeypatch.setattr(executor_mod, "_prepare", spied_prepare)
        caller = threading.get_ident()
        trace = execute_plan(parse_plan(FAN_OUT_PLAN), registry, Spy(0))
        assert [s.status.value for s in trace.steps] == FAN_OUT_STATUSES
        assert sorted(prepared) == [(index, caller) for index in range(1, 6)]
        assert len(called) == 4
        assert caller not in called

    def test_steps_posted_one_at_a_time_give_the_whole_plans_trace(self, registry):
        # Each step reaches the scheduler's queue 80 ms after the one before,
        # when every call so far has returned, so the scheduler waits with
        # nothing in flight and no deadline; a step whose producers are
        # recorded is called on arrival.
        plan, timeout_ms = parse_plan(FAN_OUT_PLAN), 1000
        whole = execute_plan(plan, registry, Keyed(), timeout_ms)
        retriever, posts, posted, out = Keyed(), queue.SimpleQueue(), [], []

        def schedule():
            out.append(executor_mod._on_pool(posts, retriever, timeout_ms, None))

        scheduler = threading.Thread(target=schedule, daemon=True)
        scheduler.start()
        for post in zip(plan.steps, tool_sequence(plan, registry)):
            time.sleep(0.08)
            posted.append(time.monotonic())
            posts.put(post)
        posts.put(executor_mod._END)
        scheduler.join(timeout=3)
        assert not scheduler.is_alive(), "the scheduler did not return after the end"
        assert executor_mod._trace(out[0]) == whole
        assert [s.status.value for s in whole.steps] == FAN_OUT_STATUSES
        assert [tool for tool, _, _ in retriever.calls] == [
            "prod_search", "customer_support", "review_summary", "prod_qna"
        ]
        for (_, started, finished), at, after in zip(
            retriever.calls, posted, posted[1:] + [math.inf]
        ):
            assert at <= started < at + 0.03
            assert finished < after

    def test_repeated_fan_out_starts_no_thread(self, registry, monkeypatch):
        plan = parse_plan(FAN_OUT_PLAN)
        warm_pool(plan, registry)
        canned = {tool: CannedCall({"text": "t"}) for tool in registry.canonical_names}
        canned["review_summary"] = CannedCall({}, error="down")
        retriever = WallClock(mock_retriever(canned))
        started = []
        start = threading.Thread.start

        def counted_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        before = {thread.ident for thread in threading.enumerate()}
        for _ in range(200):
            trace = execute_plan(plan, registry, retriever)
            assert [s.status.value for s in trace.steps] == FAN_OUT_STATUSES
        assert started == []
        assert {thread.ident for thread in threading.enumerate()} <= before

    def test_concurrent_callers_all_finish(self, registry):
        # More callers than cores, with up to 32 pool steps in flight, the
        # pool's ceiling: guards the bounded pool's deadlock-freedom.
        plan = parse_plan(FAN_OUT_PLAN)
        traces = [[] for _ in range(16)]

        def caller(slot):
            retriever = Sleeping(slot)
            for _ in range(20):
                traces[slot].append(execute_plan(plan, registry, retriever))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=caller, args=(slot,)) for slot in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for runs in traces:
            assert len(runs) == 20
            for trace in runs:
                assert [s.index for s in trace.steps] == [1, 2, 3, 4, 5]
                assert [s.status.value for s in trace.steps] == FAN_OUT_STATUSES

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_fan_out(self, registry):
        plan = parse_plan(FAN_OUT_PLAN)
        retriever = WallClock(
            mock_retriever(
                {tool: CannedCall({"text": "t"}) for tool in registry.canonical_names}
            )
        )
        warm_pool(plan, registry)
        # Idle workers at the fork are what an inherited pool would count on.
        time.sleep(0.05)
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            try:
                trace = execute_plan(plan, registry, retriever)
                os.write(write_end, str(len(trace.steps)).encode())
            finally:
                os._exit(0)
        os.close(write_end)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if os.waitpid(pid, os.WNOHANG)[0]:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_end)
            pytest.fail("the forked child's plan did not finish within 5 s")
        with os.fdopen(read_end, "rb") as pipe:
            assert pipe.read() == b"5"

    def test_plan_in_flight_at_interpreter_exit_finishes(self):
        # The main thread returns while another thread's plan still has
        # steps to submit; the pool refuses new work from then on, so that
        # thread runs them itself.
        code = textwrap.dedent(
            """
            import threading, time
            from reaper import default_registry, parse_plan
            from reaper.executor import execute_plan

            plan = parse_plan(
                'Step 1: prod_search(keywords="mug")\\n'
                'Step 2: customer_support(query="returns")\\n'
                'Step 3: prod_qna(product_id=$2, query="size")\\n'
                'Step 4: review_summary(product_id=$2)'
            )

            class Slow:
                def invoke(self, tool, args):
                    time.sleep(0.3 if tool == "customer_support" else 0.01)
                    return {"text": tool}, 1.0

            def caller():
                trace = execute_plan(plan, default_registry(), Slow())
                print(*(step.status.value for step in trace.steps))

            threading.Thread(target=caller).start()
            time.sleep(0.05)
            """
        )
        source_root = Path(reaper.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(source_root)}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=10,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["ok"] * 4


class Held:
    """Holds each call of a ``slow`` tool until released or ``hold_s`` has
    passed; other tools answer at once. Records the tools it finished."""

    def __init__(self, slow, hold_s=0.3):
        self.slow, self.hold_s = slow, hold_s
        self.release = threading.Event()
        self.finished = []

    def invoke(self, tool, args):
        if tool in self.slow:
            self.release.wait(self.hold_s)
        self.finished.append(tool)
        return {"text": tool}, 1.0


def run_bounded(*args, **kwargs):
    """``execute_plan`` on its own thread, failing the test if it has not
    returned within 3 s; returns the trace and the wall time."""
    out = []

    def target():
        started = time.perf_counter()
        trace = execute_plan(*args, **kwargs)
        out.append((trace, time.perf_counter() - started))

    caller = threading.Thread(target=target, daemon=True)
    caller.start()
    caller.join(timeout=3)
    assert not caller.is_alive(), "execute_plan did not return within 3 s"
    return out[0]


class TestDeadlines:
    def test_late_call_costs_the_budget_not_its_own_time(self, registry):
        plan = parse_plan(
            'Step 1: prod_search(keywords="mug")\n'
            "Step 2: prod_qna(product_id=$1, query=$1.text)"
        )
        retriever = Held({"prod_search"})
        try:
            trace, elapsed = run_bounded(plan, registry, retriever, timeout_ms=50)
        finally:
            retriever.release.set()
        assert elapsed < 0.2, f"waited {elapsed:.3f} s for a 50 ms budget"
        first, second = trace.steps
        assert first.status is StepStatus.FAILED
        assert first.error.startswith("Timeout: exceeded 50 ms")
        assert first.latency_ms == 50.0
        assert (first.started_ms, first.finished_ms) == (0.0, 50.0)
        assert first.resolved_args == (("keywords", "mug"),)
        assert second.status is StepStatus.SKIPPED
        assert trace.critical_path_ms == 50.0

    def test_late_result_is_dropped_and_does_not_continue(self, registry):
        plan = parse_plan(
            'Step 1: prod_search(keywords="mug")\n'
            "Step 2: prod_qna(product_id=$1, query=$1.text)"
        )
        retriever = Held({"prod_search"})
        trace, _ = run_bounded(plan, registry, retriever, timeout_ms=20)
        retriever.release.set()
        time.sleep(0.05)
        assert retriever.finished == ["prod_search"]
        assert trace.step(1).output is None
        assert trace.step(2).status is StepStatus.SKIPPED

    def test_timed_out_branch_keeps_the_other_branch(self, registry):
        plan = parse_plan(
            'Step 1: prod_search(keywords="mug")\n'
            'Step 2: customer_support(query="returns")\n'
            'Step 3: prod_qna(product_id=$1, query="size")\n'
            "Step 4: review_summary(product_id=$2)"
        )
        retriever = Held({"customer_support"})
        try:
            trace, elapsed = run_bounded(plan, registry, retriever, timeout_ms=50)
        finally:
            retriever.release.set()
        assert elapsed < 0.2
        assert [s.status.value for s in trace.steps] == ["ok", "failed", "ok", "skipped"]
        assert trace.step(2).error.startswith("Timeout")
        assert trace.step(1).output == {"text": "prod_search"}
        assert trace.step(3).output == {"text": "prod_qna"}
        assert trace.critical_path_ms == 50.0

    def test_reported_latency_over_budget_still_fails(self, registry):
        class Fast:
            def invoke(self, tool, args):
                return {"text": tool}, 500.0

        trace, _ = run_bounded(
            parse_plan('Step 1: prod_search(keywords="mug")'), registry, Fast(),
            timeout_ms=50,
        )
        assert trace.step(1).error == (
            "Timeout: exceeded 50 ms (retriever took 500.0 ms)"
        )

    @pytest.mark.parametrize("timeout_ms", [math.inf, 1e300, math.nan])
    def test_budget_without_a_reachable_deadline(self, registry, timeout_ms):
        class Fast:
            def invoke(self, tool, args):
                return {"text": tool}, 5.0

        trace, _ = run_bounded(
            parse_plan('Step 1: prod_search(keywords="mug")'), registry, Fast(),
            timeout_ms=timeout_ms,
        )
        assert trace.step(1).status is StepStatus.OK

    def test_abandoned_calls_beyond_the_pool_do_not_stall_callers(self, registry):
        # 16 callers x 3 roots held past their budget: 48 abandoned calls
        # against the pool's 32 workers, so some steps time out queued.
        plan = parse_plan(
            'Step 1: prod_search(keywords="mug")\n'
            'Step 2: customer_support(query="returns")\n'
            'Step 3: review_summary(product_id="B0X")\n'
            "Step 4: prod_qna(product_id=$1, query=$2.text)"
        )
        retriever = Held(set(registry.canonical_names), hold_s=5.0)
        traces = [[] for _ in range(16)]

        def caller(slot):
            for _ in range(3):
                traces[slot].append(
                    execute_plan(plan, registry, retriever, timeout_ms=30)
                )

        threads = [threading.Thread(target=caller, args=(slot,)) for slot in range(16)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            retriever.release.set()
        for runs in traces:
            assert len(runs) == 3
            for trace in runs:
                statuses = [s.status.value for s in trace.steps]
                assert statuses == ["failed"] * 3 + ["skipped"]
                assert all(s.error.startswith("Timeout") for s in trace.steps[:3])

    def test_steps_behind_a_failed_step_never_reach_the_pool(
        self, registry, monkeypatch
    ):
        # A pool that records every step it is given and runs it on a thread
        # of its own: steps 2-5 depend on a failed or skipped step, and are
        # skipped without being submitted.
        class Recording:
            def __init__(self):
                self.submitted = []

            def submit(self, function, *args):
                self.submitted.append(args)
                threading.Thread(target=function, args=args, daemon=True).start()

        pool = Recording()
        monkeypatch.setattr(executor_mod, "_shared_pool", lambda: pool)
        calls = []

        class Down:
            def invoke(self, tool, args):
                calls.append(tool)
                raise RetrieverError("down")

        plan = parse_plan(
            'Step 1: prod_search(keywords="mug")\n'
            "Step 2: prod_qna(product_id=$1)\n"
            "Step 3: review_summary(product_id=$1)\n"
            "Step 4: prod_qna(product_id=$2)\n"
            "Step 5: review_summary(product_id=$2)"
        )
        trace = execute_plan(plan, registry, Down(), timeout_ms=20)
        assert calls == ["prod_search"]
        assert pool.submitted == [(0,)]  # step 1 only
        assert [(s.status, s.error) for s in trace.steps] == [
            (StepStatus.FAILED, "RetrieverError: down"),
            (StepStatus.SKIPPED, "skipped: depends on step(s) 1"),
            (StepStatus.SKIPPED, "skipped: depends on step(s) 1"),
            (StepStatus.SKIPPED, "skipped: depends on step(s) 2"),
            (StepStatus.SKIPPED, "skipped: depends on step(s) 2"),
        ]

    def test_concurrent_callers_keep_one_entry_per_step(self, registry):
        # A budget inside the retriever's 5-20 ms spread, so that some steps
        # time out while others finish, from more callers than cores.
        plan = parse_plan(FAN_OUT_PLAN)
        parents = {step.index: [] for step in plan.steps}
        for producer, consumer in dependency_graph(plan):
            parents[consumer].append(producer)
        traces = [[] for _ in range(16)]

        def caller(slot):
            retriever = Sleeping(slot)
            for _ in range(10):
                traces[slot].append(
                    execute_plan(plan, registry, retriever, timeout_ms=12)
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=caller, args=(slot,)) for slot in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        statuses = set()
        for runs in traces:
            assert len(runs) == 10
            for trace in runs:
                assert [s.index for s in trace.steps] == [1, 2, 3, 4, 5]
                for step in trace.steps:
                    blocked = [
                        k for k in parents[step.index]
                        if trace.step(k).status is not StepStatus.OK
                    ]
                    assert (step.status is StepStatus.SKIPPED) == bool(blocked)
                    failed = step.status is StepStatus.FAILED
                    if failed and step.tool != "review_summary":
                        assert step.error.startswith("Timeout: exceeded 12 ms")
                        assert step.latency_ms == 12.0
                    statuses.add((step.status, (step.error or "")[:7]))
        assert (StepStatus.FAILED, "Timeout") in statuses
        assert (StepStatus.OK, "") in statuses

    def test_simulated_latency_gets_no_wall_clock_deadline(self, registry, galaxy_plan):
        slow = dict(GALAXY_MOCK)
        slow["shipment_status"] = CannedCall({"text": "late"}, 5000.0)
        retriever = mock_retriever(slow)
        started = time.perf_counter()
        texts = {
            repr(execute_plan(galaxy_plan, registry, retriever, timeout_ms=1000))
            for _ in range(100)
        }
        assert time.perf_counter() - started < 1.0
        assert len(texts) == 1
        (text,) = texts
        assert "retriever took 5000.0 ms" in text

    def test_simulated_chain_runs_in_the_calling_thread(self, registry, galaxy_plan):
        threads = []

        class Simulated:
            simulated_clock = True

            def invoke(self, tool, args):
                threads.append(threading.get_ident())
                return {"text": "t", "product_id": "p"}, 5.0

        trace = execute_plan(galaxy_plan, registry, Simulated(), timeout_ms=1)
        assert [s.status for s in trace.steps] == [StepStatus.FAILED, StepStatus.SKIPPED]
        assert threads == [threading.get_ident()]


class Boom(BaseException):
    pass


@pytest.mark.parametrize("timeout_ms", [None, 1000])
def test_base_exception_on_a_pool_thread_fails_its_step(registry, timeout_ms):
    # A wall-clock retriever runs both roots on the pool, with a budget or
    # without.
    plan = parse_plan(
        'Step 1: prod_search(keywords="mug")\n'
        'Step 2: customer_support(query="returns")'
    )

    class Raising:
        def invoke(self, tool, args):
            if tool == "customer_support":
                raise Boom("out of band")
            return {"text": tool}, 1.0

    trace, _ = run_bounded(plan, registry, Raising(), timeout_ms=timeout_ms)
    assert [s.status for s in trace.steps] == [StepStatus.OK, StepStatus.FAILED]
    assert trace.step(2).error == "Boom: out of band"


def test_base_exception_in_the_calling_thread_propagates(registry):
    class Raising:
        simulated_clock = True

        def invoke(self, tool, args):
            raise Boom("out of band")

    with pytest.raises(Boom):
        execute_plan(
            parse_plan('Step 1: prod_search(keywords="mug")'), registry, Raising()
        )


class TestTimingInvariants:
    def test_random_plans_respect_dependencies(self):
        rng = random.Random(1234)
        registry = generator_registry()
        for _ in range(50):
            plan = random_plan(rng)
            retriever = mock_retriever(
                {
                    name: CannedCall(
                        {"text": "t", "product_id": "p", "a": {"b": "c"}},
                        latency_ms=rng.choice([0.0, 5.0, 50.0, 250.0]),
                    )
                    for name in registry.canonical_names
                }
            )
            trace = execute_plan(
                plan, registry, retriever, context={"product_id": "x", "page_title": "y"}
            )
            assert len(trace.steps) == len(plan.steps)
            by_index = {s.index: s for s in trace.steps}
            for producer, consumer in dependency_graph(plan):
                if by_index[consumer].status is StepStatus.OK:
                    assert (
                        by_index[consumer].started_ms
                        >= by_index[producer].finished_ms
                    )
            latencies = [s.latency_ms for s in trace.steps]
            assert max(latencies) <= trace.critical_path_ms <= sum(latencies) + 1e-9

    @pytest.mark.parametrize("timeout_ms", [None, 1000])
    def test_both_dispatch_rules_give_the_same_trace(self, timeout_ms):
        # Failed, timed-out, unconfigured and unresolvable steps included, so
        # that skips and their reasons are compared too.
        rng = random.Random(4321)
        registry = generator_registry()
        for _ in range(100):
            plan = random_plan(rng)
            simulated = mock_retriever(
                {
                    name: CannedCall(
                        {"text": "t", "product_id": "p", "a": {"b": "c"}},
                        latency_ms=rng.choice([0.0, 5.0, 50.0, 2500.0]),
                        error="down" if rng.random() < 0.1 else None,
                    )
                    for name in registry.canonical_names
                    if rng.random() < 0.9
                }
            )
            context = rng.choice([None, {"product_id": "x", "page_title": "y"}])
            inline, pooled = (
                execute_plan(plan, registry, retriever, timeout_ms, context)
                for retriever in (simulated, WallClock(simulated))
            )
            assert repr(pooled) == repr(inline)


@pytest.mark.parametrize(
    "rule", [mock_retriever, lambda calls: WallClock(mock_retriever(calls))],
    ids=["simulated", "wall-clock"],
)
class TestOrderingRules:
    def test_skip_beats_failure(self, registry, rule):
        # the first argument cannot be resolved, a later one names a failed step
        plan = parse_plan(
            'Step 1: prod_search(keywords="mug")\n'
            "Step 2: prod_qna(product_id=$context.missing, query=$1)"
        )
        retriever = rule({"prod_search": CannedCall({}, 5.0, error="down")})
        trace = execute_plan(plan, registry, retriever, context={"page_title": "t"})
        assert trace.step(1).status is StepStatus.FAILED
        assert (trace.step(2).status, trace.step(2).error) == (
            StepStatus.SKIPPED, "skipped: depends on step(s) 1"
        )
        assert trace.step(2).resolved_args == ()

    def test_start_counts_producers_after_the_failing_argument(self, registry, rule):
        # two unresolvable arguments: the first names the error; step 2,
        # referenced after both, still sets the start
        plan = parse_plan(
            'Step 1: prod_search(keywords="mug")\n'
            'Step 2: customer_support(query="returns")\n'
            "Step 3: prod_qna(product_id=$1.missing, query=$context.absent, "
            "aspect=$2)"
        )
        retriever = rule({
            "prod_search": CannedCall({"text": "t"}, 10.0),
            "customer_support": CannedCall({"text": "t"}, 250.0),
        })
        failed = execute_plan(plan, registry, retriever).step(3)
        assert failed.status is StepStatus.FAILED
        assert failed.error == "ResolutionError: step 1 output has no field 'missing'"
        assert (failed.started_ms, failed.finished_ms) == (250.0, 250.0)
        assert failed.resolved_args == ()

    def test_skip_reason_lists_each_blocked_step_once_ascending(self, registry, rule):
        plan = parse_plan(
            'Step 1: prod_search(keywords="mug")\n'
            'Step 2: review_summary(product_id="B0R")\n'
            "Step 3: prod_qna(b=$2, a=$1, c=$2)"
        )
        retriever = rule({
            "prod_search": CannedCall({}, error="down"),
            "review_summary": CannedCall({}, error="down"),
        })
        trace = execute_plan(plan, registry, retriever)
        assert trace.step(3).error == "skipped: depends on step(s) 1, 2"


class _CountingArgs(tuple):
    """A step's arguments that count how often they are iterated."""

    def __new__(cls, items):
        args = super().__new__(cls, items)
        args.iterations = 0
        return args

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_inline_rule_reads_each_steps_arguments_once(registry):
    # Every kind of argument and outcome: OK, a failed call, a resolution
    # error, a skip, no_retrieval and a step without arguments.
    spec = [
        ("prod_search", [("keywords", Literal("mug"))]),
        ("customer_support", [("query", ContextRef("page_title"))]),
        ("review_summary", [("product_id", StepRef(1, "product_id"))]),
        ("prod_qna", [("product_id", StepRef(1, "missing")), ("query", StepRef(2))]),
        ("shipment_status", [("query", StepRef(3)), ("order", StepRef(4))]),
        ("no_retrieval", []),
    ]
    steps = tuple(
        _trusted(PlanStep, {
            "index": index, "tool_name": tool, "args": _CountingArgs(args)
        })
        for index, (tool, args) in enumerate(spec, start=1)
    )
    plan = Plan(steps)
    retriever = mock_retriever({
        "prod_search": CannedCall({"text": "t", "product_id": "B0"}, 5.0),
        "customer_support": CannedCall({"text": "t"}, 7.0),
        "review_summary": CannedCall({}, error="down"),
    })
    for calls in (1, 2):
        trace = execute_plan(plan, registry, retriever, context={"page_title": "t"})
        assert [s.status.value for s in trace.steps] == [
            "ok", "ok", "failed", "failed", "skipped", "ok"
        ]
        assert [step.args.iterations for step in steps] == [calls] * len(steps)


# Random plans the inline oracle test checks: about 0.1 s of tier-1 time.
ORACLE_PLANS = 300


def _oracle_field(output, path):
    """``path`` read from ``output`` as ``$k.path`` text, or None if absent."""
    value = output
    for part in path.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value if isinstance(value, str) else json.dumps(value, ensure_ascii=False)


def _oracle_trace(plan, calls, timeout_ms, context):
    """The trace ``execute_plan`` must return for ``plan`` on
    ``mock_retriever(calls)``, worked out step by step from the documented
    contract and built with the public constructors."""
    entries = []
    for step in plan.steps:
        needed = sorted({v.step for _, v in step.args if isinstance(v, StepRef)})
        blocked = [k for k in needed if entries[k - 1].status is not StepStatus.OK]
        if blocked:
            reason = "skipped: depends on step(s) " + ", ".join(map(str, blocked))
            entries.append(StepResult(
                step.index, step.tool_name, (), None, 0.0, StepStatus.SKIPPED, reason
            ))
            continue
        started = max([entries[k - 1].finished_ms for k in needed], default=0.0)
        args, error = [], None
        for name, value in step.args:
            if isinstance(value, Literal):
                args.append((name, value.text))
            elif isinstance(value, StepRef):
                path = value.field or "text"
                text = _oracle_field(entries[value.step - 1].output, path)
                if text is None:
                    error = (
                        f"ResolutionError: step {value.step} output has no "
                        f"field {path!r}"
                    )
                    break
                args.append((name, text))
            elif context is None or value.field not in context:
                error = f"ResolutionError: no context field {value.field!r} available"
                break
            else:
                args.append((name, context[value.field]))
        if error is not None:  # an unresolved step holds no arguments
            args = []
        call = calls.get(step.tool_name)
        if error is None and call is None:
            error = f"UnconfiguredToolError: no canned output for tool {step.tool_name!r}"
        elif error is None and call.error is not None:
            error = f"RetrieverError: {call.error}"
        if error is not None:
            entries.append(StepResult(
                step.index, step.tool_name, tuple(args), None, 0.0,
                StepStatus.FAILED, error, started, started,
            ))
        elif timeout_ms is not None and call.latency_ms > timeout_ms:
            entries.append(StepResult(
                step.index, step.tool_name, tuple(args), None, float(timeout_ms),
                StepStatus.FAILED,
                f"Timeout: exceeded {timeout_ms} ms (retriever took "
                f"{call.latency_ms} ms)",
                started, started + timeout_ms,
            ))
        else:
            entries.append(StepResult(
                step.index, step.tool_name, tuple(args), dict(call.output),
                call.latency_ms, StepStatus.OK, None, started,
                started + call.latency_ms,
            ))
    finished = [e.finished_ms for e in entries if e.finished_ms is not None]
    return ExecutionTrace(tuple(entries), max(finished, default=0.0))


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:  # an entry holding an output dict
        return str(exc)


def test_inline_rule_matches_an_independent_oracle():
    # Canned latencies, injected errors, unconfigured tools, outputs missing
    # a referenced field, budgets that some latencies meet or exceed (an int one,
    # and NaN and infinity, which set none), with and without a context.
    rng = random.Random(2718)
    registry = generator_registry()
    seen = collections.Counter()
    for _ in range(ORACLE_PLANS):
        plan = random_plan(rng)
        calls = {}
        for name in registry.canonical_names:
            if rng.random() < 0.1:
                continue
            output = {"text": "t", "product_id": "p", "a": {"b": "c"}}
            if rng.random() < 0.2:
                del output[rng.choice(["text", "product_id", "a"])]
            calls[name] = CannedCall(
                output,
                latency_ms=rng.choice([0.0, 2.5, 5.0, 40.0, 50.0, 250.0]),
                error="down" if rng.random() < 0.1 else None,
            )
        timeout_ms = rng.choice([None, None, 100, 40.0, math.nan, math.inf])
        context = rng.choice([None, {"product_id": "x", "page_title": "y"}])
        trace = execute_plan(plan, registry, mock_retriever(calls), timeout_ms, context)
        expected = _oracle_trace(plan, calls, timeout_ms, context)
        assert trace == expected
        assert repr(trace) == repr(expected)
        assert _hash_or_error(trace) == _hash_or_error(expected)
        for got, want in zip(trace.steps, expected.steps):
            seen[(want.status, (want.error or "").split(":")[0])] += 1
            assert repr(got) == repr(want)
            assert _hash_or_error(got) == _hash_or_error(want)
            assert dataclasses.replace(got) == want
            assert dataclasses.replace(got, error="e") == dataclasses.replace(
                want, error="e"
            )
        rebuilt = dataclasses.replace(trace, critical_path_ms=-1.0)
        assert rebuilt == dataclasses.replace(expected, critical_path_ms=-1.0)
    # every kind of outcome came up
    assert {error for status, error in seen if status is StepStatus.FAILED} == {
        "ResolutionError", "UnconfiguredToolError", "RetrieverError", "Timeout"
    }
    assert {status for status, _ in seen} == set(StepStatus)


def test_independent_steps_dispatch_concurrently(registry):
    import time as _time

    plan = parse_plan(
        'Step 1: prod_search(keywords="mug")\n'
        'Step 2: customer_support(query="returns")'
    )

    class SlowRetriever:
        def invoke(self, tool, args):
            _time.sleep(0.15)
            return {"text": tool}, 150.0

    started = _time.perf_counter()
    trace = execute_plan(plan, registry, SlowRetriever())
    elapsed = _time.perf_counter() - started
    assert all(s.status is StepStatus.OK for s in trace.steps)
    # two 150 ms calls overlapping: well under the 300 ms sequential cost
    assert elapsed < 0.28, f"independent steps ran sequentially ({elapsed:.3f}s)"


def test_ready_step_starts_when_its_last_dependency_finishes(registry):
    plan = parse_plan(
        'Step 1: prod_search(keywords="mug")\n'
        'Step 2: customer_support(query="returns")\n'
        'Step 3: prod_qna(product_id=$1, query="size")'
    )
    latency_ms = {"prod_search": 20.0, "customer_support": 200.0, "prod_qna": 150.0}

    class SleepingRetriever:
        def invoke(self, tool, args):
            time.sleep(latency_ms[tool] / 1000.0)
            return {"text": tool}, latency_ms[tool]

    started = time.perf_counter()
    trace = execute_plan(plan, registry, SleepingRetriever())
    elapsed = time.perf_counter() - started
    assert all(s.status is StepStatus.OK for s in trace.steps)
    assert trace.critical_path_ms == 200.0
    # step 3 runs alongside step 2 (20 + 150 < 200), not after it (350 ms)
    assert elapsed < 0.30, f"step 3 waited for step 2 ({elapsed:.3f}s)"


class TestHttpRetriever:
    def test_round_trip_with_reference_chaining(self, registry, galaxy_plan):
        def handler(path, body):
            if path == "/shipment_status":
                return 200, {"text": "order found", "product_id": "B0HTTP"}
            if path == "/prod_qna":
                assert body == {"product_id": "B0HTTP", "query": "memory capacity"}
                return 200, {"text": "256 GB"}
            return 404, {}

        with json_server(handler) as url:
            trace = execute_plan(galaxy_plan, registry, HttpRetriever(url))
        assert trace.step(2).status is StepStatus.OK
        assert trace.step(2).output["text"] == "256 GB"
        assert trace.step(1).latency_ms > 0.0

    def test_non_200_fails_step(self, registry):
        with json_server(lambda path, body: (500, {"err": "x"})) as url:
            trace = execute_plan(
                parse_plan('Step 1: prod_search(keywords="mug")'),
                registry,
                HttpRetriever(url),
            )
        assert trace.step(1).status is StepStatus.FAILED
        assert "HTTP 500" in trace.step(1).error

    def test_dead_endpoint_raises_retriever_error(self):
        retriever = HttpRetriever("http://127.0.0.1:9", timeout_ms=200)
        with pytest.raises(RetrieverError):
            retriever.invoke("prod_search", {"keywords": "mug"})

    def test_response_must_carry_text_field(self):
        with json_server(lambda path, body: (200, {"items": []})) as url:
            with pytest.raises(RetrieverError, match="text"):
                HttpRetriever(url).invoke("prod_search", {"keywords": "mug"})
