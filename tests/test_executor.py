import random
import time

import pytest

from reaper.errors import UnknownToolError
from reaper.executor import (
    CannedCall,
    HttpRetriever,
    RetrieverError,
    StepStatus,
    dependency_graph,
    execute_plan,
    mock_retriever,
)
from reaper.plan import parse_plan

from .httpserve import json_server
from .plangen import generator_registry, random_plan

GALAXY_MOCK = {
    "shipment_status": CannedCall(
        {"text": "order delivered", "product_id": "B0GALAXY"}, 50.0
    ),
    "prod_qna": CannedCall({"text": "128 GB"}, 50.0),
}


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
        assert trace.total_ms == 50.0

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
            assert trace.critical_path_ms <= trace.total_ms <= sum(latencies) + 1e-9
            assert trace.total_ms >= max(latencies)


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
