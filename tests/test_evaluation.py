import pytest

from reaper.errors import ReaperError
from reaper.evaluation import (
    EmptyDenominatorError,
    GoldExample,
    LengthMismatchError,
    UnknownGoldClassError,
    argument_accuracy,
    evaluate,
    instruction_following_score,
    latency_bench,
    predicted_class,
    tool_selection_metrics,
)
from reaper.executor import CannedCall, mock_retriever
from reaper.plan import LabeledPlanError, parse_plan
from reaper.prompt import QueryInput


def gold(query, plan_text, class_label):
    return GoldExample(QueryInput(query), parse_plan(plan_text), class_label)


GOLD_SET = [
    gold("where is my order", 'Step 1: shipment_status(query="mug order")', "shipment_status"),
    gold("running shoes", 'Step 1: prod_search(keywords="running shoes")', "product_search"),
    gold("hi there", "Step 1: no_retrieval()", "no_retrieval"),
    gold(
        "memory on my phone",
        'Step 1: shipment_status(query="phone order")\n'
        'Step 2: prod_qna(product_id=$1.product_id, query="memory")',
        "shipment_status",
    ),
]
PERFECT = [example.gold_plan for example in GOLD_SET]


class TestToolSelection:
    def test_all_correct(self, registry):
        report = tool_selection_metrics(PERFECT, GOLD_SET, registry)
        assert report.tool_accuracy == 1.0
        for metrics in report.per_class.values():
            assert (metrics.precision, metrics.recall, metrics.f1) == (1.0, 1.0, 1.0)
        assert sum(m.support for m in report.per_class.values()) == len(GOLD_SET)

    def test_wrong_order_is_incorrect(self, registry):
        plans = list(PERFECT)
        plans[3] = parse_plan(
            'Step 1: prod_qna(product_id="B0X", query="memory")\n'
            'Step 2: shipment_status(query="phone order")'
        )
        report = tool_selection_metrics(plans, GOLD_SET, registry)
        assert report.tool_accuracy == 0.75

    def test_variant_names_are_not_errors(self, registry):
        plans = list(PERFECT)
        plans[0] = parse_plan('Step 1: order_status(query="mug order")')
        report = tool_selection_metrics(plans, GOLD_SET, registry)
        assert report.tool_accuracy == 1.0

    def test_unparseable_prediction_counts_as_invalid(self, registry):
        plans = list(PERFECT)
        plans[2] = None
        report = tool_selection_metrics(plans, GOLD_SET, registry)
        assert report.tool_accuracy == 0.75
        assert report.confusion["no_retrieval"]["invalid"] == 1
        assert report.per_class["invalid"].support == 0

    def test_hallucinated_tool_is_invalid_class(self, registry):
        plans = list(PERFECT)
        plans[1] = parse_plan("Step 1: compare()")
        report = tool_selection_metrics(plans, GOLD_SET, registry)
        assert report.confusion["product_search"]["invalid"] == 1

    @pytest.mark.parametrize("score", [tool_selection_metrics, argument_accuracy])
    def test_length_mismatch(self, registry, score):
        with pytest.raises(LengthMismatchError):
            score(PERFECT[:2], GOLD_SET, registry)

    def test_report_reconstructable_from_confusion(self, registry):
        plans = list(PERFECT)
        plans[0] = parse_plan("Step 1: no_retrieval()")
        report = tool_selection_metrics(plans, GOLD_SET, registry)
        labels = set(report.per_class)
        for label in labels:
            support = sum(report.confusion.get(label, {}).values())
            predicted = sum(
                row.get(label, 0) for row in report.confusion.values()
            )
            tp = report.confusion.get(label, {}).get(label, 0)
            precision = tp / predicted if predicted else 0.0
            recall = tp / support if support else 0.0
            assert abs(report.per_class[label].precision - precision) < 1e-12
            assert abs(report.per_class[label].recall - recall) < 1e-12


class TestPredictedClass:
    def test_first_evidence_tool_decides(self, registry):
        plan = parse_plan(
            'Step 1: shipment_status(query="q")\n'
            'Step 2: prod_qna(product_id=$1, query="m")'
        )
        assert predicted_class(plan, registry) == "shipment_status"

    def test_pure_no_retrieval(self, registry):
        assert predicted_class(parse_plan("Step 1: no_retrieval()"), registry) == (
            "no_retrieval"
        )

    def test_invalid(self, registry):
        assert predicted_class(None, registry) == "invalid"
        assert predicted_class(parse_plan("Step 1: compare()"), registry) == "invalid"

    def test_hallucinated_later_step_keeps_primary_class(self, registry):
        plan = parse_plan('Step 1: shipment_status(query="q")\nStep 2: compare()')
        assert predicted_class(plan, registry) == "shipment_status"
        # but the sequence is still incorrect against any gold
        report = tool_selection_metrics(
            [plan],
            [gold("q", 'Step 1: shipment_status(query="q")', "shipment_status")],
            registry,
        )
        assert report.tool_accuracy == 0.0
        assert report.confusion["shipment_status"]["shipment_status"] == 1


class TestArgumentAccuracy:
    def test_all_exact(self, registry):
        assert argument_accuracy(PERFECT, GOLD_SET, registry) == 1.0

    def test_case_fold_and_trim_match(self, registry):
        plans = list(PERFECT)
        plans[0] = parse_plan('Step 1: shipment_status(query=" Mug Order ")')
        assert argument_accuracy(plans, GOLD_SET, registry) == 1.0

    def test_rewrite_error_counted(self, registry):
        plans = list(PERFECT)
        plans[1] = parse_plan('Step 1: prod_search(keywords="trail shoes")')
        # 3 qualifying examples (indices 0, 1, 3), one mismatch
        assert argument_accuracy(plans, GOLD_SET, registry) == pytest.approx(2 / 3)

    def test_non_qualifying_examples_excluded(self, registry):
        plans = list(PERFECT)
        plans[2] = parse_plan('Step 1: customer_support(query="greeting")')
        assert argument_accuracy(plans, GOLD_SET, registry) == 1.0

    def test_empty_denominator(self, registry):
        only_chat = [gold("hello", "Step 1: no_retrieval()", "no_retrieval")]
        with pytest.raises(EmptyDenominatorError):
            argument_accuracy(
                [only_chat[0].gold_plan], only_chat, registry
            )


class TestInstructionFollowing:
    def make_plans(self, violations, total, registry):
        plans = []
        for i in range(total):
            if i < violations:
                # every other violation uses a variant name; both must count
                text = (
                    'Step 1: prod_qna(product_id="B0X", query="q")'
                    if i % 2 == 0
                    else 'Step 1: product_facts(product_id="B0X", query="q")'
                )
            else:
                text = "Step 1: no_retrieval()"
            plans.append(parse_plan(text))
        return plans

    def test_no_violations_scores_one(self, registry):
        plans = self.make_plans(0, 100, registry)
        assert instruction_following_score(plans, "prod_qna", registry) == 1.0

    def test_24_of_100_scores_076(self, registry):
        plans = self.make_plans(24, 100, registry)
        assert instruction_following_score(plans, "prod_qna", registry) == 0.76

    def test_all_violations_scores_zero(self, registry):
        plans = self.make_plans(100, 100, registry)
        assert instruction_following_score(plans, "prod_qna", registry) == 0.0

    def test_monotone_in_violations(self, registry):
        scores = [
            instruction_following_score(
                self.make_plans(v, 10, registry), "prod_qna", registry
            )
            for v in range(11)
        ]
        assert scores == sorted(scores, reverse=True)
        assert all(s in {i / 10 for i in range(11)} for s in scores)

    def test_empty_predictions_rejected(self, registry):
        with pytest.raises(EmptyDenominatorError):
            instruction_following_score([], "prod_qna", registry)

    def test_an_unknown_tool_does_not_hide_the_omitted_one(self, registry):
        plans = [
            parse_plan('Step 1: prod_qna(product_id="B0X", query="q")'),
            parse_plan(
                'Step 1: compare_prices(query="x")\n'
                'Step 2: product_facts(product_id="B0X", query="q")'
            ),
            parse_plan(
                'Step 1: compare_prices(query="x")\n'
                'Step 2: prod_search(keywords="x")'
            ),
            None,
        ]
        assert instruction_following_score(plans, "prod_qna", registry) == 0.5


def chain_retriever(latency=50.0):
    return mock_retriever(
        {
            "shipment_status": CannedCall(
                {"text": "ok", "product_id": "B0X"}, latency
            ),
            "prod_qna": CannedCall({"text": "ok", "product_id": "B0X"}, latency),
            "review_summary": CannedCall({"text": "ok"}, latency),
            "prod_search": CannedCall({"text": "ok"}, latency),
            "customer_support": CannedCall({"text": "ok"}, latency),
        }
    )


THREE_CHAIN = (
    'Step 1: shipment_status(query="order")\n'
    "Step 2: prod_qna(product_id=$1.product_id, query=\"size\")\n"
    "Step 3: review_summary(product_id=$2.product_id)"
)


class TestLatencyBench:
    def test_three_step_chain_headline_numbers(self, registry):
        stats = latency_bench(
            parse_plan(THREE_CHAIN), 207.0, 2000.0, chain_retriever(), registry
        )
        assert stats.single_shot_ms == 357.0
        assert stats.interleaved_ms == 6150.0
        assert abs(stats.speedup - 17.23) < 0.01

    def test_single_step_equal_latencies_no_speedup(self, registry):
        stats = latency_bench(
            parse_plan('Step 1: prod_search(keywords="mug")'),
            500.0,
            500.0,
            chain_retriever(),
            registry,
        )
        assert stats.speedup == 1.0

    def test_two_independent_steps_run_in_parallel(self, registry):
        plan = parse_plan(
            'Step 1: prod_search(keywords="mug")\n'
            'Step 2: customer_support(query="returns")'
        )
        stats = latency_bench(plan, 207.0, 2000.0, chain_retriever(), registry)
        assert stats.single_shot_ms == 257.0
        assert stats.interleaved_ms == 4100.0

    def test_speedup_exceeds_one_for_chains(self, registry):
        for llm_step in (207.0, 500.0, 2000.0):
            stats = latency_bench(
                parse_plan(THREE_CHAIN), 207.0, llm_step, chain_retriever(), registry
            )
            assert stats.speedup > 1.0

    @pytest.mark.parametrize(
        "single, step, name",
        [
            (-100.0, 2000.0, "llm_latency_single_ms"),
            (float("nan"), 2000.0, "llm_latency_single_ms"),
            (207.0, float("inf"), "llm_latency_per_step_ms"),
            (207.0, -1.0, "llm_latency_per_step_ms"),
        ],
    )
    def test_latency_that_is_negative_or_not_finite_rejected(
        self, registry, single, step, name
    ):
        with pytest.raises(ValueError, match=name):
            latency_bench(
                parse_plan(THREE_CHAIN), single, step, chain_retriever(), registry
            )

    def test_zero_single_shot_total_rejected(self, registry):
        with pytest.raises(ValueError, match="speedup is undefined"):
            latency_bench(
                parse_plan(THREE_CHAIN), 0.0, 0.0, chain_retriever(0.0), registry
            )

    def test_failing_step_rejected(self, registry):
        with pytest.raises(ReaperError):
            latency_bench(
                parse_plan('Step 1: prod_search(keywords="mug")'),
                207.0,
                2000.0,
                mock_retriever({}),
                registry,
            )


class TestEvaluate:
    def test_combined_report(self, registry):
        report = evaluate(PERFECT, GOLD_SET, registry, omitted_tool="prod_qna")
        assert report.tool_accuracy == 1.0
        assert report.argument_accuracy == 1.0
        # one gold plan uses prod_qna
        assert report.instruction_following == 0.75

    def test_argument_accuracy_omitted_when_not_computable(self, registry):
        only_chat = [gold("hello", "Step 1: no_retrieval()", "no_retrieval")]
        report = evaluate([only_chat[0].gold_plan], only_chat, registry)
        assert report.argument_accuracy is None

    def test_to_dict_round_trips_fields(self, registry):
        report = evaluate(PERFECT, GOLD_SET, registry)
        data = report.to_dict()
        assert data["tool_accuracy"] == 1.0
        assert "confusion" in data and "per_class" in data
        # field order; a metric that was not computed is left out
        assert "instruction_following" not in data
        data = evaluate(PERFECT, GOLD_SET, registry, omitted_tool="prod_qna").to_dict()
        assert list(data) == [
            "per_class",
            "tool_accuracy",
            "confusion",
            "argument_accuracy",
            "instruction_following",
        ]
        assert data["per_class"]["no_retrieval"] == {
            "precision": 1.0, "recall": 1.0, "f1": 1.0, "support": 1
        }


class TestUnknownGoldTool:
    BAD_GOLD = GOLD_SET[:2] + [
        gold("compare these", 'Step 1: compare_prices(query="a vs b")', "product_search")
    ]

    @pytest.mark.parametrize(
        "prediction", [None, 'Step 1: price_compare(query="a vs b")']
    )
    def test_invalid_prediction_is_not_scored_correct(self, registry, prediction):
        predictions = PERFECT[:2] + [prediction and parse_plan(prediction)]
        with pytest.raises(LabeledPlanError) as excinfo:
            tool_selection_metrics(predictions, self.BAD_GOLD, registry)
        assert excinfo.value.index == 2
        assert excinfo.value.violation.kind == "UnknownTool"
        assert str(excinfo.value) == (
            "labeled example 2: UnknownTool: step 1: unknown tool 'compare_prices'"
        )

    def test_argument_accuracy_rejects_it_too(self, registry):
        with pytest.raises(LabeledPlanError):
            argument_accuracy(PERFECT[:3], self.BAD_GOLD, registry)

    def test_a_gold_plan_missing_a_parameter_is_not_scored(self, registry):
        # the rule a forge task is held to: no valid prediction matches it
        bad_gold = GOLD_SET[:1] + [
            gold("does it run small", 'Step 1: prod_qna(query="size")', "product_qna")
        ]
        with pytest.raises(LabeledPlanError) as excinfo:
            evaluate(PERFECT[:2], bad_gold, registry)
        assert excinfo.value.index == 1
        assert str(excinfo.value.violation) == (
            "MissingParam: step 1: prod_qna is missing required parameter 'product_id'"
        )


class TestUnknownGoldClass:
    # a misspelt class would add a per_class row no prediction can support
    BAD_GOLD = GOLD_SET[:2] + [
        gold("compare these", 'Step 1: prod_search(keywords="a")', "product_searchh")
    ]

    def test_class_no_tool_carries_is_rejected(self, registry):
        with pytest.raises(UnknownGoldClassError) as excinfo:
            evaluate(PERFECT[:3], self.BAD_GOLD, registry)
        assert excinfo.value.index == 2
        assert excinfo.value.class_label == "product_searchh"
        assert str(excinfo.value) == (
            "gold example 2 ('compare these') has class 'product_searchh', "
            "which no registry tool carries"
        )
        with pytest.raises(UnknownGoldClassError):
            argument_accuracy(PERFECT[:3], self.BAD_GOLD, registry)

    def test_class_of_a_removed_tool_is_rejected(self, registry):
        # the class of a tool outside the registry scored is unknown too
        narrowed = registry.without("review_summary")
        example = gold("reviews", "Step 1: no_retrieval()", "review_summary")
        with pytest.raises(UnknownGoldClassError):
            tool_selection_metrics([None], [example], narrowed)

    def test_every_tool_class_and_invalid_are_accepted(self, registry):
        labels = sorted({spec.class_label for spec in registry} | {"invalid"})
        examples = [gold(label, "Step 1: no_retrieval()", label) for label in labels]
        report = tool_selection_metrics([None] * len(labels), examples, registry)
        assert set(report.confusion) == set(labels)
