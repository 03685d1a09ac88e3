"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import time
from contextlib import contextmanager

from reaper.embedding import HashingEmbedder, cosine
from reaper.evaluation import (
    GoldExample,
    argument_accuracy,
    instruction_following_score,
    latency_bench,
    tool_selection_metrics,
)
from reaper.executor import (
    CannedCall,
    StepStatus,
    dependency_graph,
    execute_plan,
    mock_retriever,
)
from reaper.forge import (
    ForgeConfig,
    dqs_sample_indices,
    evolve_target,
    forge_run,
    tevo_evolve,
)
from reaper.gateway import ScriptedStub, generate_plan
from reaper.plan import parse_plan, render_plan, tool_sequence
from reaper.prompt import (
    DEFAULT_ROLE,
    DEFAULT_SYSTEM_INSTRUCTION,
    InContextExample,
    PromptSpec,
    QueryInput,
    adversarial_omit,
    build_prompt,
    load_example_pool,
)
from reaper.registry import default_registry

from .conftest import GALAXY_PLAN_TEXT
from .plangen import generator_registry, random_plan


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] C{number} {label}: FAIL")
        raise
    print(f"\n[acceptance] C{number} {label}: PASS")


def test_c1_plan_round_trip():
    with criterion(1, "plan round trip over 1000 random plans"):
        rng = random.Random(20240601)
        started = time.perf_counter()
        for _ in range(1000):
            plan = random_plan(rng)
            assert parse_plan(render_plan(plan)) == plan
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"round trips took {elapsed:.2f}s"


def _forge_tasks(count):
    tasks = []
    for i in range(count):
        shape = i % 4
        if shape == 0:
            plan = f'Step 1: prod_search(keywords="item {i}")'
        elif shape == 1:
            plan = (
                f'Step 1: shipment_status(query="order {i}")\n'
                f'Step 2: prod_qna(product_id=$1.product_id, query="detail {i}")'
            )
        elif shape == 2:
            plan = "Step 1: no_retrieval()"
        else:
            plan = f'Step 1: customer_support(query="policy topic {i}")'
        tasks.append(
            InContextExample(
                QueryInput(f"forge question {i:03d} about {chr(97 + i % 26)}"),
                parse_plan(plan),
            )
        )
    return tasks


def test_c2_forge_count_law(tmp_path):
    with criterion(2, "forge count law 100x{3,4,5} -> 300/400/500, reproducible"):
        registry = default_registry()
        provider = HashingEmbedder()
        tasks = _forge_tasks(100)
        pool = load_example_pool()
        for tasks_per_query in (3, 4, 5):
            cfg = ForgeConfig(
                tasks_per_query=tasks_per_query,
                seed=77,
                generic_fraction=0.25,
            )
            outputs = []
            for run in ("a", "b"):
                out = tmp_path / f"n{tasks_per_query}_{run}.jsonl"
                manifest = forge_run(
                    tasks, registry, cfg, provider, out,
                    example_pool=pool,
                )
                assert manifest.reaper_count == tasks_per_query * 100
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], "runs with equal seeds differ"
            records = [json.loads(l) for l in outputs[0].decode().splitlines()]
            plan_records = [r for r in records if r["task_kind"] != "generic"]
            assert len(plan_records) == tasks_per_query * 100


def test_c3_dqs_set_algebra():
    with criterion(3, "diverse sampling set algebra vs brute-force oracle"):
        provider = HashingEmbedder()
        adjectives = [
            "red", "blue", "green", "small", "large", "wooden", "steel",
            "cheap", "durable", "foldable", "wireless", "heavy", "light",
            "ceramic", "vintage", "modern", "spare", "compact", "quiet",
            "fast", "soft", "rigid", "matte", "glossy", "curved",
        ]
        nouns = [
            "kettle", "lamp", "tent", "monitor", "backpack", "router",
            "blender", "drill", "jacket", "keyboard", "speaker", "stroller",
            "mattress", "printer", "scooter", "grill", "heater", "fan",
            "tripod", "cooler",
        ]
        q_initial = [
            f"curated shopping question {i:02d} about a "
            f"{adjectives[i % 25]} {nouns[i % 20]} variant {i}"
            for i in range(50)
        ]
        q_large = [
            f"pool question {j:03d} regarding the "
            f"{adjectives[j % 25]} {nouns[(j // 25) % 20]} option {j}"
            for j in range(500)
        ]
        duplicates = {37 + k * 31: q_initial[k] for k in range(8)}
        for position, text in duplicates.items():
            q_large[position] = text
        cfg = ForgeConfig(extreme_pairs=10, seed=424242)
        assert cfg.extreme_pairs >= len(duplicates)

        sampled = [
            q_large[j] for j in dqs_sample_indices(q_initial, q_large, provider, cfg)
        ]

        # brute-force reimplementation of the whole pipeline
        vectors = {}
        for text in set(q_initial) | set(q_large):
            vectors[text] = provider.embed(text)
        scores = [
            max(cosine(vectors[left], vectors[q_large[j]]) for left in q_initial)
            for j in range(len(q_large))
        ]
        most_similar = sorted(
            range(len(q_large)), key=lambda j: (-scores[j], j)
        )[: cfg.extreme_pairs]
        most_dissimilar = sorted(
            range(len(q_large)), key=lambda j: (scores[j], j)
        )[: cfg.extreme_pairs]
        extreme = set(most_similar) | set(most_dissimilar)
        refined = [j for j in range(len(q_large)) if j not in extreme]
        expected = [
            q_large[j]
            for j in random.Random(cfg.seed).sample(refined, len(q_initial))
        ]

        assert set(sampled) == set(expected)
        assert len(sampled) == 50
        assert not set(sampled) & set(duplicates.values())
        assert not set(sampled) & {q_large[j] for j in extreme}
        assert set(duplicates) <= extreme, "verbatim copies must score as extremes"


def _metric_fixture():
    gold = []
    predictions = []

    def add(query, gold_text, class_label, predicted_text=None):
        gold.append(
            GoldExample(QueryInput(query), parse_plan(gold_text), class_label)
        )
        predictions.append(parse_plan(predicted_text or gold_text))

    for i in range(5):
        add(
            f"support question {i}",
            f'Step 1: customer_support(query="support topic {i}")',
            "customer_support",
            # planted sequence error: support #1 answered with no retrieval
            "Step 1: no_retrieval()" if i == 1 else None,
        )
    for i in range(5):
        add(
            f"order question {i}",
            f'Step 1: shipment_status(query="order lookup {i}")',
            "shipment_status",
            # planted argument error: right tool, wrong rewrite
            'Step 1: shipment_status(query="wrong rewrite")' if i == 3 else None,
        )
    for i in range(5):
        add(
            f"search question {i}",
            f'Step 1: prod_search(keywords="search terms {i}")',
            "product_search",
        )
    for i in range(5):
        add(
            f"detail question {i}",
            f'Step 1: prod_qna(product_id="B0QNA{i}", query="detail {i}")',
            "product_qna",
            'Step 1: review_summary(product_id="B0QNA0")' if i == 0 else None,
        )
    for i in range(5):
        add(
            f"review question {i}",
            f'Step 1: review_summary(product_id="B0REV{i}")',
            "review_summary",
            'Step 1: prod_qna(product_id="B0REV2", query="detail")'
            if i == 2
            else None,
        )
    for i in range(5):
        add(f"chat question {i}", "Step 1: no_retrieval()", "no_retrieval")
    return predictions, gold


HAND_CONFUSION = {
    "customer_support": {"customer_support": 4, "no_retrieval": 1},
    "shipment_status": {"shipment_status": 5},
    "product_search": {"product_search": 5},
    "product_qna": {"product_qna": 4, "review_summary": 1},
    "review_summary": {"review_summary": 4, "product_qna": 1},
    "no_retrieval": {"no_retrieval": 5},
}


def test_c4_metric_oracle():
    with criterion(4, "30-example metric oracle (27/30, 0.9, hand-filled matrix)"):
        registry = default_registry()
        predictions, gold = _metric_fixture()
        assert len(gold) == 30

        report = tool_selection_metrics(predictions, gold, registry)
        assert report.tool_accuracy == 27 / 30
        assert report.confusion == HAND_CONFUSION

        assert argument_accuracy(predictions, gold, registry) == 0.9

        labels = set(HAND_CONFUSION) | {
            p for row in HAND_CONFUSION.values() for p in row
        }
        diagonal = 0
        for label in sorted(labels):
            support = sum(HAND_CONFUSION.get(label, {}).values())
            predicted = sum(
                row.get(label, 0) for row in HAND_CONFUSION.values()
            )
            true_positive = HAND_CONFUSION.get(label, {}).get(label, 0)
            diagonal += true_positive
            precision = true_positive / predicted if predicted else 0.0
            recall = true_positive / support if support else 0.0
            f1 = (
                2 * precision * recall / (precision + recall)
                if precision + recall
                else 0.0
            )
            metrics = report.per_class[label]
            assert abs(metrics.precision - precision) <= 1e-12
            assert abs(metrics.recall - recall) <= 1e-12
            assert abs(metrics.f1 - f1) <= 1e-12
            assert metrics.support == support
        # the planted errors are cross-class, so the matrix diagonal and the
        # sequence-exact accuracy agree
        assert diagonal / len(gold) == report.tool_accuracy


def test_c5_instruction_following_metric():
    with criterion(5, "instruction following 0/24/100 violations -> 1.00/0.76/0.00"):
        registry = default_registry()
        base_spec = PromptSpec(
            role_text=DEFAULT_ROLE,
            system_instruction=DEFAULT_SYSTEM_INSTRUCTION,
            tools=registry,
            examples=tuple(load_example_pool()),
            input=QueryInput("placeholder"),
        )
        violating_plans = [
            'Step 1: prod_qna(product_id="B0X", query="probe")',
            'Step 1: product_facts(product_id="B0X", query="probe")',
            'Step 1: product_information(product_id="B0X", query="probe")',
        ]
        clean_plan = 'Step 1: customer_support(query="probe")'
        queries = [f"adversarial probe item {i:03d}" for i in range(100)]

        for violations, expected in ((0, 1.0), (24, 0.76), (100, 0.0)):
            table = {}
            for i, query in enumerate(queries):
                table[query] = (
                    violating_plans[i % len(violating_plans)]
                    if i < violations
                    else clean_plan
                )
            stub = ScriptedStub(table, default=clean_plan)
            predictions = []
            for query in queries:
                spec = adversarial_omit(
                    PromptSpec(
                        role_text=base_spec.role_text,
                        system_instruction=base_spec.system_instruction,
                        tools=base_spec.tools,
                        examples=base_spec.examples,
                        input=QueryInput(query),
                    ),
                    "prod_qna",
                )
                plan, _ = generate_plan(stub, spec)
                predictions.append(plan)
            score = instruction_following_score(predictions, "prod_qna", registry)
            assert score == expected, f"{violations} violations gave {score}"


def test_c6_latency_reproduction():
    with criterion(6, "latency bench 207/2000, 3x50ms chain -> 357/6150, 17.23x"):
        registry = default_registry()
        plan = parse_plan(
            'Step 1: shipment_status(query="order")\n'
            'Step 2: prod_qna(product_id=$1.product_id, query="size")\n'
            "Step 3: review_summary(product_id=$2.product_id)"
        )
        retriever = mock_retriever(
            {
                "shipment_status": CannedCall(
                    {"text": "ok", "product_id": "B0X"}, 50.0
                ),
                "prod_qna": CannedCall({"text": "ok", "product_id": "B0X"}, 50.0),
                "review_summary": CannedCall({"text": "ok"}, 50.0),
            }
        )
        results = [
            latency_bench(plan, 207.0, 2000.0, retriever, registry)
            for _ in range(2)
        ]
        assert results[0] == results[1], "bench must be deterministic"
        stats = results[0]
        assert stats.single_shot_ms == 357.0
        assert stats.interleaved_ms == 6150.0
        assert abs(stats.speedup - 17.23) <= 0.01


def test_c7_executor_dependency_safety():
    with criterion(7, "executor dependency safety over 200 random DAG plans"):
        rng = random.Random(31337)
        registry = generator_registry(extra_tools=("broken_fetch",))
        violations = 0
        for _ in range(200):
            plan = random_plan(rng)
            # inject failures by rewriting ~1 in 4 plans' random step to the
            # broken tool
            injected = set()
            if rng.random() < 0.75 and len(plan) > 1:
                chosen = rng.sample(
                    range(1, len(plan) + 1), rng.randint(1, len(plan) // 2 + 1)
                )
                injected = set(chosen)
                mapping = {}
                steps = list(plan.steps)
                for index in chosen:
                    steps[index - 1] = type(steps[index - 1])(
                        index,
                        "broken_fetch",
                        steps[index - 1].args,
                    )
                plan = type(plan)(tuple(steps))
            retriever = mock_retriever(
                {
                    **{
                        name: CannedCall(
                            {"text": "t", "product_id": "p", "a": {"b": "c"}},
                            latency_ms=float(rng.choice([0, 5, 50, 250])),
                        )
                        for name in registry.canonical_names
                    },
                    "broken_fetch": CannedCall({}, 1.0, error="injected failure"),
                }
            )
            trace = execute_plan(
                plan,
                registry,
                retriever,
                context={"product_id": "x", "page_title": "y"},
            )
            if len(trace.steps) != len(plan.steps):
                violations += 1
            by_index = {s.index: s for s in trace.steps}
            for step in trace.steps:
                if step.status not in (
                    StepStatus.OK,
                    StepStatus.FAILED,
                    StepStatus.SKIPPED,
                ):
                    violations += 1
            for producer, consumer in dependency_graph(plan):
                p, c = by_index[producer], by_index[consumer]
                if p.status is StepStatus.OK and c.status is StepStatus.OK:
                    if c.started_ms < p.finished_ms:
                        violations += 1
                elif p.status is not StepStatus.OK:
                    if c.status is not StepStatus.SKIPPED:
                        violations += 1
            for index in injected:
                if by_index[index].status is StepStatus.OK:
                    violations += 1
        assert violations == 0


def test_c8_adversarial_prompt_hygiene():
    with criterion(8, "adversarial omit leaves no variant of any default tool"):
        registry = default_registry()
        pool = load_example_pool()
        total_occurrences = 0
        for tool in registry.canonical_names:
            spec = PromptSpec(
                role_text=DEFAULT_ROLE,
                system_instruction=DEFAULT_SYSTEM_INSTRUCTION,
                tools=registry,
                examples=tuple(pool),
                input=QueryInput("please help with this request"),
            )
            prompt = build_prompt(adversarial_omit(spec, tool))
            for variant in registry.variants_of(tool):
                total_occurrences += prompt.count(variant)
        assert total_occurrences == 0


def test_c9_tevo_label_stability():
    with criterion(9, "prompt evolution keeps canonical tool sequences, 500/500"):
        registry = default_registry()
        pool = load_example_pool()
        tasks = [
            InContextExample(
                QueryInput("how much memory is on my galaxy phone"),
                parse_plan(GALAXY_PLAN_TEXT),
            ),
            InContextExample(
                QueryInput("does this kettle whistle", "Copper Whistling Kettle"),
                parse_plan(
                    'Step 1: prod_qna(product_id=$context.product_id, '
                    'query="does it whistle")'
                ),
            ),
            InContextExample(
                QueryInput("wireless earbuds under 50"),
                parse_plan('Step 1: prod_search(keywords="wireless earbuds")'),
            ),
            InContextExample(
                QueryInput("how do i cancel an order"),
                parse_plan('Step 1: customer_support(query="cancel an order")'),
            ),
            InContextExample(
                QueryInput("tell me a joke"),
                parse_plan("Step 1: no_retrieval()"),
            ),
        ]
        cfg = ForgeConfig(tasks_per_query=1, extra_tool_count=3)
        stable = 0
        for serial in range(500):
            task = tasks[serial % len(tasks)]
            spec = tevo_evolve(
                task, registry, cfg, rng_seed=serial, example_pool=pool
            )
            evolved = evolve_target(task, spec)
            if tool_sequence(evolved, registry) == tool_sequence(
                task.target_plan, registry
            ):
                stable += 1
        assert stable == 500
