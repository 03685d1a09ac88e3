import functools
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import weakref
from dataclasses import replace
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reaper.registry
from reaper import cli
from reaper.cli import main
from reaper.embedding import HashingEmbedder, ZeroVectorError, cosine
from reaper.errors import SchemaError
from reaper.forge import dqs, pipeline, tevo, ttg
from reaper.forge import (
    ForgeConfig,
    MASKED_PARAM_TOKEN,
    MASKED_STEP_TOKEN,
    NO_VALID_PLAN,
    NotApplicableError,
    TaskKind,
    TrainingRecord,
    applicable_kinds,
    dqs_partition,
    dqs_sample_indices,
    evolve_target,
    forge_run,
    generate_records,
    load_generic_pool,
    mix_dataset,
    tevo_evolve,
    ttg_transform,
    write_records,
)
from reaper.plan import (
    LabeledPlanError,
    parse_plan,
    rename_tools,
    render_plan,
    tool_sequence,
)
from reaper.prompt import (
    DEFAULT_ROLE,
    DEFAULT_SYSTEM_INSTRUCTION,
    InContextExample,
    PromptSpec,
    QueryInput,
    build_prompt,
    input_lines,
    load_example_pool,
)
from reaper.registry import (
    ParamSpec,
    ToolRegistry,
    ToolSpec,
    VariantPool,
    default_registry,
    extended_registry,
    load_registry,
    subset_with,
)

from .conftest import GALAXY_PLAN_TEXT
from .forgerun import forge_with_another_pool_and_registry
from .test_cli import GOLDEN_ARGS, GOLDEN_OUT_SHA256, GOLDEN_TASKS
from .test_registry import default_tools_data


@pytest.fixture()
def galaxy_task(galaxy_plan):
    return InContextExample(
        QueryInput("how much memory is on my galaxy phone"), galaxy_plan
    )


@pytest.fixture()
def kettle_task():
    return InContextExample(
        QueryInput("does this kettle whistle", "Copper Whistling Kettle"),
        parse_plan(
            'Step 1: prod_qna(product_id=$context.product_id, query="does it whistle")'
        ),
    )


@pytest.fixture()
def small_talk_task():
    return InContextExample(
        QueryInput("what is your favorite color"),
        parse_plan("Step 1: no_retrieval()"),
    )


class TestTevo:
    def test_different_seeds_vary_the_prompt(self, registry, galaxy_task):
        cfg = ForgeConfig(seed=0, extra_tool_count=2)
        first = build_prompt(tevo_evolve(galaxy_task, registry, cfg, rng_seed=1))
        second = build_prompt(tevo_evolve(galaxy_task, registry, cfg, rng_seed=2))
        assert first != second

    def test_deterministic_per_seed(self, registry, galaxy_task):
        cfg = ForgeConfig(extra_tool_count=2)
        first = tevo_evolve(galaxy_task, registry, cfg, rng_seed=5)
        second = tevo_evolve(galaxy_task, registry, cfg, rng_seed=5)
        assert build_prompt(first) == build_prompt(second)

    def test_degenerate_single_variant_pools(self, galaxy_task):
        # with one variant and paraphrase per tool and no extras, the tool
        # block is exactly the target's tools under canonical names
        entries = []
        for name, params in (
            ("shipment_status", [ParamSpec("query", True)]),
            ("prod_qna", [ParamSpec("product_id", True), ParamSpec("query", True)]),
            ("prod_search", [ParamSpec("keywords", True)]),
        ):
            spec = ToolSpec(
                canonical_name=name,
                params=tuple(params),
                description=f"does {name}",
                example_usage=f"Step 1: {name}()",
                class_label="extension",
            )
            entries.append((spec, VariantPool((name,), (f"does {name}",))))
        registry = ToolRegistry(entries)
        cfg = ForgeConfig(extra_tool_count=0)
        spec = tevo_evolve(
            galaxy_task, registry, cfg, rng_seed=3, example_pool=[]
        )
        assert spec.tools.canonical_names == ("shipment_status", "prod_qna")

    def test_variant_rendering_keeps_canonical_sequence(self, registry, kettle_task):
        # seed recorded once: presents prod_qna as product_facts
        cfg = ForgeConfig(extra_tool_count=2)
        spec = tevo_evolve(kettle_task, registry, cfg, rng_seed=0)
        target = evolve_target(kettle_task, spec)
        assert render_plan(target) == (
            'Step 1: product_facts(product_id=$context.product_id, '
            'query="does it whistle")'
        )
        assert tool_sequence(target, registry) == ["prod_qna"]

    def test_required_tools_always_in_subset(self, registry, galaxy_task):
        cfg = ForgeConfig(extra_tool_count=1)
        for seed in range(10):
            spec = tevo_evolve(galaxy_task, registry, cfg, rng_seed=seed)
            originals = {
                registry.canonical_of(spec.tools.canonical_of(name))
                for name in ("shipment_status", "prod_qna")
            }
            assert originals == {"shipment_status", "prod_qna"}

    def test_examples_fit_the_tool_subset(self, registry, galaxy_task):
        cfg = ForgeConfig(extra_tool_count=0, example_count=8)
        spec = tevo_evolve(galaxy_task, registry, cfg, rng_seed=11)
        for example in spec.examples:
            for step in example.target_plan.steps:
                assert spec.tools.has_tool(step.tool_name)

    def test_distractor_count_capped(self, registry, galaxy_task):
        cfg = ForgeConfig(extra_tool_count=99)
        spec = tevo_evolve(galaxy_task, registry, cfg, rng_seed=4)
        assert len(spec.tools) == len(registry)

    def test_each_presented_variant_is_parsed_once(self, monkeypatch):
        # a tool's example usage is renamed once per (tool, name, paraphrase)
        # shown, by the spec that keeps the result; a fresh registry's specs
        # have kept none yet
        registry = load_registry(resources.files("reaper.data") / "default_tools.json")
        calls = []

        def counting_rename(plan, mapping):
            calls.append(mapping)
            return rename_tools(plan, mapping)

        monkeypatch.setattr(reaper.registry, "rename_tools", counting_rename)
        tasks = [
            InContextExample(QueryInput(f"question {i}"), parse_plan(GALAXY_PLAN_TEXT))
            for i in range(50)
        ]
        cfg = ForgeConfig(extra_tool_count=2)
        shown = set()
        for seed, task in enumerate(tasks):
            spec = tevo_evolve(task, registry, cfg, rng_seed=seed)
            for tool in spec.tools:
                shown.add((registry.canonical_of(tool.canonical_name),
                           tool.canonical_name, tool.description))
        assert len(shown) < 50 * 4  # tools repeat across the 50 prompts
        assert len(calls) == len(shown)

    def test_variant_named_gold_plans_and_demonstrations_are_renamed(self, registry):
        # plans written with variant names: every name in the target and in
        # the demonstrations must be one the prompt's tool block shows
        task = InContextExample(
            QueryInput("how much memory is on my galaxy phone"),
            parse_plan(
                'Step 1: order_tracker(query="galaxy phone order")\n'
                'Step 2: product_information(product_id=$1.product_id, query="memory")'
            ),
        )
        pool = [
            InContextExample(
                QueryInput("does this jacket run small", "Alpine Trail Rain Jacket"),
                parse_plan(
                    "Step 1: product_details(product_id=$context.product_id, "
                    'query="does it run small")'
                ),
            ),
            InContextExample(
                QueryInput("where is my kettle"),
                parse_plan(
                    'Step 1: delivery_lookup(query="kettle")\n'
                    'Step 2: prod_qna(product_id=$1.product_id, query="size")'
                ),
            ),
        ]
        cfg = ForgeConfig(extra_tool_count=1, example_count=2)
        prepared = tevo._PreparedPool(pool, registry)
        for seed in range(50):
            for example_pool in (pool, prepared):
                spec = tevo_evolve(task, registry, cfg, seed, example_pool=example_pool)
                block = set(spec.tools.canonical_names)
                target = evolve_target(task, spec)
                assert {step.tool_name for step in target.steps} <= block
                assert tool_sequence(target, registry) == ["shipment_status", "prod_qna"]
                assert len(spec.examples) == 2
                for example in spec.examples:
                    assert {step.tool_name for step in example.target_plan.steps} <= block


def _evolve_oracle(task, registry, cfg, rng_seed, example_pool):
    """``tevo_evolve`` built the plain way: ``subset_with``, each presented
    spec renamed, rendered and replaced anew, a validated registry over them,
    and every demonstration's tools resolved again for each task."""
    rng = random.Random(rng_seed)
    needed = set(tool_sequence(task.target_plan, registry))
    extra = min(cfg.extra_tool_count, len(registry) - len(needed))
    subset = subset_with(registry, needed, extra, seed=rng.randrange(2**31))
    names, entries = {}, []
    for canonical in subset.canonical_names:
        spec, pool = subset.entry(canonical)
        names[canonical] = rng.choice(pool.name_variants)
        description = rng.choice(pool.description_paraphrases)
        usage = rename_tools(parse_plan(spec.example_usage), {canonical: names[canonical]})
        presented = replace(
            spec, canonical_name=names[canonical], description=description,
            example_usage=render_plan(usage),
        )
        entries.append((presented, pool))
    allowed = set(subset.canonical_names)
    candidates = [
        k
        for k, example in enumerate(example_pool)
        if example.input.query != task.input.query
        and set(tool_sequence(example.target_plan, registry)) <= allowed
    ]
    chosen = rng.sample(candidates, min(cfg.example_count, len(candidates)))
    examples = []
    for k in chosen:
        plan = example_pool[k].target_plan
        mapping = {
            step.tool_name: names[registry.canonical_of(step.tool_name)]
            for step in plan.steps
        }
        examples.append(InContextExample(example_pool[k].input, rename_tools(plan, mapping)))
    return PromptSpec(
        DEFAULT_ROLE, DEFAULT_SYSTEM_INSTRUCTION, ToolRegistry(entries),
        tuple(examples), task.input,
    )


def _single_variant(registry):
    return ToolRegistry(
        (spec, VariantPool((spec.canonical_name,), pool.description_paraphrases[:1]))
        for spec, pool in map(registry.entry, registry.canonical_names)
    )


_REGISTRIES = (
    default_registry(),
    extended_registry(),
    _single_variant(default_registry()),
)
_POOL = load_example_pool()


@functools.cache
def _shared_prepared_pool(which: int):
    # one prepared pool per registry, reused across examples as a run would
    return tevo._PreparedPool(_POOL, _REGISTRIES[which])


@st.composite
def _evolve_cases(draw):
    which = draw(st.integers(0, len(_REGISTRIES) - 1))
    registry = _REGISTRIES[which]
    tools = draw(st.lists(st.sampled_from(registry.canonical_names), min_size=1, max_size=4))
    lines = [
        f"Step {i}: {draw(st.sampled_from(registry.variants_of(name)))}()"
        for i, name in enumerate(tools, start=1)
    ]
    query = draw(st.sampled_from([_POOL[0].input.query, _POOL[1].input.query, "unseen"]))
    task = InContextExample(QueryInput(query), parse_plan("\n".join(lines)))
    cfg = ForgeConfig(
        extra_tool_count=draw(st.integers(0, len(registry))),
        example_count=draw(st.integers(0, len(_POOL))),
    )
    pool = _shared_prepared_pool(which) if draw(st.booleans()) else list(_POOL)
    return registry, task, cfg, draw(st.integers(0, 2**31 - 1)), pool


@settings(max_examples=150, deadline=None)
@given(_evolve_cases())
def test_evolve_equals_the_plain_algorithm(case):
    registry, task, cfg, seed, pool = case
    spec = tevo_evolve(task, registry, cfg, seed, example_pool=pool)
    oracle = _evolve_oracle(task, registry, cfg, seed, _POOL)
    # the presented registry reads as the oracle's
    assert spec.tools.canonical_names == oracle.tools.canonical_names
    assert list(spec.tools) == list(oracle.tools)
    for name in oracle.tools.canonical_names:
        assert spec.tools.entry(name) == oracle.tools.entry(name)
    for canonical in registry.canonical_names:
        for variant in registry.variants_of(canonical):
            assert spec.tools.has_tool(variant) == oracle.tools.has_tool(variant)
            if oracle.tools.has_tool(variant):
                assert spec.tools.canonical_of(variant) == oracle.tools.canonical_of(variant)
    assert spec.examples == oracle.examples
    assert spec.input == oracle.input
    assert build_prompt(spec) == build_prompt(oracle)
    assert evolve_target(task, spec) == evolve_target(task, oracle)


class TestTtg:
    def test_t1_inverts_the_primary_task(self, registry, galaxy_task):
        record = ttg_transform(
            galaxy_task, TaskKind.T1, registry, rng_seed=0, source_id="q00000"
        )
        assert record.target == "how much memory is on my galaxy phone"
        assert GALAXY_PLAN_TEXT in record.prompt
        assert record.task_kind is TaskKind.T1
        assert record.source_id == "q00000"

    def test_t2_splits_at_half(self, registry, galaxy_task):
        record = ttg_transform(
            galaxy_task, TaskKind.T2, registry, rng_seed=0, source_id="q00000"
        )
        lines = GALAXY_PLAN_TEXT.split("\n")
        assert lines[0] in record.prompt
        assert record.target == lines[1]

    def test_t2_three_step_keeps_two(self, registry):
        task = InContextExample(
            QueryInput("compare mugs"),
            parse_plan(
                'Step 1: prod_search(keywords="mug")\n'
                "Step 2: prod_qna(product_id=$1, query=\"size\")\n"
                "Step 3: review_summary(product_id=$1)"
            ),
        )
        record = ttg_transform(
            task, TaskKind.T2, registry, rng_seed=0, source_id="q00000"
        )
        assert record.target == "Step 3: review_summary(product_id=$1)"

    def test_t3_names_canonical_tools_in_order(self, registry, galaxy_task):
        record = ttg_transform(
            galaxy_task, TaskKind.T3, registry, rng_seed=0, source_id="q00000"
        )
        assert record.target == "shipment_status, prod_qna"

    def test_t3_canonicalizes_variants(self, registry):
        task = InContextExample(
            QueryInput("is it heavy", "Cast Iron Pan"),
            parse_plan(
                'Step 1: product_facts(product_id=$context.product_id, query="weight")'
            ),
        )
        record = ttg_transform(
            task, TaskKind.T3, registry, rng_seed=0, source_id="q00000"
        )
        assert record.target == "prod_qna"

    def test_t4_masks_one_full_step(self, registry, galaxy_task):
        record = ttg_transform(
            galaxy_task, TaskKind.T4, registry, rng_seed=0, source_id="q00000"
        )
        assert MASKED_STEP_TOKEN in record.prompt
        assert record.target in GALAXY_PLAN_TEXT.split("\n")
        shown = record.prompt.split("Plan:\n", 1)[1]
        assert record.target not in shown

    def test_t5_shuffles_and_restores(self, registry, galaxy_task):
        record = ttg_transform(
            galaxy_task, TaskKind.T5, registry, rng_seed=0, source_id="q00000"
        )
        shuffled = record.prompt.split("Shuffled plan:\n", 1)[1]
        assert shuffled != GALAXY_PLAN_TEXT
        assert sorted(shuffled.split("\n")) == sorted(GALAXY_PLAN_TEXT.split("\n"))
        assert record.target == GALAXY_PLAN_TEXT

    def test_t5_single_step_not_applicable(self, registry, small_talk_task):
        with pytest.raises(NotApplicableError):
            ttg_transform(
                small_talk_task, TaskKind.T5, registry, rng_seed=0, source_id="q00000"
            )

    def test_t2_and_t4_single_step_not_applicable(self, registry, small_talk_task):
        for kind in (TaskKind.T2, TaskKind.T4):
            with pytest.raises(NotApplicableError):
                ttg_transform(
                    small_talk_task, kind, registry, rng_seed=0, source_id="q00000"
                )

    def test_t6_masks_one_value(self, registry, galaxy_task):
        record = ttg_transform(
            galaxy_task, TaskKind.T6, registry, rng_seed=0, source_id="q00000"
        )
        assert MASKED_PARAM_TOKEN in record.prompt
        assert record.target in (
            '"galaxy phone order"',
            "$1.product_id",
            '"memory capacity"',
        )

    def test_t6_no_args_not_applicable(self, registry, small_talk_task):
        with pytest.raises(NotApplicableError):
            ttg_transform(
                small_talk_task, TaskKind.T6, registry, rng_seed=0, source_id="q00000"
            )

    def test_t7_withholds_a_used_tool(self, registry, galaxy_task):
        record = ttg_transform(
            galaxy_task, TaskKind.T7, registry, rng_seed=0, source_id="q00000"
        )
        assert record.target == NO_VALID_PLAN
        offered = record.prompt.split("Tools:\n", 1)[1].split("\n\nQuery:")[0]
        withheld = {"shipment_status", "prod_qna"} - set(
            line.split(" - ")[0].split(". ")[1] for line in offered.split("\n")
        )
        assert len(withheld) == 1

    def test_deterministic(self, registry, galaxy_task):
        first = ttg_transform(
            galaxy_task, TaskKind.T4, registry, rng_seed=9, source_id="q00000"
        )
        second = ttg_transform(
            galaxy_task, TaskKind.T4, registry, rng_seed=9, source_id="q00000"
        )
        assert first == second

    def test_each_task_shows_its_own_plan_and_input(
        self, registry, galaxy_task, kettle_task
    ):
        # a copy with another plan keeps none of the original's renders
        copied = replace(galaxy_task, target_plan=kettle_task.target_plan)
        for task in (galaxy_task, kettle_task, galaxy_task, copied, kettle_task):
            record = ttg_transform(
                task, TaskKind.T1, registry, rng_seed=0, source_id="q00000"
            )
            assert record.prompt.endswith("Plan:\n" + render_plan(task.target_plan))
            record = ttg_transform(
                task, TaskKind.T3, registry, rng_seed=0, source_id="q00000"
            )
            assert record.prompt.endswith("\n".join(input_lines(task.input)))

    def test_only_the_kinds_that_draw_seed_a_generator(
        self, registry, galaxy_task, monkeypatch
    ):
        built, real = [], ttg.random.Random

        def counting_random(seed):
            built.append(seed)
            return real(seed)

        monkeypatch.setattr(ttg, "random", SimpleNamespace(Random=counting_random))
        for kind in (TaskKind.T1, TaskKind.T2, TaskKind.T3):
            ttg_transform(galaxy_task, kind, registry, rng_seed=9, source_id="q00000")
        assert built == []
        for kind in (TaskKind.T4, TaskKind.T5, TaskKind.T6, TaskKind.T7):
            ttg_transform(galaxy_task, kind, registry, rng_seed=9, source_id="q00000")
        assert built == [9, 9, 9, 9]

    def test_applicable_kinds_by_shape(self, galaxy_task, small_talk_task):
        assert applicable_kinds(small_talk_task) == [
            TaskKind.T1,
            TaskKind.T3,
            TaskKind.T7,
        ]
        assert applicable_kinds(galaxy_task) == [
            TaskKind.T1,
            TaskKind.T2,
            TaskKind.T3,
            TaskKind.T4,
            TaskKind.T5,
            TaskKind.T6,
            TaskKind.T7,
        ]


@pytest.fixture(scope="module")
def provider():
    return HashingEmbedder()


class TestDqs:
    def test_equal_pools_no_extremes_is_permutation(self, provider):
        queries = [f"question {i} about topic {chr(97 + i)}" for i in range(12)]
        cfg = ForgeConfig(seed=5)
        out = [queries[j] for j in dqs_sample_indices(queries, queries, provider, cfg)]
        assert sorted(out) == sorted(queries)

    def test_planted_duplicates_removed(self, provider):
        q_initial = [f"curated question {i} item {chr(97 + i)}" for i in range(5)]
        q_large = [f"pool query {j} thing number {j * 17}" for j in range(17)]
        q_large[3] = q_initial[0]
        q_large[8] = q_initial[2]
        q_large[14] = q_initial[4]
        cfg = ForgeConfig(extreme_pairs=3, seed=1)
        out = [q_large[j] for j in dqs_sample_indices(q_initial, q_large, provider, cfg)]
        assert len(out) == 5
        assert not set(out) & {q_initial[0], q_initial[2], q_initial[4]}

    def test_postconditions(self, provider):
        q_initial = [f"seed question {i}" for i in range(4)]
        q_large = [f"candidate {j} about {chr(97 + j)}" for j in range(20)]
        cfg = ForgeConfig(extreme_pairs=3, seed=9)
        extreme, refined = dqs_partition(q_initial, q_large, provider, 3)
        out = [q_large[j] for j in dqs_sample_indices(q_initial, q_large, provider, cfg)]
        assert len(out) == len(q_initial)
        assert set(out) <= {q_large[j] for j in refined}
        assert not set(out) & {q_large[j] for j in extreme}
        assert len(extreme) == 6

    def test_infeasible_sampling_rejected(self, provider):
        with pytest.raises(ValueError):
            dqs_sample_indices(
                ["a", "b"], ["c", "d", "e"], provider, ForgeConfig(extreme_pairs=1)
            )

    def test_partition_over_row_blocks_matches_brute_force(self, provider):
        # more reference queries than one row block of the similarity kernel
        q_initial = [f"seed question {i} about {chr(97 + i % 26)}" for i in range(40)]
        q_large = [f"candidate {j} on {chr(97 + j % 19)} item" for j in range(60)]
        q_large[7], q_large[31] = q_initial[3], q_initial[38]
        scores = [
            max(cosine(provider.embed(left), provider.embed(right)) for left in q_initial)
            for right in q_large
        ]
        columns = range(len(q_large))
        extreme = set(sorted(columns, key=lambda j: (-scores[j], j))[:4])
        extreme |= set(sorted(columns, key=lambda j: (scores[j], j))[:4])
        assert dqs_partition(q_initial, q_large, provider, 4) == (
            sorted(extreme),
            [j for j in columns if j not in extreme],
        )

    def test_no_extremes_embeds_each_distinct_text_once(self, provider, monkeypatch):
        # with no extremes to drop the scores cannot change the partition
        calls = []

        class Counting:
            def embed(self, text):
                calls.append(text)
                return provider.embed(text)

        def no_scores(*args):
            raise AssertionError("similarity_matrix called")

        monkeypatch.setattr(dqs, "similarity_matrix", no_scores)
        q_initial = ["red shoes", "blue hat", "red shoes"]
        q_large = ["blue hat", "garden hose", "garden hose", "kettle"]
        assert dqs_partition(q_initial, q_large, Counting(), 0) == ([], [0, 1, 2, 3])
        # in the similarity kernel's slot order: q_large first, then q_initial
        assert calls == ["blue hat", "garden hose", "kettle", "red shoes"]

    @pytest.mark.parametrize(
        "q_initial, q_large",
        [
            (["red shoes"], ["red shoes", "???"]),
            (["red shoes", "???"], ["red shoes", "blue hat"]),
        ],
    )
    def test_no_extremes_still_rejects_a_zero_vector(self, provider, q_initial, q_large):
        with pytest.raises(ZeroVectorError, match=r"'\?\?\?'") as caught:
            dqs_partition(q_initial, q_large, provider, 0)
        assert caught.value.text == "???"

    def test_deterministic(self, provider):
        q_initial = [f"seed question {i}" for i in range(4)]
        q_large = [f"candidate {j} about {chr(97 + j)}" for j in range(20)]
        cfg = ForgeConfig(extreme_pairs=2, seed=33)
        assert [
            q_large[j] for j in dqs_sample_indices(q_initial, q_large, provider, cfg)
        ] == [q_large[j] for j in dqs_sample_indices(q_initial, q_large, provider, cfg)]


def make_record(i):
    return TrainingRecord(f"prompt {i}", f"target {i}", TaskKind.PRIMARY, f"q{i}")


def reference_generic_records(text):
    """The generic pool in the JSONL ``text`` by the documented rule: one
    ``GENERIC`` record per non-blank line, whose ``source_id`` is its ``id``,
    or ``gen-NNNN`` from its position when the ``id`` is absent or null."""
    rows = [json.loads(line) for line in text.split("\n") if line.strip()]
    return [
        TrainingRecord(
            row["prompt"], row["target"], TaskKind.GENERIC,
            f"gen-{i:04d}" if row.get("id") is None else row["id"],
        )
        for i, row in enumerate(rows)
    ]


# Any non-empty text, with the characters str.splitlines() breaks at but a
# JSON string holds raw (U+2028, U+0085) drawn often
_generic_texts = st.text(
    st.one_of(st.characters(), st.sampled_from("\u2028\x85")), min_size=1, max_size=8
)
_generic_rows = st.fixed_dictionaries(
    {"prompt": _generic_texts, "target": _generic_texts},
    optional={"id": st.none() | _generic_texts},
)


@settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(rows=st.lists(_generic_rows, max_size=4), ensure_ascii=st.booleans())
def test_a_generic_pool_reads_as_its_lines_by_the_id_rule(tmp_path, rows, ensure_ascii):
    path = tmp_path / "generic.jsonl"
    text = "".join(json.dumps(row, ensure_ascii=ensure_ascii) + "\n" for row in rows)
    path.write_text(text, encoding="utf-8")
    assert load_generic_pool(path) == reference_generic_records(text)


class TestMix:
    def test_table_scale_ratio(self):
        # 252 plan records with a 1470-record pool reproduces the 1:5.8 shape
        reaper_records = [make_record(i) for i in range(252)]
        pool = [
            TrainingRecord(f"p{i}", f"t{i}", TaskKind.GENERIC, f"g{i}")
            for i in range(1470)
        ]
        mixed, manifest = mix_dataset(
            reaper_records, pool, ForgeConfig(generic_fraction=1.0, seed=0)
        )
        assert (manifest.reaper_count, manifest.generic_count) == (252, 1470)
        assert manifest.ratio == "1:5.8"
        assert len(mixed) == 252 + 1470

    def test_zero_fraction_keeps_no_generic(self):
        reaper_records = [make_record(i) for i in range(5)]
        pool = load_generic_pool()
        mixed, manifest = mix_dataset(
            reaper_records, pool, ForgeConfig(generic_fraction=0.0, seed=3)
        )
        assert manifest.generic_count == 0
        assert all(r.task_kind is not TaskKind.GENERIC for r in mixed)

    def test_shuffle_and_sampling_deterministic(self):
        reaper_records = [make_record(i) for i in range(10)]
        pool = load_generic_pool()
        cfg = ForgeConfig(generic_fraction=0.5, seed=42)
        first, _ = mix_dataset(reaper_records, pool, cfg)
        second, _ = mix_dataset(reaper_records, pool, cfg)
        assert first == second
        third, _ = mix_dataset(reaper_records, pool, replace(cfg, seed=43))
        assert first != third

    def test_the_mix_holds_the_given_generic_records(self):
        pool = load_generic_pool()
        mixed, _ = mix_dataset([], pool, ForgeConfig(generic_fraction=0.5, seed=5))
        assert len(mixed) == 100
        assert {id(r) for r in mixed} <= {id(r) for r in pool}

    def test_sampling_without_replacement(self):
        pool = load_generic_pool()
        _, manifest = mix_dataset([], pool, ForgeConfig(generic_fraction=1.0, seed=7))
        assert manifest.generic_count == len(pool)

    @pytest.mark.parametrize(
        "reaper_count, fraction, ratio",
        # 0:take without reaper records, else 1:(generic per reaper record)
        [(0, 1.0, "0:200"), (0, 0.5, "0:100"), (0, 0.0, "0:0"), (3, 0.5, "1:33.3")],
    )
    def test_ratio_is_generic_records_per_reaper_record(
        self, reaper_count, fraction, ratio
    ):
        reaper_records = [make_record(i) for i in range(reaper_count)]
        cfg = ForgeConfig(generic_fraction=fraction, seed=7)
        _, manifest = mix_dataset(reaper_records, load_generic_pool(), cfg)
        assert manifest.ratio == ratio

    def test_shipped_pool_has_200_records(self):
        assert len(load_generic_pool()) == 200

    @pytest.mark.parametrize("bad_id", [7, ["x"], ""], ids=["int", "list", "empty"])
    def test_generic_id_must_be_a_non_empty_string(self, tmp_path, bad_id):
        path = tmp_path / "generic.jsonl"
        path.write_text(json.dumps({"prompt": "p", "target": "t", "id": bad_id}) + "\n")
        with pytest.raises(SchemaError) as excinfo:
            load_generic_pool(path)
        assert excinfo.value.field == "line 1.id"


class TestGenerateRecords:
    def test_count_and_kinds(self, registry, galaxy_task):
        cfg = ForgeConfig(tasks_per_query=4, extra_tool_count=2)
        records = generate_records(galaxy_task, 1, registry, cfg)
        assert len(records) == 4
        assert records[0].task_kind is TaskKind.PRIMARY
        secondary = [r.task_kind for r in records[1:]]
        assert len(set(secondary)) == 3  # sampled without replacement
        assert all(r.source_id == "q00001" for r in records)

    def test_kind_cycling_when_few_kinds_apply(self, registry, small_talk_task):
        # single zero-arg step: only three kinds apply, the rest cycle
        cfg = ForgeConfig(tasks_per_query=8)
        records = generate_records(small_talk_task, 3, registry, cfg)
        assert len(records) == 8
        used = {r.task_kind for r in records[1:]}
        assert used == {TaskKind.T1, TaskKind.T3, TaskKind.T7}


class TestForgeRun:
    def write_tasks(self, n):
        tasks = []
        for i in range(n):
            if i % 3 == 0:
                plan = f'Step 1: prod_search(keywords="item {i}")'
            elif i % 3 == 1:
                plan = (
                    f'Step 1: shipment_status(query="order {i}")\n'
                    f'Step 2: prod_qna(product_id=$1.product_id, query="detail {i}")'
                )
            else:
                plan = "Step 1: no_retrieval()"
            tasks.append(
                InContextExample(
                    QueryInput(f"synthetic question {i} about {chr(97 + i % 26)}"),
                    parse_plan(plan),
                )
            )
        return tasks

    def test_primary_only_run(self, registry, provider, tmp_path):
        out = tmp_path / "data.jsonl"
        cfg = ForgeConfig(tasks_per_query=1, seed=5, generic_fraction=0.0)
        manifest = forge_run(self.write_tasks(10), registry, cfg, provider, out)
        assert manifest.reaper_count == 10
        assert manifest.generic_count == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 10
        assert {l["task_kind"] for l in lines} == {"primary"}

    def test_count_law(self, registry, provider, tmp_path):
        out = tmp_path / "data.jsonl"
        cfg = ForgeConfig(tasks_per_query=3, seed=5, generic_fraction=0.0)
        manifest = forge_run(self.write_tasks(10), registry, cfg, provider, out)
        assert manifest.reaper_count == 30

    def test_separate_reference_pool_filters_tasks(self, registry, provider, tmp_path):
        out = tmp_path / "data.jsonl"
        tasks = self.write_tasks(9)
        reference = [f"reference question {i} about {chr(110 + i)}" for i in range(3)]
        cfg = ForgeConfig(
            tasks_per_query=1, seed=2, generic_fraction=0.0, extreme_pairs=2
        )
        manifest = forge_run(
            tasks, registry, cfg, provider, out, q_initial=reference
        )
        assert manifest.reaper_count == len(reference)
        assert len(out.read_text().splitlines()) == 3

    def test_one_seed_drives_the_sample_the_streams_and_the_mix(
        self, registry, provider, tmp_path
    ):
        tasks = self.write_tasks(16)
        queries = [task.input.query for task in tasks]
        reference = [f"reference question {i} about {chr(110 + i)}" for i in range(8)]
        cfg = ForgeConfig(
            tasks_per_query=3, seed=1, generic_fraction=0.1, extreme_pairs=2
        )
        runs = {}
        for name, run_cfg in (("a", cfg), ("b", cfg), ("other", replace(cfg, seed=2))):
            out = tmp_path / f"{name}.jsonl"
            forge_run(tasks, registry, run_cfg, provider, out, q_initial=reference)
            runs[name] = out.read_bytes()
        assert runs["a"] == runs["b"]
        assert runs["a"] != runs["other"]

        def plan_records_by_task(data):
            grouped = {}
            for line in data.decode("utf-8").splitlines():
                record = json.loads(line)
                if record["task_kind"] != "generic":
                    grouped.setdefault(record["source_id"], []).append(record)
            return grouped

        first = plan_records_by_task(runs["a"])
        other = plan_records_by_task(runs["other"])
        # the DQS sample
        for grouped, seed in ((first, 1), (other, 2)):
            sample = dqs_sample_indices(
                reference, queries, provider, replace(cfg, seed=seed)
            )
            assert set(grouped) == {f"q{j:05d}" for j in sample}
        assert set(first) != set(other)
        # each task's TEVO/TTG stream, for the tasks both samples keep
        both = set(first) & set(other)
        assert both
        assert all(first[source] != other[source] for source in both)
        # the mix: where the generic records fall among the plan-task records
        kinds = [
            [json.loads(line)["task_kind"] == "generic" for line in data.splitlines()]
            for data in (runs["a"], runs["other"])
        ]
        assert kinds[0] != kinds[1]

    def test_jsonl_schema(self, registry, provider, tmp_path):
        out = tmp_path / "data.jsonl"
        cfg = ForgeConfig(tasks_per_query=2, seed=1, generic_fraction=0.1)
        forge_run(self.write_tasks(6), registry, cfg, provider, out)
        for line in out.read_text().splitlines():
            record = json.loads(line)
            assert set(record) == {"prompt", "target", "task_kind", "source_id"}
            assert record["prompt"] and record["target"]

    def test_a_task_list_serves_as_its_own_example_pool(
        self, registry, provider, tmp_path
    ):
        # tasks and demonstrations are one type; a task never sees itself
        out = tmp_path / "data.jsonl"
        tasks = self.write_tasks(12)
        cfg = ForgeConfig(tasks_per_query=1, seed=3, generic_fraction=0.0)
        manifest = forge_run(
            tasks, registry, cfg, provider, out, example_pool=tasks
        )
        assert manifest.reaper_count == 12
        shown = 0
        for line in out.read_text().splitlines():
            examples, own_input = json.loads(line)["prompt"].split("### Input:\n")
            own_query = own_input.split("\n")[0]
            assert own_query.startswith("Query: synthetic question ")
            assert own_query + "\n" not in examples
            shown += examples.count("\nQuery: synthetic question ")
        assert shown > 0

    def test_demonstrations_that_fail_validation_are_left_out(
        self, registry, provider, tmp_path
    ):
        # one with an unknown tool and one missing a required parameter: a
        # pool with them forges the same bytes as the pool without them
        misfits = [
            InContextExample(
                QueryInput("which kettle is cheaper"),
                parse_plan('Step 1: compare_prices(query="kettles")'),
            ),
            InContextExample(
                QueryInput("does this jacket run small"),
                parse_plan('Step 1: prod_qna(query="does it run small")'),
            ),
        ]
        cfg = ForgeConfig(tasks_per_query=1, seed=1, generic_fraction=0.0)
        outputs = []
        for pool in (load_example_pool(), [*misfits, *load_example_pool()]):
            out = tmp_path / f"data{len(outputs)}.jsonl"
            forge_run(
                self.write_tasks(12), registry, cfg, provider, out,
                example_pool=pool,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_a_task_missing_a_parameter_raises_before_any_record(
        self, registry, provider, tmp_path, monkeypatch
    ):
        # a library caller's task is held to the rule a gold plan is, not
        # only the CLI's: it is a training target
        def never(*args, **kwargs):
            raise AssertionError("sampled the pool or generated a record")

        monkeypatch.setattr(pipeline, "dqs_sample_indices", never)
        monkeypatch.setattr(pipeline, "generate_records", never)
        task = InContextExample(
            QueryInput("does it run small"), parse_plan('Step 1: prod_qna(query="size")')
        )
        out = tmp_path / "data.jsonl"
        with pytest.raises(LabeledPlanError) as excinfo:
            forge_run([task], registry, ForgeConfig(), provider, out)
        assert excinfo.value.index == 0
        assert str(excinfo.value.violation) == (
            "MissingParam: step 1: prod_qna is missing required parameter 'product_id'"
        )
        assert not out.exists()


@pytest.mark.parametrize("field", ["extra_tool_count", "example_count", "extreme_pairs"])
def test_a_negative_count_is_named_with_its_value(field):
    with pytest.raises(ValueError, match=f"^{field} must be non-negative, got -3$"):
        ForgeConfig(**{field: -3})


def test_write_records_removes_partial_output(tmp_path):
    class Boom:
        def to_json(self):
            raise RuntimeError("mid-write failure")

    out = tmp_path / "data.jsonl"
    with pytest.raises(RuntimeError):
        write_records([make_record(0), Boom()], out)
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "query, keywords, field",
    [("where is \ud83d my order", "order", "prompt"),
     ("where is my order", "\ud83d", "target")],
    ids=["query", "plan"],
)
def test_a_lone_surrogate_built_in_code_is_named_and_writes_nothing(
    registry, provider, tmp_path, query, keywords, field
):
    # Parsing, sampling, prompt building and mixing all take the surrogate;
    # only the UTF-8 writer cannot.
    plan = parse_plan(f'Step 1: prod_search(keywords="{keywords}")')
    out = tmp_path / "data.jsonl"
    cfg = ForgeConfig(tasks_per_query=1, generic_fraction=0.0)
    with pytest.raises(ValueError) as caught:
        forge_run(
            [InContextExample(QueryInput(query), plan)], registry, cfg, provider, out
        )
    assert str(caught.value) == f"record 'q00000': {field}: lone surrogate '\\ud83d'"
    assert list(tmp_path.iterdir()) == []


def _assert_json_equals_json_dumps(prompt, target, kind, source_id):
    record = TrainingRecord(prompt, target, kind, source_id)
    assert record.to_json() == json.dumps(
        {
            "prompt": prompt,
            "target": target,
            "task_kind": kind.value,
            "source_id": source_id,
        },
        ensure_ascii=False,
    )


@settings(max_examples=300, deadline=None)
@given(
    st.text(st.characters(exclude_categories=()), min_size=1, max_size=20),
    st.text(st.characters(exclude_categories=()), min_size=1, max_size=20),
    st.sampled_from(TaskKind),
    st.text(st.characters(exclude_categories=()), max_size=10),
)
# every escape: quotes, backslashes, control characters, the separators
# JSON leaves alone, non-BMP characters and lone surrogates; DEL, which
# only the ASCII escaper escapes, alone, inside ASCII and beside non-ASCII
@example('say "hi" \\ bye', "\x00\x01\x1f\x7f\b\f\n\r\t", TaskKind.T1, "q00001")
@example("a\x7fb", "\x7f", TaskKind.T7, "q\x7f")
@example("plain ascii prompt", "Step 1: no_retrieval()", TaskKind.PRIMARY, "q00002")
@example("\x7f é", "~\x7f\U0001F600", TaskKind.T2, "")
@example("\u2028 and \u2029", "\U0001F600 漢字 é", TaskKind.GENERIC, "gen-0001")
@example("\ud800", "x\udfff\udbff\udc00y", TaskKind.PRIMARY, "\ud83d")
def test_record_json_equals_json_dumps(prompt, target, kind, source_id):
    _assert_json_equals_json_dumps(prompt, target, kind, source_id)


def _ascii_texts(min_size):
    # pure ASCII, DEL included, and ASCII that is mostly DEL and the
    # characters JSON escapes: the texts ``to_json`` sends to the ASCII
    # escaper, and those it must not
    return st.one_of(
        st.text(st.characters(max_codepoint=0x7F), min_size=min_size, max_size=40),
        st.text(
            st.sampled_from(["a", " ", '"', "\\", "\n", "\x00", "\x1f", "\x7f", "~"]),
            min_size=min_size,
            max_size=20,
        ),
    )


@settings(max_examples=200, deadline=None)
@given(_ascii_texts(1), _ascii_texts(1), st.sampled_from(TaskKind), _ascii_texts(0))
def test_ascii_record_json_equals_json_dumps(prompt, target, kind, source_id):
    _assert_json_equals_json_dumps(prompt, target, kind, source_id)


class TestRunScope:
    def test_runs_in_one_process_equal_fresh_processes(self, tmp_path, capsys):
        golden = tmp_path / "golden.jsonl"
        other = tmp_path / "other.jsonl"
        fresh_other = tmp_path / "fresh_other.jsonl"
        argv = ["forge", "--tasks", str(GOLDEN_TASKS), "--out", str(golden), *GOLDEN_ARGS]
        assert main(argv) == 0
        assert hashlib.sha256(golden.read_bytes()).hexdigest() == GOLDEN_OUT_SHA256
        forge_with_another_pool_and_registry(str(other))
        assert main(argv) == 0
        assert hashlib.sha256(golden.read_bytes()).hexdigest() == GOLDEN_OUT_SHA256

        code = (
            "from tests.forgerun import forge_with_another_pool_and_registry as run; "
            f"run({str(fresh_other)!r})"
        )
        root = Path(__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=root, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert other.read_bytes() == fresh_other.read_bytes()
        assert other.read_bytes() != golden.read_bytes()

    def test_nothing_of_a_run_outlives_it(self, registry, provider, tmp_path, monkeypatch):
        pools, demonstrations, distinct = [], [], set()
        evolve = pipeline.tevo_evolve

        def watching(*args, **kwargs):
            pool = kwargs["example_pool"]
            assert isinstance(pool, tevo._PreparedPool)
            if not pools:
                pools.append(weakref.ref(pool))
            assert pools[0]() is pool  # one prepared pool for the whole run
            spec = evolve(*args, **kwargs)
            demonstrations.extend(weakref.ref(example) for example in spec.examples)
            distinct.update(id(example) for example in spec.examples)
            return spec

        monkeypatch.setattr(pipeline, "tevo_evolve", watching)
        cfg = ForgeConfig(tasks_per_query=2, seed=3, generic_fraction=0.0)
        tasks = TestForgeRun().write_tasks(12)
        task_refs = [weakref.ref(task) for task in tasks]
        forge_run(tasks, registry, cfg, provider, tmp_path / "data.jsonl")
        del tasks
        assert len(demonstrations) > len(distinct)  # renamed once, shown often
        gc.collect()
        assert pools[0]() is None
        assert all(ref() is None for ref in task_refs)
        # the prompt builder keeps nothing, so every demonstration shown is dead
        assert all(ref() is None for ref in demonstrations)

    def test_a_named_registry_and_its_presented_specs_die_with_it(
        self, tmp_path, monkeypatch
    ):
        # a long-lived process forging with edited registries keeps none of them
        loaded, presented = [], []
        evolve = pipeline.tevo_evolve

        def loading(path):
            registry = load_registry(path)
            loaded.append([weakref.ref(spec) for spec in registry])
            return registry

        def watching(*args, **kwargs):
            spec = evolve(*args, **kwargs)
            if len(loaded) == 1:
                presented.extend(weakref.ref(tool) for tool in spec.tools)
            return spec

        monkeypatch.setattr(cli, "load_registry", loading)
        monkeypatch.setattr(pipeline, "tevo_evolve", watching)
        for edit in range(3):
            data = default_tools_data()
            for tool in data["tools"]:
                tool["description"] += f" (edit {edit})"
                tool["description_paraphrases"] = [
                    f"{text} (edit {edit})" for text in tool["description_paraphrases"]
                ]
            path = tmp_path / f"tools_{edit}.json"
            path.write_text(json.dumps(data))
            out = str(tmp_path / f"train_{edit}.jsonl")
            argv = ["forge", "--tasks", str(GOLDEN_TASKS), "--registry", str(path)]
            assert main([*argv, "--out", out]) == 0
        assert "(edit 0)" in (tmp_path / "train_0.jsonl").read_text()
        gc.collect()
        assert len(loaded) == 3 and presented
        assert all(ref() is None for ref in loaded[0] + presented)

    def test_the_shipped_registry_presents_each_pair_as_one_object(
        self, registry, provider, tmp_path, monkeypatch
    ):
        runs: list[list[ToolSpec]] = []
        evolve = pipeline.tevo_evolve

        def watching(*args, **kwargs):
            spec = evolve(*args, **kwargs)
            runs[-1].extend(spec.tools)
            return spec

        monkeypatch.setattr(pipeline, "tevo_evolve", watching)
        cfg = ForgeConfig(tasks_per_query=2, seed=3, generic_fraction=0.0)
        tasks = TestForgeRun().write_tasks(12)
        for run in range(2):
            runs.append([])
            forge_run(tasks, registry, cfg, provider, tmp_path / f"data_{run}.jsonl")
        first, second = runs
        assert first and len(first) == len(second)
        assert all(a is b for a, b in zip(first, second))
        for tool in first:
            canonical = registry.canonical_of(tool.canonical_name)
            spec = registry.entry(canonical)[0]
            assert spec._presented(tool.canonical_name, tool.description) is tool
