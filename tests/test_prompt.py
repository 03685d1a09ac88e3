import re
import sys
import threading
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

from reaper.errors import SchemaError, UnknownToolError
from reaper.plan import render_plan
from reaper.prompt import (
    DEFAULT_ROLE,
    DEFAULT_SYSTEM_INSTRUCTION,
    PromptSpec,
    QueryInput,
    adversarial_omit,
    build_prompt,
    load_example_pool,
)

GOLDEN = Path(__file__).parent / "golden" / "prompt_full.txt"


def make_spec(registry, examples=(), query="hi", context=None):
    return PromptSpec(
        role_text=DEFAULT_ROLE,
        system_instruction=DEFAULT_SYSTEM_INSTRUCTION,
        tools=registry,
        examples=tuple(examples),
        input=QueryInput(query, context),
    )


@pytest.fixture(scope="module")
def pool():
    return load_example_pool()


class TestBuildPrompt:
    def test_golden_file(self, registry, pool):
        spec = make_spec(
            registry,
            examples=pool[:2],
            query="how much memory does my galaxy phone have",
            context="Samsung Galaxy S23 128GB",
        )
        assert build_prompt(spec) == GOLDEN.read_text(encoding="utf-8")

    def test_single_tool_no_examples(self, registry):
        spec = make_spec(registry.subset(["no_retrieval"]))
        prompt = build_prompt(spec)
        entries = re.findall(r"(?m)^\d+\. ", prompt)
        assert entries == ["1. "]
        assert "### Examples:" in prompt
        assert prompt.endswith("### Input:\nQuery: hi")

    def test_context_line_present_only_with_context(self, registry):
        with_context = build_prompt(
            make_spec(registry, context="Samsung Galaxy S23 128GB")
        )
        assert "Context: Samsung Galaxy S23 128GB" in with_context
        without = build_prompt(make_spec(registry))
        assert "Context:" not in without

    def test_example_order_changes_bytes(self, registry, pool):
        forward = make_spec(registry, examples=(pool[0], pool[1]))
        backward = make_spec(registry, examples=(pool[1], pool[0]))
        assert build_prompt(forward) != build_prompt(backward)

    def test_deterministic(self, registry, pool):
        spec = make_spec(registry, examples=pool[:3])
        assert build_prompt(spec) == build_prompt(spec)

    def test_tools_listed_in_registry_order(self, registry):
        prompt = build_prompt(make_spec(registry))
        positions = [prompt.index(f" {name} - Tool:") for name in registry.canonical_names]
        assert positions == sorted(positions)

    def test_example_with_unknown_tool_rejected(self, registry, pool):
        subset = registry.subset(["no_retrieval"])
        with pytest.raises(UnknownToolError):
            make_spec(subset, examples=[pool[0]])  # uses shipment_status


def fresh_render(spec: PromptSpec) -> str:
    """The prompt layout written out again, with no reuse of earlier work."""
    out = ["### Role:", spec.role_text, "", "### System Instruction:"]
    out += [spec.system_instruction, "", "Candidate tools:", ""]
    for number, tool in enumerate(spec.tools, start=1):
        signature = ", ".join(
            p.name if p.required else f"{p.name}?" for p in tool.params
        )
        out.append(
            f"{number}. {tool.canonical_name} - Tool: {tool.description} "
            f"Signature: {tool.canonical_name}({signature}). "
            f"Example usage: {tool.example_usage}"
        )
    out += ["", "### Examples:", ""]
    for number, example in enumerate(spec.examples, start=1):
        out.append(f"Example {number}:")
        out.append(f"Query: {example.input.query}")
        if example.input.context is not None:
            out.append(f"Context: {example.input.context}")
        out += ["Plan:", render_plan(example.target_plan), ""]
    out += ["### Input:", f"Query: {spec.input.query}"]
    if spec.input.context is not None:
        out.append(f"Context: {spec.input.context}")
    return "\n".join(out)


class TestSpecVariants:
    """Specs that differ in one part each render their own text, whatever
    spec was rendered before and whichever thread renders it."""

    @pytest.fixture()
    def base(self, registry, pool):
        return make_spec(registry, examples=pool[:3], query="where is my order")

    def variants(self, base, registry, pool):
        examples = base.examples
        return {
            "role": replace(base, role_text=base.role_text + " Be brief."),
            "instruction": replace(
                base, system_instruction="Plan. " + base.system_instruction
            ),
            "registry-copy": replace(
                base, tools=registry.subset(registry.canonical_names)
            ),
            "registry-smaller": replace(
                base, tools=registry.without("customer_support").without("prod_search")
            ),
            "omitted-tool": adversarial_omit(base, "prod_qna"),
            "examples": replace(base, examples=(pool[1], pool[0], pool[2])),
            "fewer-examples": replace(base, examples=examples[:1]),
            "no-examples": replace(base, examples=()),
            "examples-list": PromptSpec(
                base.role_text, base.system_instruction, registry,
                list(examples), base.input,
            ),
            "query": replace(base, input=QueryInput("how much memory")),
            "context": replace(
                base, input=QueryInput("where is my order", "Samsung Galaxy S23")
            ),
        }

    def test_alternating_specs_each_render_their_own_text(self, base, registry, pool):
        for name, other in self.variants(base, registry, pool).items():
            for spec in (base, other, base, other, other, base):
                assert build_prompt(spec) == fresh_render(spec), name

    def test_equal_but_distinct_examples_tuple_gives_equal_text(self, base):
        copy = replace(base, examples=tuple(list(base.examples)))
        assert copy.examples is not base.examples
        assert build_prompt(base) == build_prompt(copy) == fresh_render(base)

    def test_concurrent_builders_each_get_their_own_text(self, base, registry, pool):
        variants = self.variants(base, registry, pool)
        specs = [base] + [variants[name] for name in ("omitted-tool", "role", "context")]
        expected = [fresh_render(spec) for spec in specs]
        start = threading.Barrier(len(specs))
        wrong: list[int] = []

        def build_many(which: int) -> None:
            start.wait()
            for _ in range(2000):
                if build_prompt(specs[which]) != expected[which]:
                    wrong.append(which)

        threads = [
            threading.Thread(target=build_many, args=(which,), daemon=True)
            for which in range(len(specs))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestAdversarialOmit:
    def test_omit_prod_qna(self, registry, pool):
        spec = make_spec(registry, examples=pool)
        omitted = adversarial_omit(spec, "prod_qna")
        assert len(omitted.tools) == 5
        assert not omitted.tools.has_tool("prod_qna")
        prompt = build_prompt(omitted)
        for variant in registry.variants_of("prod_qna"):
            assert variant not in prompt
        # examples using prod_qna are gone, others retained
        remaining_tools = {
            step.tool_name
            for example in omitted.examples
            for step in example.target_plan.steps
        }
        assert "prod_qna" not in remaining_tools
        assert any(
            step.tool_name == "shipment_status"
            for example in omitted.examples
            for step in example.target_plan.steps
        )

    def test_omit_by_variant_name(self, registry, pool):
        spec = make_spec(registry, examples=pool)
        omitted = adversarial_omit(spec, "product_facts")
        assert not omitted.tools.has_tool("prod_qna")

    def test_omit_unused_tool_keeps_examples(self, registry, pool):
        examples = [pool[5]]  # the no_retrieval example
        spec = make_spec(registry, examples=examples)
        omitted = adversarial_omit(spec, "review_summary")
        assert omitted.examples == spec.examples

    def test_omit_from_single_tool_spec(self, registry):
        spec = make_spec(registry.subset(["no_retrieval"]))
        omitted = adversarial_omit(spec, "no_retrieval")
        assert len(omitted.tools) == 0
        prompt = build_prompt(omitted)
        assert "Candidate tools:" in prompt  # legal degenerate prompt

    def test_omit_unknown_tool_raises(self, registry):
        with pytest.raises(UnknownToolError):
            adversarial_omit(make_spec(registry), "compare")

    def test_multi_tool_example_dropped_when_either_tool_omitted(
        self, registry, pool
    ):
        multi = [ex for ex in pool if len(ex.target_plan) > 1][0]
        spec = make_spec(registry, examples=[multi])
        assert adversarial_omit(spec, "shipment_status").examples == ()
        assert adversarial_omit(spec, "prod_qna").examples == ()


def test_query_must_be_non_empty():
    with pytest.raises(ValueError):
        QueryInput("")


def test_pool_covers_all_default_classes(registry, pool):
    used = {
        registry.canonical_of(step.tool_name)
        for example in pool
        for step in example.target_plan.steps
    }
    assert used == set(registry.canonical_names)


POOL_DEFECTS = {
    "not-yaml": ("examples: [unclosed", "-", "not valid YAML"),
    "no-examples-list": ("examples: 3", "examples", "document must be a mapping"),
    "entry-not-a-mapping": ("examples: [hi]", "examples[0]", "expected a mapping"),
    "plan-missing": ("examples: [{query: hi}]", "examples[0].plan", "missing field"),
    "query-missing": (
        "examples:\n  - plan: 'Step 1: no_retrieval()'\n",
        "examples[0].query",
        "missing field",
    ),
    "context-not-a-string": (
        "examples:\n  - {query: hi, context: 5, plan: 'Step 1: no_retrieval()'}\n",
        "examples[0].context",
        "expected a string",
    ),
    "plan-unparseable": (
        "examples:\n  - {query: a, plan: 'Step 1: no_retrieval()'}\n"
        "  - {query: b, plan: 'Step 1 no_retrieval'}\n",
        "examples[1].plan",
        "bad plan: line 1: Syntax",
    ),
}


@pytest.mark.parametrize(
    "text, field, message", POOL_DEFECTS.values(), ids=POOL_DEFECTS.keys()
)
def test_malformed_example_pool_names_path_and_field(tmp_path, text, field, message):
    path = tmp_path / "pool.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaError) as excinfo:
        load_example_pool(path)
    assert str(excinfo.value).startswith(f"{path}: {field}: {message}")


def test_example_pool_from_a_path_equals_the_shipped_pool(tmp_path, pool):
    path = tmp_path / "pool.yaml"
    path.write_text(
        resources.files("reaper.data").joinpath("example_pool.json").read_text("utf-8"),
        encoding="utf-8",
    )
    assert load_example_pool(path) == pool
