import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reaper.errors import UnknownToolError
from reaper.gateway import Planner, ScriptedStub, generate_plan
from reaper.plan import PlanParseError, parse_plan, validate_plan
from reaper.prompt import (
    DEFAULT_ROLE,
    DEFAULT_SYSTEM_INSTRUCTION,
    InContextExample,
    PromptSpec,
    QueryInput,
    build_prompt,
    load_example_pool,
)
from reaper.registry import default_registry, extended_registry

from .conftest import GALAXY_PLAN_TEXT

STUB = ScriptedStub(
    # the second plan lacks prod_qna's required product_id
    {"galaxy": GALAXY_PLAN_TEXT, "run small": 'Step 1: prod_qna(query="size")'},
    default="Step 1: no_retrieval()",
)


def demonstrations():
    """The shipped pool, then one demonstration per extended-registry tool
    made from its example usage, so every tool has one."""
    return load_example_pool() + [
        InContextExample(
            QueryInput(f"show {tool.canonical_name}"), parse_plan(tool.example_usage)
        )
        for tool in extended_registry()
    ]


@st.composite
def registries(draw):
    base = draw(st.sampled_from([default_registry(), extended_registry()]))
    how = draw(st.sampled_from(["whole", "subset", "without"]))
    if how == "subset":
        names = draw(st.sets(st.sampled_from(base.canonical_names)))
        return base.subset(names)
    if how == "without":
        return base.without(draw(st.sampled_from(base.canonical_names)))
    return base


@st.composite
def planner_inputs(draw):
    registry = draw(registries())
    usable = [
        example
        for example in demonstrations()
        if all(registry.has_tool(step.tool_name) for step in example.target_plan.steps)
    ]
    examples = draw(st.permutations(usable))[: draw(st.integers(0, len(usable)))]
    query = draw(st.text(min_size=1, max_size=40))
    context = draw(st.none() | st.text(max_size=40))
    return registry, tuple(examples), QueryInput(query, context)


@settings(max_examples=150, deadline=None)
@given(planner_inputs())
def test_planner_prompt_equals_build_prompt(inputs):
    registry, examples, query_input = inputs
    spec = PromptSpec(
        DEFAULT_ROLE, DEFAULT_SYSTEM_INSTRUCTION, registry, examples, query_input
    )
    planner = Planner(registry, examples, STUB)
    assert planner.prompt(query_input) == build_prompt(spec)


def test_demonstration_naming_an_absent_tool_raises_at_construction(registry):
    galaxy = load_example_pool()[1]  # shipment_status, then prod_qna
    with pytest.raises(UnknownToolError) as excinfo:
        Planner(registry.without("prod_qna"), [galaxy], STUB)
    assert excinfo.value.name == "prod_qna"


def test_each_turn_plans_and_validates_as_generate_plan_does(registry):
    pool = load_example_pool()[:4]
    planner = Planner(registry, pool, STUB)
    turns = [("my galaxy", None), ("does it run small", "Rain Jacket"), ("hi", None)]
    for query, context in turns:
        spec = PromptSpec(
            DEFAULT_ROLE, DEFAULT_SYSTEM_INSTRUCTION, registry, pool,
            QueryInput(query, context),
        )
        plan, violations, latency = planner.plan(query, context)
        assert plan == generate_plan(STUB, spec)[0]
        assert violations == validate_plan(plan, registry)
        assert latency >= 0.0
    assert planner.plan("does it run small")[1] != []  # returned, not raised


def test_an_unparseable_completion_raises_with_its_latency(registry):
    class Prosaic:
        def complete(self, prompt):
            return "Sure! First I would look up the order.", 12.5

    with pytest.raises(PlanParseError) as excinfo:
        Planner(registry, (), Prosaic()).plan("where is my order")
    assert excinfo.value.latency_ms >= 12.5
