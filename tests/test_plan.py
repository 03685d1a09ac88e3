import functools
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reaper.plan import (
    _STRING_BODY,
    _LineParser,
    _match_step,
    ContextRef,
    Literal,
    ParseErrorKind,
    Plan,
    PlanParseError,
    PlanStep,
    StepRef,
    parse_plan,
    rename_tools,
    render_plan,
    tool_sequence,
    validate_plan,
)

from .conftest import GALAXY_PLAN_TEXT
from .plangen import TOOLS, random_plan


class TestParse:
    def test_minimal_plan(self):
        plan = parse_plan("Step 1: no_retrieval()")
        assert len(plan) == 1
        assert plan.steps[0].tool_name == "no_retrieval"
        assert plan.steps[0].args == ()

    def test_two_step_hand_trace(self):
        plan = parse_plan(GALAXY_PLAN_TEXT)
        assert len(plan) == 2
        first, second = plan.steps
        assert first.tool_name == "shipment_status"
        assert first.args == (("query", Literal("galaxy phone order")),)
        assert second.tool_name == "prod_qna"
        assert second.args == (
            ("product_id", StepRef(1, "product_id")),
            ("query", Literal("memory capacity")),
        )

    def test_context_reference(self):
        plan = parse_plan('Step 1: review_summary(product_id=$context.product_id)')
        assert plan.steps[0].args == (("product_id", ContextRef("product_id")),)

    def test_bare_step_reference(self):
        plan = parse_plan('Step 1: prod_search(keywords="mug")\nStep 2: prod_qna(product_id=$1, query="size")')
        assert plan.steps[1].args[0] == ("product_id", StepRef(1, None))

    def test_dotted_field_path(self):
        plan = parse_plan('Step 1: alpha_tool()\nStep 2: beta_tool(x=$1.a.b)')
        assert plan.steps[1].args[0] == ("x", StepRef(1, "a.b"))

    def test_two_digit_step_indices(self):
        text = "\n".join(f"Step {i}: tool_{i}()" for i in range(1, 13))
        plan = parse_plan(text)
        assert len(plan) == 12
        assert render_plan(plan) == text

    def test_leading_zero_index_normalizes(self):
        # "01" is accepted as the integer 1; rendering canonicalizes it
        plan = parse_plan("Step 01: a()")
        assert render_plan(plan) == "Step 1: a()"

    def test_escapes_decode(self):
        plan = parse_plan('Step 1: a(x="q\\"\\\\\\n\\z")')
        assert plan.steps[0].args == (("x", Literal('q"\\\nz')),)

    def test_context_ref_takes_a_single_identifier(self):
        # no dotted paths after $context.<field>
        with pytest.raises(PlanParseError) as excinfo:
            parse_plan("Step 1: a(x=$context.a.b)")
        assert excinfo.value.kind is ParseErrorKind.SYNTAX


class TestParseErrors:
    def err(self, text):
        with pytest.raises(PlanParseError) as excinfo:
            parse_plan(text)
        return excinfo.value

    def test_self_reference_is_forward_ref(self):
        error = self.err("Step 1: prod_qna(query=$1)")
        assert error.kind is ParseErrorKind.FORWARD_REF
        assert error.line == 1

    def test_forward_reference(self):
        error = self.err("Step 1: a()\nStep 2: b(x=$2)")
        assert error.kind is ParseErrorKind.FORWARD_REF
        assert error.line == 2

    def test_zero_reference(self):
        assert self.err("Step 1: a(x=$0)").kind is ParseErrorKind.FORWARD_REF

    def test_index_gap_at_start(self):
        error = self.err("Step 2: a()")
        assert error.kind is ParseErrorKind.INDEX_GAP
        assert error.line == 1

    def test_index_gap_in_middle(self):
        error = self.err("Step 1: a()\nStep 3: b()")
        assert error.kind is ParseErrorKind.INDEX_GAP
        assert error.line == 2

    def test_duplicate_param(self):
        error = self.err('Step 1: a(x="1", x="2")')
        assert error.kind is ParseErrorKind.DUPLICATE_PARAM

    def test_prose_is_syntax_error(self):
        error = self.err("Sorry, here is what I would do instead.")
        assert error.kind is ParseErrorKind.SYNTAX

    def test_unterminated_string_is_lex_error(self):
        assert self.err('Step 1: a(x="oops)').kind is ParseErrorKind.LEX

    def test_uppercase_tool_is_lex_error(self):
        assert self.err("Step 1: Compare()").kind is ParseErrorKind.LEX

    def test_bare_value_is_syntax_error(self):
        assert self.err("Step 1: a(x=hello)").kind is ParseErrorKind.SYNTAX

    def test_trailing_newline_rejected(self):
        error = self.err("Step 1: a()\n")
        assert error.kind is ParseErrorKind.SYNTAX
        assert error.line == 2

    def test_missing_space_after_comma(self):
        assert self.err('Step 1: a(x="1",y="2")').kind is ParseErrorKind.SYNTAX

    def test_trailing_garbage(self):
        assert self.err("Step 1: a() and then some").kind is ParseErrorKind.SYNTAX

    @pytest.mark.parametrize(
        "text, line",
        [
            ("Step \u00b2: x()", 1),
            ("Step \u0663: x()", 1),
            ("Step \uff11: x()", 1),
            ("Step 1: a()\nStep 2: x\u00b2()", 2),
            ('Step 1: a()\nStep 2: b(a\u00b2="1")', 2),
            ("Step 1: a()\nStep 2: b(x=$1.f\u00b2)", 2),
            ("Step 1: a()\nStep 2: b(x=$\uff11)", 2),
            ("Step 1: a()\nStep 2: b(x=$1\u0663)", 2),
        ],
        ids=["index-superscript", "index-arabic-indic", "index-fullwidth",
             "tool-name", "param-name", "field-path", "ref-fullwidth",
             "ref-trailing-arabic-indic"],
    )
    def test_non_ascii_digit_is_parse_error(self, text, line):
        # str.isdigit() accepts these; the grammar's digits are ASCII only
        error = self.err(text)
        assert (error.kind, error.line) == (ParseErrorKind.SYNTAX, line)

    def test_first_error_in_document_order(self):
        # line 1 is fine, line 2 has both an index gap and a later bad arg;
        # the index gap comes first
        error = self.err("Step 1: a()\nStep 3: b(x=@)")
        assert error.kind is ParseErrorKind.INDEX_GAP
        assert error.line == 2


class TestRender:
    def test_minimal(self):
        plan = Plan((PlanStep(1, "no_retrieval"),))
        assert render_plan(plan) == "Step 1: no_retrieval()"

    def test_quote_escaping(self):
        plan = Plan((PlanStep(1, "a", (("x", Literal('say "hi"')),)),))
        rendered = render_plan(plan)
        assert rendered == 'Step 1: a(x="say \\"hi\\"")'
        assert parse_plan(rendered) == plan

    def test_backslash_escaping(self):
        plan = Plan((PlanStep(1, "a", (("x", Literal("tail\\")),)),))
        assert parse_plan(render_plan(plan)) == plan

    def test_newline_escaping(self):
        # a literal newline must not break the one-step-per-line format
        plan = Plan((PlanStep(1, "a", (("x", Literal("two\nlines")),)),))
        rendered = render_plan(plan)
        assert "\n" not in rendered[len("Step 1: ") :]
        assert parse_plan(rendered) == plan

    def test_two_step_round_trip_is_byte_identical(self):
        # the fixture text is already canonical
        assert render_plan(parse_plan(GALAXY_PLAN_TEXT)) == GALAXY_PLAN_TEXT


class TestValidate:
    def test_valid_plan_has_no_violations(self, registry, galaxy_plan):
        assert validate_plan(galaxy_plan, registry) == []

    def test_unknown_tool_flagged(self, registry):
        plan = parse_plan('Step 1: compare(query="a vs b")')
        violations = validate_plan(plan, registry)
        assert [v.kind for v in violations] == ["UnknownTool"]
        assert violations[0].tool_name == "compare"

    def test_missing_required_param(self, registry):
        plan = parse_plan('Step 1: prod_qna(product_id="B0X")')
        violations = validate_plan(plan, registry)
        assert [(v.kind, v.param) for v in violations] == [("MissingParam", "query")]

    def test_unknown_param(self, registry):
        plan = parse_plan('Step 1: no_retrieval(mode="fast")')
        violations = validate_plan(plan, registry)
        assert [(v.kind, v.param) for v in violations] == [("UnknownParam", "mode")]

    def test_variant_name_is_valid(self, registry):
        plan = parse_plan('Step 1: product_facts(product_id="B0X", query="size")')
        assert validate_plan(plan, registry) == []

    def test_one_violation_per_defect(self, registry):
        plan = parse_plan('Step 1: prod_qna(mode="fast")')
        kinds = sorted(v.kind for v in validate_plan(plan, registry))
        assert kinds == ["MissingParam", "MissingParam", "UnknownParam"]


class TestToolSequence:
    def test_two_step(self, registry, galaxy_plan):
        assert tool_sequence(galaxy_plan, registry) == [
            "shipment_status",
            "prod_qna",
        ]

    def test_variant_normalized(self, registry):
        plan = parse_plan('Step 1: product_facts(product_id="B0X", query="size")')
        assert tool_sequence(plan, registry) == ["prod_qna"]

    def test_no_retrieval(self, registry):
        plan = parse_plan("Step 1: no_retrieval()")
        assert tool_sequence(plan, registry) == ["no_retrieval"]

    def test_unknown_tool_raises(self, registry):
        from reaper.errors import UnknownToolError

        plan = parse_plan("Step 1: compare()")
        with pytest.raises(UnknownToolError):
            tool_sequence(plan, registry)


def test_rename_tools(galaxy_plan):
    renamed = rename_tools(galaxy_plan, {"prod_qna": "product_facts"})
    assert [s.tool_name for s in renamed.steps] == ["shipment_status", "product_facts"]
    # unmapped names and arguments are untouched; an unchanged step is reused
    assert renamed.steps[0] is galaxy_plan.steps[0]
    assert renamed.steps[1].args is galaxy_plan.steps[1].args


def test_rename_tools_rejects_a_name_that_is_not_an_identifier(galaxy_plan):
    with pytest.raises(ValueError, match="'Bad-Name'"):
        rename_tools(galaxy_plan, {"prod_qna": "Bad-Name"})


class TestInvariants:
    def test_plan_requires_contiguous_indices(self):
        with pytest.raises(ValueError):
            Plan((PlanStep(2, "a"),))
        with pytest.raises(ValueError):
            Plan((PlanStep(1, "a"), PlanStep(3, "b")))

    def test_plan_requires_steps(self):
        with pytest.raises(ValueError):
            Plan(())

    def test_step_rejects_forward_reference(self):
        with pytest.raises(ValueError):
            PlanStep(1, "a", (("x", StepRef(1, None)),))

    def test_seeded_generator_round_trip(self):
        rng = random.Random(99)
        for _ in range(200):
            plan = random_plan(rng)
            assert parse_plan(render_plan(plan)) == plan

    def test_canonicalization_idempotent(self):
        rng = random.Random(7)
        for _ in range(100):
            rendered = render_plan(random_plan(rng))
            assert render_plan(parse_plan(rendered)) == rendered


# the language of [a-z][a-z0-9_]{0,8}, drawn without the regex strategy,
# which costs far more per draw
_identifiers = st.builds(
    str.__add__,
    st.sampled_from("abcdefghijklmnopqrstuvwxyz"),
    st.text("abcdefghijklmnopqrstuvwxyz0123456789_", max_size=8),
)
_literals = st.builds(Literal, st.text(max_size=15))
_context_refs = st.builds(ContextRef, _identifiers)


@functools.cache  # strategies are immutable; building one per draw is slow
def _steps_strategy(index: int):
    ref_values = (
        [
            st.builds(
                StepRef,
                st.integers(min_value=1, max_value=index - 1),
                st.one_of(st.none(), _identifiers),
            )
        ]
        if index > 1
        else []
    )
    values = st.one_of(_literals, _context_refs, *ref_values)
    args = st.lists(
        st.tuples(_identifiers, values), max_size=3, unique_by=lambda kv: kv[0]
    )
    return st.builds(
        PlanStep, st.just(index), _identifiers, args.map(tuple)
    )


@st.composite
def plans(draw):
    count = draw(st.integers(min_value=1, max_value=5))
    return Plan(tuple(draw(_steps_strategy(i)) for i in range(1, count + 1)))


@settings(max_examples=200, deadline=None)
@given(plans())
def test_property_round_trip(plan):
    assert parse_plan(render_plan(plan)) == plan


def _rebuilt(plan: Plan) -> Plan:
    """``plan`` built again through the validating constructors."""
    return Plan(tuple(PlanStep(s.index, s.tool_name, s.args) for s in plan.steps))


@settings(max_examples=100, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.dictionaries(st.sampled_from(TOOLS), _identifiers, max_size=3),
)
def test_trusted_constructors_equal_validating_ones(rng, mapping):
    # parse_plan and rename_tools build steps without re-running the checks
    # of PlanStep(...)
    parsed = parse_plan(render_plan(random_plan(rng)))
    for plan in (parsed, rename_tools(parsed, mapping)):
        rebuilt = _rebuilt(plan)
        assert type(plan.steps) is tuple
        assert plan == rebuilt
        assert hash(plan) == hash(rebuilt)
        assert render_plan(plan) == render_plan(rebuilt)


def _diagnostic_parse(text: str) -> Plan:
    """``parse_plan`` with every line going through ``_LineParser``."""
    return Plan(
        tuple(
            _LineParser(line, line_no).parse()
            for line_no, line in enumerate(text.split("\n"), start=1)
        )
    )


def _outcome(parse, text: str):
    try:
        return parse(text)
    except PlanParseError as exc:
        return (exc.kind, exc.line, exc.message)


# Characters that make or break the grammar, and digits that are not ASCII.
_GRAMMAR_CHARS = 'Step:()$.,=" \\_01239axzA\u00b2\u0663\uff11'


def _edit(text: str, rng: random.Random, char: str) -> str:
    """``text`` with one character replaced by ``char``, deleted, or with
    ``char`` inserted; the edit may leave the plan valid."""
    at = rng.randrange(len(text) + 1)
    edit = rng.choice(["replace", "delete", "insert"])
    if edit == "insert":
        return text[:at] + char + text[at:]
    at = min(at, len(text) - 1)
    return text[:at] + ("" if edit == "delete" else char) + text[at + 1:]


@settings(max_examples=20, deadline=None)
@given(
    plans(),
    st.randoms(use_true_random=False),
    st.lists(st.characters(), min_size=8, max_size=8),
)
def test_regex_path_agrees_with_the_line_parser(plan, rng, chars):
    # parse_plan matches a valid line with regexes and sends any other line
    # to _LineParser: every text gives equal plans or the same error
    text = render_plan(plan)
    for line_no, (line, step) in enumerate(zip(text.split("\n"), plan.steps), start=1):
        assert _match_step(line, line_no) == step
    chars += [rng.choice(_GRAMMAR_CHARS) for _ in range(300)]
    for char in chars:
        edited = _edit(text, rng, char)
        assert _outcome(parse_plan, edited) == _outcome(_diagnostic_parse, edited), edited


@pytest.mark.parametrize(
    "text",
    [
        'Step 1: a(x="1", x="2")',
        'Step 1: a()\nStep 2: b(x=$1, y="2", x=$1.f)',
        "Step 1: a(x=$1)",
        "Step 1: a()\nStep 2: b(x=$3.f)",
        "Step 2: a()",
        "Step 1: a()\nStep 1: b()",
        "Step 1: a()\nStep 02: b(x=$01.f)",
        'Step 1: a(x="1"))',
        'Step 1: a(x="1") ',
        'Step 1: a(x="1", )',
        "Step 1: a(x=$context.f.g)",
        "Step 1: a(x=$context)",
        "Step 1: a()\nStep 2: b(x=$1x)",
        "Step 1: a()\nStep 2: b(x=$1.)",
        'Step 1: a(x="\\q\\"\\n")',
        # long, escape-heavy literals, valid and not
        'Step 1: a(x="' + '\\"\\\\ab' * 200 + '")',
        'Step 1: a(x="' + "x" * 2000 + '", y="' + "\\\\" * 500 + '")',
        'Step 1: a(x="' + "\\" * 501 + '")',
        'Step 1: a(x="' + "\\q" * 300 + '\\")',
        'Step 1: a(x="' + '\\"' * 300 + '", y="' + "\\n" * 300,
        "Step 1: a(",
        "Step 1: a()\n",
        "",
    ],
)
def test_lines_the_regexes_turn_down_agree_too(text):
    assert _outcome(parse_plan, text) == _outcome(_diagnostic_parse, text)


@pytest.mark.parametrize(
    "body", ['\\"\\\\ab' * 200, "x" * 2000, "\\\\" * 500, '\\n\\"' * 300, ""]
)
def test_long_escape_heavy_literals_take_the_regex_path(body):
    line = f'Step 1: a(x="{body}", y="{body}")'
    assert _match_step(line, 1) == _LineParser(line, 1).parse()


def test_string_body_matches_the_language_of_its_alternation_form():
    # the unrolled loop ``[^"\\]*(?:\\.[^"\\]*)*`` against ``(?:[^"\\]|\\.)*``
    # on every string of up to seven characters over a quote, a backslash
    # and a letter
    unrolled = re.compile(_STRING_BODY)
    alternation = re.compile(r'(?:[^"\\]|\\.)*')
    for n in range(8):
        for chars in itertools.product('"\\a', repeat=n):
            text = "".join(chars)
            assert bool(unrolled.fullmatch(text)) == bool(alternation.fullmatch(text))
            assert unrolled.match(text).end() == alternation.match(text).end()
