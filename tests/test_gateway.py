import pytest

from reaper.gateway import (
    BACKEND_URL_ENV,
    BackendError,
    InvalidFixtureError,
    RemoteBackend,
    ScriptedStub,
    generate_plan,
)
from reaper.plan import ParseErrorKind, PlanParseError, parse_plan, render_plan
from reaper.prompt import (
    DEFAULT_ROLE,
    DEFAULT_SYSTEM_INSTRUCTION,
    INPUT_HEADER,
    PromptSpec,
    QueryInput,
)

from .conftest import GALAXY_PLAN_TEXT
from .httpserve import json_server


def make_spec(registry, query):
    return PromptSpec(
        role_text=DEFAULT_ROLE,
        system_instruction=DEFAULT_SYSTEM_INSTRUCTION,
        tools=registry,
        examples=(),
        input=QueryInput(query),
    )


class TestScriptedStub:
    def test_substring_key_selects_fixture(self, registry):
        stub = ScriptedStub(
            {"my galaxy": GALAXY_PLAN_TEXT}, default="Step 1: no_retrieval()"
        )
        spec = make_spec(registry, "how much memory is on my Galaxy phone")
        plan, _ = generate_plan(stub, spec)
        assert render_plan(plan) == GALAXY_PLAN_TEXT

    def test_unmatched_query_gets_default(self, registry):
        stub = ScriptedStub(
            {"my galaxy": GALAXY_PLAN_TEXT}, default="Step 1: no_retrieval()"
        )
        plan, _ = generate_plan(stub, make_spec(registry, "plain question"))
        assert render_plan(plan) == "Step 1: no_retrieval()"

    def test_key_in_tool_block_does_not_match(self, registry):
        # a key that only occurs outside the input section must not trigger
        stub = ScriptedStub(
            {"Candidate tools": 'Step 1: prod_search(keywords="x")'},
            default="Step 1: no_retrieval()",
        )
        plan, _ = generate_plan(stub, make_spec(registry, "hello"))
        assert render_plan(plan) == "Step 1: no_retrieval()"

    def test_first_matching_key_wins(self, registry):
        stub = ScriptedStub(
            {
                "galaxy": "Step 1: no_retrieval()",
                "memory": GALAXY_PLAN_TEXT,
            },
            default="Step 1: no_retrieval()",
        )
        plan, _ = generate_plan(stub, make_spec(registry, "galaxy memory question"))
        assert len(plan) == 1

    def test_keys_that_fold_alike_match_in_table_order(self):
        # "STRASSE" and "straße" both fold to "strasse"
        a, b = "Step 1: no_retrieval()", 'Step 1: prod_search(keywords="x")'
        prompt = f"Tools: straße\n{INPUT_HEADER}\nQuery: shoes for the STRASSE"
        assert ScriptedStub({"STRASSE": a, "straße": b}, b).complete(prompt)[0] == a
        assert ScriptedStub({"straße": b, "STRASSE": a}, a).complete(prompt)[0] == b
        assert ScriptedStub({"tools": a}, b).complete(prompt)[0] == b

    def test_unparseable_fixture_rejected_at_construction(self):
        with pytest.raises(InvalidFixtureError):
            ScriptedStub({"q": "this is not a plan"}, default="Step 1: a()")
        with pytest.raises(InvalidFixtureError):
            ScriptedStub({}, default="nor is this")

    def test_prose_output_is_syntax_parse_error(self, registry):
        class Prosaic:
            def complete(self, prompt):
                return "I would first look at the shipping records.", 12.0

        with pytest.raises(PlanParseError) as excinfo:
            generate_plan(Prosaic(), make_spec(registry, "hello"))
        assert excinfo.value.kind is ParseErrorKind.SYNTAX
        assert excinfo.value.latency_ms == 12.0

    @pytest.mark.parametrize(
        "text",
        [
            "Step 1: no_retrieval()\n",
            'Step 1: shipment_status(query="order")\r\nStep 2: no_retrieval()\r\n',
        ],
        ids=["trailing-newline", "crlf"],
    )
    def test_line_endings_and_surrounding_whitespace_normalized(
        self, registry, text
    ):
        class Verbatim:
            def complete(self, prompt):
                return text, 1.0

        plan, _ = generate_plan(Verbatim(), make_spec(registry, "hi"))
        assert render_plan(plan) == text.replace("\r\n", "\n").strip()
        with pytest.raises(PlanParseError):
            parse_plan(text)  # the parser itself stays strict

    def test_deterministic(self, registry):
        stub = ScriptedStub({"a": GALAXY_PLAN_TEXT}, "Step 1: no_retrieval()", 5.0)
        spec = make_spec(registry, "a question")
        assert generate_plan(stub, spec) == generate_plan(stub, spec)

    def test_configured_latency_reported(self, registry):
        stub = ScriptedStub({}, "Step 1: no_retrieval()", latency_ms=207.0)
        _, latency = generate_plan(stub, make_spec(registry, "hi"))
        assert latency == 207.0


class TestRemoteBackend:
    def test_round_trip(self, registry):
        def handler(path, body):
            assert path == "/complete"
            assert "max_tokens" in body and "### Input:" in body["prompt"]
            return 200, {"text": "Step 1: no_retrieval()"}

        with json_server(handler) as url:
            plan, latency = generate_plan(
                RemoteBackend(url), make_spec(registry, "hi")
            )
        assert render_plan(plan) == "Step 1: no_retrieval()"
        assert latency > 0.0

    def test_env_var_selects_endpoint(self, registry, monkeypatch):
        with json_server(
            lambda path, body: (200, {"text": "Step 1: no_retrieval()"})
        ) as url:
            monkeypatch.setenv(BACKEND_URL_ENV, url)
            plan, _ = generate_plan(RemoteBackend(), make_spec(registry, "hi"))
        assert len(plan) == 1

    def test_missing_endpoint_configuration(self, monkeypatch):
        monkeypatch.delenv(BACKEND_URL_ENV, raising=False)
        with pytest.raises(BackendError):
            RemoteBackend()

    def test_dead_endpoint_is_backend_error(self, registry):
        backend = RemoteBackend("http://127.0.0.1:9", timeout_s=0.2)
        with pytest.raises(BackendError):
            generate_plan(backend, make_spec(registry, "hi"))

    def test_non_200_is_backend_error(self, registry):
        with json_server(lambda path, body: (500, {})) as url:
            with pytest.raises(BackendError):
                generate_plan(RemoteBackend(url), make_spec(registry, "hi"))

    def test_backend_error_is_not_a_parse_error(self, registry):
        backend = RemoteBackend("http://127.0.0.1:9", timeout_s=0.2)
        with pytest.raises(BackendError):
            generate_plan(backend, make_spec(registry, "hi"))
        # a BackendError never carries a fabricated plan
        assert not issubclass(BackendError, PlanParseError)
