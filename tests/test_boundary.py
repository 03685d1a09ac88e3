"""``post_json`` against a local server, and the one document reader."""

import json
import socket
import sys
import threading
import urllib.request

import pytest
import yaml

from reaper.boundary import post_json, read_document
from reaper.errors import ReaperError, SchemaError
from reaper.forge import load_generic_pool
from reaper.prompt import load_example_pool
from reaper.registry import load_registry

from .httpserve import json_server
from .test_registry import default_tools_data


class ServiceError(ReaperError):
    pass


def post(url, payload=None, timeout_s=2.0):
    return post_json(url, {"q": "mug"} if payload is None else payload,
                     timeout_s, ServiceError)


class TestPostJson:
    def test_round_trip_sends_the_json_text_of_the_payload(self):
        payload = {"prompt": "café \U0001f600", "max_tokens": 5, "x": [1.5, None]}
        received = []
        with json_server(lambda path, body: (200, {"text": "ok"}), received) as url:
            reply, elapsed_ms = post(f"{url}/complete", payload)
        assert reply == {"text": "ok"}
        assert elapsed_ms > 0.0
        assert received == [
            ("application/json", json.dumps(payload, allow_nan=False).encode("utf-8"))
        ]

    def test_a_refused_connection_failed(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        url = f"http://127.0.0.1:{port}/complete"
        with pytest.raises(ServiceError, match=rf"^POST {url} failed: "):
            post(url)

    def test_a_reply_slower_than_the_timeout_failed(self):
        release = threading.Event()

        def handler(path, body):
            release.wait(5.0)
            return 200, {"text": "late"}

        with json_server(handler) as url:
            try:
                with pytest.raises(
                    ServiceError, match=rf"^POST {url}/complete failed: .*timed out"
                ):
                    post(f"{url}/complete", timeout_s=0.2)
            finally:
                release.set()

    @pytest.mark.parametrize("status", [500, 404, 201, 204])
    def test_a_status_other_than_200_is_an_error(self, status):
        with json_server(lambda path, body: (status, {"text": "ok"})) as url:
            with pytest.raises(
                ServiceError, match=rf"^POST {url}/complete returned HTTP {status}$"
            ):
                post(f"{url}/complete")

    def test_a_body_that_is_not_json_is_an_error(self):
        with json_server(lambda path, body: (200, b"<html>busy</html>")) as url:
            with pytest.raises(
                ServiceError, match=rf"^POST {url}/complete returned invalid JSON: "
            ):
                post(f"{url}/complete")

    @pytest.mark.parametrize(
        "reply",
        [b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"text\"", b"garbage\r\n"],
        ids=["body cut short", "no status line"],
    )
    def test_a_broken_reply_failed(self, reply):
        with socket.create_server(("127.0.0.1", 0)) as server:

            def answer():
                conn, _ = server.accept()
                with conn:
                    conn.recv(65536)
                    conn.sendall(reply)

            thread = threading.Thread(target=answer, daemon=True)
            thread.start()
            url = f"http://127.0.0.1:{server.getsockname()[1]}/complete"
            with pytest.raises(ServiceError, match=rf"^POST {url} failed: "):
                post(url)
            thread.join()

    def test_a_nan_in_the_payload_fails_before_any_request(self):
        received = []
        with json_server(lambda path, body: (200, {}), received) as url:
            with pytest.raises(ServiceError, match=rf"^POST {url}/embed failed: "):
                post(f"{url}/embed", {"vector": [float("nan")]})
        assert received == []

    @pytest.mark.parametrize(
        "url",
        [
            "file:///etc/hostname",
            'data:application/json,{"text": "Step 1: no_retrieval()"}',
            "ftp://127.0.0.1/complete",
            "127.0.0.1:8080/complete",
            "localhost/complete",
        ],
    )
    def test_a_scheme_other_than_http_or_https_reads_nothing(self, url, monkeypatch):
        opened = []
        monkeypatch.setattr(
            urllib.request.OpenerDirector, "open", lambda *args, **kw: opened.append(args)
        )
        with pytest.raises(ServiceError, match=r"^POST .* failed: "):
            post(url)
        assert opened == []


# documents that JSON and YAML read differently: the reader reads them as JSON
JSON_NOT_YAML = {
    "surrogate-pair escape": '{"d": "smile \\ud83d\\ude00"}',
    "raw U+0085": '{"d": "a\u0085b"}',
    "exponent": '{"n": 1e3}',
    "NaN": '{"n": NaN}',
}


@pytest.mark.parametrize("name", sorted(JSON_NOT_YAML))
def test_text_that_parses_as_json_is_read_as_json(name, tmp_path):
    path = tmp_path / "pool.yaml"  # the name does not decide
    path.write_text(JSON_NOT_YAML[name], encoding="utf-8")
    data = read_document(path, str(path))
    assert json.dumps(data) == json.dumps(json.loads(JSON_NOT_YAML[name]))


def test_other_text_is_read_as_yaml(tmp_path):
    text = "examples:\n  - query: hi\n    plan: 'Step 1: no_retrieval()'\n"
    path = tmp_path / "pool.json"
    path.write_text(text, encoding="utf-8")
    assert read_document(path, str(path)) == yaml.safe_load(text)


def test_yaml_without_pyyaml_names_the_file_and_the_extra(tmp_path, monkeypatch):
    path = tmp_path / "tools.yaml"
    path.write_text("tools: []\n", encoding="utf-8")
    monkeypatch.setitem(sys.modules, "yaml", None)
    with pytest.raises(SchemaError, match=r"reaper-toolkit\[yaml\]") as caught:
        read_document(path, str(path))
    assert caught.value.path == str(path)
    # JSON text still reads
    path.write_text('{"tools": []}', encoding="utf-8")
    assert read_document(path, str(path)) == {"tools": []}


def _registry_outcome(path):
    """What loading the registry ``path`` gives: its tools, or the error."""
    try:
        return list(load_registry(path))
    except SchemaError as exc:
        return exc.path, exc.field, str(exc)


def test_a_yaml_registry_reads_alike_with_libyaml_present_and_hidden(
    tmp_path, monkeypatch
):
    # a "\ud83d\ude00" escape in YAML reads as two lone surrogates, which
    # libyaml's parser rejects as a scanner error: one parser serves every
    # install, and the surrogates are named as the field's defect
    data = default_tools_data()
    data["tools"][0]["description"] = "SURROGATES"
    bad = tmp_path / "bad.yaml"
    text = yaml.safe_dump(data, sort_keys=False)
    bad.write_text(text.replace("SURROGATES", '"smile \\ud83d\\ude00"'), "utf-8")
    good = tmp_path / "good.yaml"
    good.write_text(text.replace("SURROGATES", "smile \U0001f600"), "utf-8")
    with_libyaml = [_registry_outcome(bad), _registry_outcome(good)]
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert [_registry_outcome(bad), _registry_outcome(good)] == with_libyaml
    assert with_libyaml[0] == (
        str(bad), "tools[0].description",
        f"{bad}: tools[0].description: lone surrogate '\\ud83d'",
    )
    spec = load_registry(good).entry(data["tools"][0]["canonical_name"])[0]
    assert spec.description == "smile \U0001f600"


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda tools: tools[0].update(description="x \ud83d"), "tools[0].description"),
        (
            lambda tools: tools[1]["description_paraphrases"].insert(0, "\udfff y"),
            "tools[1].description_paraphrases[0]",
        ),
        (
            lambda tools: tools[2]["params"][0].update(description="\udc00"),
            "tools[2].params[0].description",
        ),
    ],
    ids=["description", "paraphrase", "param description"],
)
def test_a_lone_surrogate_in_a_json_registry_is_named(tmp_path, edit, field):
    data = default_tools_data()
    edit(data["tools"])
    path = tmp_path / "tools.json"
    path.write_text(json.dumps(data), encoding="utf-8")  # escapes it as \uXXXX
    with pytest.raises(SchemaError) as caught:
        load_registry(path)
    assert (caught.value.path, caught.value.field) == (str(path), field)
    assert "lone surrogate" in str(caught.value)


def test_a_lone_surrogate_in_a_pool_is_named(tmp_path):
    examples = tmp_path / "pool.json"
    entry = {"query": "where is \ud83d my order", "plan": "Step 1: no_retrieval()"}
    examples.write_text(json.dumps({"examples": [entry]}), encoding="utf-8")
    with pytest.raises(SchemaError) as caught:
        load_example_pool(examples)
    assert (caught.value.path, caught.value.field) == (str(examples), "examples[0].query")
    generic = tmp_path / "generic.jsonl"
    generic.write_text(json.dumps({"prompt": "p", "target": "t \udfff"}) + "\n")
    with pytest.raises(SchemaError) as caught:
        load_generic_pool(generic)
    assert (caught.value.path, caught.value.field) == (str(generic), "line 1.target")
