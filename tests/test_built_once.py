"""What depends only on the installed package is built once per process: the
shipped registries, the shipped demonstration and generic pools, and the CLI
parser. A file a caller names is read on every call."""

import builtins
import hashlib
import io
import json
from dataclasses import FrozenInstanceError
from importlib import resources
from pathlib import Path

import pytest
import yaml

import reaper
from reaper.cli import build_parser, main
from reaper.forge import TaskKind, TrainingRecord, load_generic_pool
from reaper.prompt import load_example_pool
from reaper.registry import default_registry, extended_registry, load_registry

from .test_cli import GOLDEN_ARGS, GOLDEN_OUT_SHA256, GOLDEN_TASKS
from .test_forge import reference_generic_records
from .test_registry import COMPATIBLE_PRODUCTS_BLOCK, default_tools_data

DATA_DIR = Path(reaper.__file__).resolve().parent / "data"


def shipped_generic_records():
    text = resources.files("reaper.data").joinpath("generic_pool.jsonl").read_text("utf-8")
    return reference_generic_records(text)


def write_registry(path, *extra_blocks):
    data = default_tools_data()
    data["tools"].extend(extra_blocks)
    path.write_text(yaml.safe_dump(data, sort_keys=False), encoding="utf-8")


def write_generic(path, prompt, count=1):
    record = json.dumps({"prompt": prompt, "target": "t"}) + "\n"
    path.write_text(record * count, encoding="utf-8")


@pytest.mark.parametrize("build", [default_registry, extended_registry, build_parser])
def test_shipped_registries_and_the_parser_are_shared(build):
    assert build() is build()


def test_each_example_pool_call_is_a_new_list_of_the_same_examples():
    first, second = load_example_pool(), load_example_pool()
    assert first is not second
    assert len(first) == len(second) > 0
    assert all(a is b for a, b in zip(first, second))
    first.clear()
    assert len(second) == len(load_example_pool()) > 0


def test_each_generic_pool_call_is_a_new_list_of_the_same_records():
    first, second = load_generic_pool(), load_generic_pool()
    assert first is not second
    assert first == shipped_generic_records()
    assert all(a is b for a, b in zip(first, second, strict=True))
    with pytest.raises(FrozenInstanceError):
        first[0].prompt = "edited"
    del first[2:]
    assert load_generic_pool() == shipped_generic_records()


def test_a_named_registry_is_read_on_every_call(tmp_path):
    path = tmp_path / "tools.yaml"
    write_registry(path)
    assert len(load_registry(path)) == 6
    write_registry(path, COMPATIBLE_PRODUCTS_BLOCK)
    assert load_registry(path).has_tool("compatible_products")


def test_a_named_example_pool_is_read_on_every_call(tmp_path):
    path = tmp_path / "pool.yaml"
    path.write_text("examples:\n  - {query: first, plan: 'Step 1: no_retrieval()'}\n")
    assert [ex.input.query for ex in load_example_pool(path)] == ["first"]
    path.write_text("examples:\n  - {query: second, plan: 'Step 1: no_retrieval()'}\n")
    assert [ex.input.query for ex in load_example_pool(path)] == ["second"]


def test_a_named_generic_pool_is_read_on_every_call(tmp_path):
    path = tmp_path / "generic.jsonl"
    write_generic(path, "first")
    assert load_generic_pool(path) == [
        TrainingRecord("first", "t", TaskKind.GENERIC, "gen-0000")
    ]
    write_generic(path, "second")
    assert load_generic_pool(path) == [
        TrainingRecord("second", "t", TaskKind.GENERIC, "gen-0000")
    ]


def test_a_second_forge_opens_no_packaged_file(tmp_path, capsys, monkeypatch):
    out = tmp_path / "train.jsonl"
    argv = ["forge", "--tasks", str(GOLDEN_TASKS), "--out", str(out), *GOLDEN_ARGS]
    assert main(argv) == 0
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, Path)):
            opened.append(Path(file).resolve())
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(argv) == 0
    monkeypatch.undo()
    assert GOLDEN_TASKS.resolve() in opened  # the count sees the reads
    assert [path for path in opened if DATA_DIR in path.parents] == []
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_OUT_SHA256


def test_named_files_rewritten_between_forges_change_the_output(tmp_path, capsys):
    registry, generic = tmp_path / "tools.yaml", tmp_path / "generic.jsonl"
    out = tmp_path / "train.jsonl"
    argv = ["forge", "--tasks", str(GOLDEN_TASKS), "--out", str(out),
            "--registry", str(registry), "--generic-pool", str(generic), *GOLDEN_ARGS]
    write_registry(registry)
    write_generic(generic, "first generic prompt", count=2)
    assert main(argv) == 0
    first = out.read_text(encoding="utf-8")
    write_registry(registry, COMPATIBLE_PRODUCTS_BLOCK)
    write_generic(generic, "second generic prompt", count=2)
    assert main(argv) == 0
    second = out.read_text(encoding="utf-8")
    accessories = COMPATIBLE_PRODUCTS_BLOCK["description"]
    assert "first generic prompt" in first and accessories not in first
    assert "second generic prompt" in second and accessories in second
    assert "first generic prompt" not in second
