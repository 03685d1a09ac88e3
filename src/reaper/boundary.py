"""The places where data enters the toolkit: JSON posted to a remote
service (``post_json``), JSONL files (``read_jsonl``) and the YAML documents
a caller names (``read_yaml``). Malformed input raises a typed error: the
caller's error class for a service, :class:`SchemaError` with the file (and
the line, for JSONL) for a file. The files the package ships are JSON, read
with :func:`json.loads`, so a process that names no YAML file never imports
PyYAML.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from .errors import ReaperError, SchemaError
from .plan import Plan, PlanParseError, parse_plan

if TYPE_CHECKING:
    from importlib.resources.abc import Traversable


def post_json(
    url: str, payload: object, timeout_s: float, error_cls: type[ReaperError]
) -> tuple[object, float]:
    """POST ``payload`` as JSON; returns the decoded reply and the elapsed
    milliseconds. Transport failures, non-200 responses and undecodable
    bodies raise ``error_cls``."""
    import requests  # deferred: a process that never posts never loads it

    started = time.perf_counter()
    try:
        response = requests.post(url, json=payload, timeout=timeout_s)
    except requests.RequestException as exc:
        raise error_cls(f"POST {url} failed: {exc}") from exc
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if response.status_code != 200:
        raise error_cls(f"POST {url} returned HTTP {response.status_code}")
    try:
        return response.json(), elapsed_ms
    except ValueError as exc:
        raise error_cls(f"POST {url} returned invalid JSON: {exc}") from exc


def read_jsonl(source: Path | Traversable) -> Iterator[tuple[str, dict]]:
    """``("line N", record)`` for each non-blank line of a JSONL file or
    packaged resource; a line that is not a JSON object raises.

    Lines end at ``\n`` only: reading decodes ``\r\n`` and ``\r`` to it,
    and U+2028, U+2029 and U+0085, which ``str.splitlines`` would also
    split at, are legal raw inside a JSON string."""
    text = source.read_text(encoding="utf-8")
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        where = f"line {line_no}"
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise SchemaError(str(source), where, f"not valid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise SchemaError(str(source), where, "expected a JSON object")
        yield where, record


def read_yaml(text: str, path: str) -> object:
    """The YAML document ``text`` read from ``path``, with safe tags only;
    text that is not YAML raises."""
    import yaml  # deferred: only a file a caller names is YAML

    # libyaml's parser where PyYAML was built with it, else the pure-Python
    # one; both load a document to equal data, and libyaml is several times
    # faster
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        return yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        raise SchemaError(path, "-", f"not valid YAML: {exc}") from exc


def typed_field(
    mapping: dict, key: str, kind: type, path: str, where: str, optional: bool = False
):
    """``mapping[key]``, checked to be a ``kind`` (bool, str or list); an
    optional field that is absent or null reads as None."""
    if optional and mapping.get(key) is None:
        return None
    if key not in mapping:
        raise SchemaError(path, f"{where}.{key}", "missing field")
    value = mapping[key]
    if kind is bool and not isinstance(value, bool):
        raise SchemaError(path, f"{where}.{key}", "expected a boolean")
    if kind is str and not isinstance(value, str):
        raise SchemaError(path, f"{where}.{key}", "expected a string")
    if kind is list and not isinstance(value, list):
        raise SchemaError(path, f"{where}.{key}", "expected a list")
    return value


def plan_field(mapping: dict, key: str, path: str, where: str) -> Plan:
    """``mapping[key]`` parsed as a plan; unparseable text raises."""
    try:
        return parse_plan(typed_field(mapping, key, str, path, where))
    except PlanParseError as exc:
        raise SchemaError(path, f"{where}.{key}", f"bad plan: {exc}") from exc
