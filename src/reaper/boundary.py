"""Where data enters and leaves the toolkit. It enters as JSON posted to
a remote service over the standard library's HTTP client (``post_json``),
JSONL files (``read_jsonl``) and registry and pool documents, shipped or
named (``read_document``); it leaves as output files, each written whole by
``write_output``. Malformed input raises a typed error: the caller's error
class for a service, :class:`SchemaError` with the file (and the line, for
JSONL) for a file. A document is read as YAML only if it is not JSON, so
only a YAML file imports PyYAML, the optional ``[yaml]`` extra.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import ReaperError, SchemaError
from .plan import Plan, PlanParseError, parse_plan

if TYPE_CHECKING:
    from importlib.resources.abc import Traversable


def post_json(
    url: str, payload: object, timeout_s: float, error_cls: type[ReaperError]
) -> tuple[object, float]:
    """POST ``payload`` as JSON to an http or https URL; returns the decoded
    reply and the elapsed milliseconds. ``timeout_s`` bounds each socket
    operation (the connect, each read), not the whole call. Any other scheme,
    a payload with NaN, a transport failure, a reply but HTTP 200 or an
    undecodable body raises ``error_cls``; the first two before any I/O."""
    import http.client  # deferred: a process that never posts never loads them
    import urllib.error
    import urllib.request

    started = time.perf_counter()
    try:
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        request = urllib.request.Request(url, body, {"Content-Type": "application/json"})
        if request.type not in ("http", "https"):
            raise ValueError(f"unsupported URL scheme {request.type!r}")
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            status, raw = response.status, response.read()
    except urllib.error.HTTPError as exc:
        exc.close()
        raise error_cls(f"POST {url} returned HTTP {exc.code}") from exc
    except (OSError, ValueError, http.client.HTTPException) as exc:
        raise error_cls(f"POST {url} failed: {exc}") from exc
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if status != 200:
        raise error_cls(f"POST {url} returned HTTP {status}")
    try:
        return json.loads(raw), elapsed_ms
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


def read_document(source: Path | Traversable, path: str) -> object:
    """The registry or pool document in ``source``, named ``path`` in
    errors. Text that parses as JSON is read with :mod:`json`, whatever the
    file is called, so surrogate-pair escapes, a raw U+0085, ``1e3`` and
    ``NaN`` read as JSON reads them; only other text is read as YAML."""
    text = source.read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except ValueError:
        return read_yaml(text, path)


def read_yaml(text: str, path: str) -> object:
    """The YAML document ``text`` read from ``path``, with safe tags only;
    text that is not YAML, or PyYAML not installed, raises."""
    try:
        import yaml  # deferred: JSON text never needs it
    except ImportError:
        hint = "not JSON; reading YAML needs PyYAML: pip install 'reaper-toolkit[yaml]'"
        raise SchemaError(path, "-", hint) from None
    # the pure-Python parser on every install: libyaml's, where PyYAML is
    # built with it, rejects a "\ud83d" escape that this one reads as a
    # lone surrogate, which typed_field then names
    try:
        return yaml.load(text, Loader=yaml.SafeLoader)
    except yaml.YAMLError as exc:
        raise SchemaError(path, "-", f"not valid YAML: {exc}") from exc


def typed_field(
    mapping: dict, key: str, kind: type, path: str, where: str, optional: bool = False
):
    """``mapping[key]``, checked to be a ``kind`` (bool, str or list); an
    optional field that is absent or null reads as None. A string, or a
    string in a list, that holds a lone surrogate raises: JSON's ``\\ud83d``
    escape and YAML's read as one, and no UTF-8 output can hold it."""
    if optional and mapping.get(key) is None:
        return None
    if key not in mapping:
        raise SchemaError(path, f"{where}.{key}", "missing field")
    value = mapping[key]
    if not isinstance(value, kind):
        noun = {bool: "a boolean", str: "a string", list: "a list"}[kind]
        raise SchemaError(path, f"{where}.{key}", f"expected {noun}")
    if kind is str and not value.isascii():  # ASCII text is not encoded
        _check_encodable(value, path, f"{where}.{key}")
    elif kind is list:
        for i, item in enumerate(value):
            if isinstance(item, str) and not item.isascii():
                _check_encodable(item, path, f"{where}.{key}[{i}]")
    return value


def _check_encodable(text: str, path: str, field: str) -> None:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        surrogate = text[exc.start]
        raise SchemaError(path, field, f"lone surrogate {surrogate!r}") from None


def plan_field(mapping: dict, key: str, path: str, where: str) -> Plan:
    """``mapping[key]`` parsed as a plan; unparseable text raises."""
    try:
        return parse_plan(typed_field(mapping, key, str, path, where))
    except PlanParseError as exc:
        raise SchemaError(path, f"{where}.{key}", f"bad plan: {exc}") from exc


def write_output(out: str | Path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` as the whole file ``out``, replacing any file there.

    The bytes go to ``<out>.tmp`` beside it; then the old file, if there is
    one, is removed, and the new one is renamed into the free name. A
    failure before that swap, while ``chunks`` is produced or written,
    leaves the old file byte for byte and no ``.tmp`` file, so no reader
    ever sees a partial file; between the removal and the rename the path
    is absent. Nothing renames or truncates over an existing file: on ext4
    either forces the new data to disk, and rewriting the same outputs again
    then waits for the disk. The file is not fsynced either, since every
    output can be rebuilt from its inputs and seed."""
    out = Path(out)
    tmp = out.with_name(out.name + ".tmp")
    try:
        with tmp.open("wb") as handle:
            handle.writelines(chunks)
        out.unlink(missing_ok=True)
        os.rename(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
