"""The retrieval-plan language: parsing, rendering, validation, canonicalization.

A plan is a list of numbered tool calls, one per line:

    Step 1: shipment_status(query="galaxy phone order")
    Step 2: prod_qna(product_id=$1.product_id, query="memory capacity")

Step indices run contiguously from 1. Argument values are double-quoted
literals, references to an earlier step's output (``$k`` for the whole
output, ``$k.field.path`` for a named field), or references to a page-context
field (``$context.field``). A step may only reference steps strictly before
it, so every plan is a DAG expressed as a linear list with back-references.

``parse_plan`` is strict and fail-fast: it accepts exactly the grammar above
and raises :class:`PlanParseError` at the first defect in document order.
Registry-aware checks (unknown tools, missing parameters) are not parse
errors; they are reported as :class:`Violation` values by ``validate_plan``.

Each line takes one of two paths, chosen by the line itself. The regex path
matches a valid line whole: one regex for the ``Step N: tool(`` header, then
one per ``name=value`` followed by ``, `` or by the ``)`` that ends the line,
with the lexer's ASCII token classes, and then checks the index, duplicate
parameters and back-references. Any line it turns down goes to the
diagnostic path, the recursive-descent ``_LineParser``, which either parses
it too or raises the error; so every :class:`PlanParseError`, its kind, line
and message, comes from ``_LineParser`` alone.

``PlanStep(...)`` and ``Plan(...)`` check every invariant of a step and a
plan, so a plan cannot be built invalid. Two callers build steps through the
private ``_trusted`` instead, which checks nothing: ``parse_plan``, whose two
paths enforce each step invariant before a step exists, and ``rename_tools``,
whose input steps are valid and which checks the one tool name it changes.
Both build their plan through ``_trusted`` too: a parsed plan has a step for
every line, numbered from 1 by line, and a renamed plan keeps its input's
steps and indices. The executor builds its trace entries, which have no
checks to skip, through ``_trusted`` as well.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Mapping, NoReturn, TypeVar, Union

from .errors import ReaperError, UnknownToolError

if TYPE_CHECKING:
    from .registry import ToolRegistry, ToolSpec

# The DSL's three tokens: an integer, an identifier and a string literal's
# body. The classes are ASCII: ``str.isdigit`` would also accept digits such
# as ``²``. A line never holds a newline, so ``.`` after a backslash takes
# any char.
_INT = r"[0-9]+"
_IDENT = r"[a-z][a-z0-9_]*"
_STRING_BODY = r'[^"\\]*(?:\\.[^"\\]*)*'

IDENT_RE = re.compile(rf"{_IDENT}\Z")

# Tokens of the line lexer, matched at a position with ``Pattern.match``.
_INT_TOKEN = re.compile(_INT)
_IDENT_TOKEN = re.compile(_IDENT)
_STRING_TOKEN = re.compile(f'"({_STRING_BODY})"')
_ESCAPE = re.compile(r"\\(.)")

# The whole-line fast path: the ``Step N: tool(`` header, then one match per
# ``name=value`` followed by ``, `` or by the ``)`` that ends the line. The
# value groups are a string literal's body, a step reference's number and
# ``.field`` path, and a context field.
_HEADER = re.compile(rf"Step ({_INT}): ({_IDENT})\(")
_ARG = re.compile(
    rf'({_IDENT})=(?:"({_STRING_BODY})"'
    rf"|\$({_INT})((?:\.{_IDENT})*)|\$context\.({_IDENT}))"
    r"(?:, |(\))\Z)"
)

# Characters that may legally appear outside string literals. Anything else
# encountered where a token is expected is a lexical error rather than a
# structural one.
_BARE_CHARS = frozenset('abcdefghijklmnopqrstuvwxyz0123456789_"$.,()=: ')


class ParseErrorKind(str, Enum):
    LEX = "Lex"
    SYNTAX = "Syntax"
    INDEX_GAP = "IndexGap"
    FORWARD_REF = "ForwardRef"
    DUPLICATE_PARAM = "DuplicateParam"


class PlanParseError(ReaperError):
    """First defect found while parsing plan text, in document order."""

    def __init__(self, kind: ParseErrorKind, line: int, message: str):
        super().__init__(f"line {line}: {kind.value}: {message}")
        self.kind = kind
        self.line = line
        self.message = message


@dataclass(frozen=True)
class Literal:
    """A verbatim string argument."""

    text: str


@dataclass(frozen=True)
class StepRef:
    """Reference to an earlier step's output; ``field`` is a dot path or None
    for the whole output (resolved through the conventional ``text`` field)."""

    step: int
    field: str | None = None


@dataclass(frozen=True)
class ContextRef:
    """Reference to a named field of the page context."""

    field: str


ArgValue = Union[Literal, StepRef, ContextRef]

_Frozen = TypeVar("_Frozen")


def _trusted(cls: type[_Frozen], fields: dict[str, object]) -> _Frozen:
    """An instance of the frozen dataclass ``cls`` with every one of its
    ``fields``, given by name, set directly rather than by ``__init__``: no
    per-field ``object.__setattr__`` and no ``__post_init__``. The caller has
    already checked ``fields`` against every invariant the class enforces; a
    ``PlanStep``'s ``args`` and a ``Plan``'s ``steps`` must be tuples. (A
    dict literal is built faster than the same keyword arguments.)"""
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


@dataclass(frozen=True)
class PlanStep:
    index: int
    tool_name: str
    args: tuple[tuple[str, ArgValue], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "args", tuple((n, v) for n, v in self.args))
        if self.index < 1:
            raise ValueError(f"step index must be positive, got {self.index}")
        if not IDENT_RE.match(self.tool_name):
            raise ValueError(f"invalid tool name: {self.tool_name!r}")
        seen = set()
        for name, value in self.args:
            if not IDENT_RE.match(name):
                raise ValueError(f"invalid parameter name: {name!r}")
            if name in seen:
                raise ValueError(f"duplicate parameter {name!r} in step {self.index}")
            seen.add(name)
            if isinstance(value, StepRef):
                if not 1 <= value.step < self.index:
                    raise ValueError(
                        f"step {self.index} references ${value.step}; "
                        "references must point to an earlier step"
                    )
                if value.field is not None and not all(
                    IDENT_RE.match(part) for part in value.field.split(".")
                ):
                    raise ValueError(f"invalid field path: {value.field!r}")
            elif isinstance(value, ContextRef):
                if not IDENT_RE.match(value.field):
                    raise ValueError(f"invalid context field: {value.field!r}")
            elif not isinstance(value, Literal):
                raise TypeError(f"unsupported argument value: {value!r}")


@dataclass(frozen=True)
class Plan:
    steps: tuple[PlanStep, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps:
            raise ValueError("a plan must contain at least one step")
        for position, step in enumerate(self.steps, start=1):
            if step.index != position:
                raise ValueError(
                    f"step indices must be contiguous from 1; "
                    f"expected {position}, got {step.index}"
                )

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class Violation:
    """A registry-level defect in an otherwise well-formed plan."""

    kind: str  # UnknownTool | MissingParam | UnknownParam
    step_index: int
    tool_name: str
    param: str | None
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


def _unescape(match: re.Match) -> str:
    return "\n" if match.group(1) == "n" else match.group(1)


def _literal(body: str) -> Literal:
    """The literal whose text, between the quotes, reads ``body``."""
    # the renderer emits exactly \\, \" and \n (strings must stay on one
    # line); any other escaped char decodes to itself
    return Literal(_ESCAPE.sub(_unescape, body) if "\\" in body else body)


class _LineParser:
    """Recursive-descent parser for a single ``Step N: call(...)`` line: the
    diagnostic path, for every line ``_match_step`` turns down."""

    def __init__(self, line: str, line_no: int):
        self.s = line
        self.i = 0
        self.line_no = line_no

    def fail(self, kind: ParseErrorKind, message: str) -> NoReturn:
        raise PlanParseError(kind, self.line_no, message)

    def peek(self) -> str:
        return self.s[self.i] if self.i < len(self.s) else ""

    def expect(self, token: str, what: str) -> None:
        if not self.s.startswith(token, self.i):
            self.fail(ParseErrorKind.SYNTAX, f"expected {what}")
        self.i += len(token)

    def take_int(self, what: str) -> int:
        match = _INT_TOKEN.match(self.s, self.i)
        if match is None:
            self.fail(ParseErrorKind.SYNTAX, f"expected {what}")
        self.i = match.end()
        return int(match.group())

    def take_ident(self, what: str) -> str:
        match = _IDENT_TOKEN.match(self.s, self.i)
        if match is None:
            ch = self.peek()
            if ch and ch not in _BARE_CHARS:
                self.fail(ParseErrorKind.LEX, f"illegal character {ch!r}")
            self.fail(ParseErrorKind.SYNTAX, f"expected {what}")
        self.i = match.end()
        return match.group()

    def take_string(self) -> Literal:
        match = _STRING_TOKEN.match(self.s, self.i)
        if match is None:
            self.fail(ParseErrorKind.LEX, "unterminated string literal")
        self.i = match.end()
        return _literal(match.group(1))

    def take_value(self, step_index: int) -> ArgValue:
        ch = self.peek()
        if ch == '"':
            return self.take_string()
        if ch == "$":
            self.i += 1
            if "0" <= self.peek() <= "9":
                target = self.take_int("step number")
                field = None
                if self.peek() == ".":
                    parts = []
                    while self.peek() == ".":
                        self.i += 1
                        parts.append(self.take_ident("field name"))
                    field = ".".join(parts)
                if not 1 <= target < step_index:
                    self.fail(
                        ParseErrorKind.FORWARD_REF,
                        f"${target} in step {step_index} must reference an "
                        "existing earlier step",
                    )
                return StepRef(target, field)
            if self.s.startswith("context.", self.i):
                self.i += len("context.")
                return ContextRef(self.take_ident("context field name"))
            self.fail(
                ParseErrorKind.SYNTAX,
                "expected a step number or 'context.' after '$'",
            )
        if ch and ch not in _BARE_CHARS:
            self.fail(ParseErrorKind.LEX, f"illegal character {ch!r}")
        self.fail(
            ParseErrorKind.SYNTAX,
            "argument value must be a quoted string, $k reference, "
            "or $context reference",
        )

    def parse(self) -> PlanStep:
        self.expect("Step ", "'Step <n>: <tool>(...)'")
        index = self.take_int("step number")
        if index != self.line_no:
            self.fail(
                ParseErrorKind.INDEX_GAP,
                f"expected step {self.line_no}, got step {index}",
            )
        self.expect(": ", "': ' after the step number")
        tool = self.take_ident("tool name")
        self.expect("(", "'(' after the tool name")
        args: list[tuple[str, ArgValue]] = []
        names: set[str] = set()
        if self.peek() != ")":
            while True:
                name = self.take_ident("parameter name")
                if name in names:
                    self.fail(
                        ParseErrorKind.DUPLICATE_PARAM,
                        f"duplicate parameter {name!r}",
                    )
                names.add(name)
                self.expect("=", "'=' after the parameter name")
                args.append((name, self.take_value(index)))
                if self.s.startswith(", ", self.i):
                    self.i += 2
                    continue
                break
        self.expect(")", "')' closing the argument list")
        if self.i != len(self.s):
            self.fail(
                ParseErrorKind.SYNTAX,
                f"unexpected trailing text: {self.s[self.i:]!r}",
            )
        # the lexer took every name as an identifier, rejected duplicate
        # parameters and forward references, and matched the index to the line
        return _trusted(
            PlanStep, {"index": index, "tool_name": tool, "args": tuple(args)}
        )


def _match_step(line: str, line_no: int) -> PlanStep | None:
    """The step on a line that matches the grammar with the line's own index,
    no duplicate parameter and no forward reference; None for any other
    line."""
    header = _HEADER.match(line)
    if header is None or int(header[1]) != line_no:
        return None
    pos = header.end()
    args: list[tuple[str, ArgValue]] = []
    if pos == len(line) - 1 and line[pos] == ")":
        return _trusted(
            PlanStep, {"index": line_no, "tool_name": header[2], "args": ()}
        )
    while True:
        match = _ARG.match(line, pos)
        if match is None:
            return None
        name, text, target, field, context, close = match.groups()
        if text is not None:
            value: ArgValue = _literal(text)
        elif context is not None:
            value = ContextRef(context)
        else:
            number = int(target)
            if not 1 <= number < line_no:
                return None
            value = StepRef(number, field[1:] or None)
        args.append((name, value))
        if close:
            if len(args) > 1 and len({n for n, _ in args}) < len(args):
                return None  # a duplicate parameter
            fields = {"index": line_no, "tool_name": header[2], "args": tuple(args)}
            return _trusted(PlanStep, fields)
        pos = match.end()


def parse_plan(text: str) -> Plan:
    """Parse plan text, raising :class:`PlanParseError` on the first defect."""
    steps = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        step = _match_step(line, line_no)
        if step is None:
            step = _LineParser(line, line_no).parse()
        steps.append(step)
    return _trusted(Plan, {"steps": tuple(steps)})


def render_value(value: ArgValue) -> str:
    """Canonical surface form of one argument value."""
    if isinstance(value, Literal):
        # most literals hold none of the three, and ``in`` costs less than
        # a ``replace`` that finds nothing
        text = value.text
        if "\\" in text:
            text = text.replace("\\", "\\\\")
        if '"' in text:
            text = text.replace('"', '\\"')
        if "\n" in text:
            text = text.replace("\n", "\\n")
        return f'"{text}"'
    if isinstance(value, StepRef):
        return f"${value.step}" + (f".{value.field}" if value.field else "")
    return f"$context.{value.field}"


def render_step(step: PlanStep) -> str:
    args = ", ".join([f"{name}={render_value(value)}" for name, value in step.args])
    return f"Step {step.index}: {step.tool_name}({args})"


def render_plan(plan: Plan) -> str:
    """Canonical text for a plan; ``parse_plan(render_plan(p)) == p``."""
    return "\n".join(render_step(step) for step in plan.steps)


def validate_plan(plan: Plan, registry: "ToolRegistry") -> list[Violation]:
    """Check every call against the registry; an empty list means the plan is
    executable. Violations are data, not exceptions."""
    violations: list[Violation] = []
    for step in plan.steps:
        try:
            spec = registry.resolve(step.tool_name)
        except UnknownToolError:
            violations.append(
                Violation(
                    "UnknownTool",
                    step.index,
                    step.tool_name,
                    None,
                    f"step {step.index}: unknown tool {step.tool_name!r}",
                )
            )
            continue
        known, required = spec._param_names
        if not required <= {name for name, _ in step.args} <= known:
            violations += _call_violations(step, spec)
    return violations


def _call_violations(step: PlanStep, spec: "ToolSpec") -> list[Violation]:
    """Each required parameter of ``spec`` that ``step`` leaves out, then
    each argument of ``step`` that ``spec`` does not accept: the one place a
    parameter violation is built, for a plan step or a tool's example usage."""
    present = {name for name, _ in step.args}
    known, _ = spec._param_names
    missing = [
        Violation(
            "MissingParam", step.index, step.tool_name, param.name,
            f"step {step.index}: {step.tool_name} is missing "
            f"required parameter {param.name!r}",
        )
        for param in spec.params
        if param.required and param.name not in present
    ]
    return missing + [
        Violation(
            "UnknownParam", step.index, step.tool_name, name,
            f"step {step.index}: {step.tool_name} does not accept "
            f"parameter {name!r}",
        )
        for name, _ in step.args
        if name not in known
    ]


class LabeledPlanError(ReaperError):
    """The plan of labeled example ``index`` (a forge task, a gold example or
    a prompt's demonstration) fails :func:`validate_plan`; ``violation`` is
    its first violation."""

    def __init__(self, index: int, violation: Violation):
        super().__init__(f"labeled example {index}: {violation}")
        self.index = index
        self.violation = violation


def check_labeled_plan(index: int, plan: Plan, registry: "ToolRegistry") -> None:
    """The one rule for a labeled plan: raise :class:`LabeledPlanError`
    unless ``plan``, labeled example ``index``'s, passes :func:`validate_plan`."""
    if violations := validate_plan(plan, registry):
        raise LabeledPlanError(index, violations[0])


def tool_sequence(plan: Plan, registry: "ToolRegistry") -> list[str]:
    """Canonical tool names in step order; variant names are normalized.

    Raises :class:`UnknownToolError` for a name no registry variant covers.
    """
    return [registry.canonical_of(step.tool_name) for step in plan.steps]


def rename_tools(plan: Plan, mapping: Mapping[str, str]) -> Plan:
    """Return a copy of ``plan`` with tool names substituted via ``mapping``;
    names absent from the mapping are kept. A new name that is not an
    identifier raises ``ValueError``."""
    steps = []
    for step in plan.steps:
        name = mapping.get(step.tool_name, step.tool_name)
        if name != step.tool_name:
            if not IDENT_RE.match(name):
                raise ValueError(f"invalid tool name: {name!r}")
            step = _trusted(
                PlanStep, {"index": step.index, "tool_name": name, "args": step.args}
            )
        steps.append(step)
    return _trusted(Plan, {"steps": tuple(steps)})
