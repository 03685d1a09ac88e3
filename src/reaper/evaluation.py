"""Scoring planner output against gold labels.

Definitions used throughout:

* A prediction is *correct* iff its canonical tool sequence equals the gold
  plan's exactly (variant names are normalized first, so a variant spelling
  is never an error; a different order always is).
* Every prediction is assigned a *class*: the ``class_label`` of its first
  evidence-producing tool (the first step that is not the no-evidence tool),
  the no-evidence class when no step produces evidence, and ``"invalid"``
  when the prediction failed to parse or names an unknown tool.
* The confusion matrix counts (gold class, predicted class) pairs; per-class
  precision/recall/F1 derive from it, so recomputing them from the emitted
  matrix reproduces the report exactly.
* ``tool_accuracy`` is the overall correct fraction under the sequence-exact
  rule above.
* Every gold plan is held to the one rule for a labeled plan, a forge
  task's too: one that fails :func:`~reaper.plan.check_labeled_plan` could
  match no valid prediction, so it raises instead of being scored.
* Every gold class must be the ``class_label`` of a registered tool or
  ``"invalid"``: any other would add a ``per_class`` row that no prediction
  can support, so it raises :class:`UnknownGoldClassError`.
* The instruction-following score counts a plan as violating when any of
  its steps names the omitted tool under any of its variants, whatever
  its other steps name, unknown tools included; a plan that did not parse
  never violates.
* Argument accuracy is restricted to gold plans that use the tools whose
  arguments are query rewrites rather than the query itself
  (``prod_search`` and ``shipment_status`` in the shipped registry); values
  are compared after whitespace trimming and case folding.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .boundary import plan_field, read_jsonl, typed_field
from .errors import ReaperError, UnknownToolError
from .plan import (
    Literal, Plan, PlanParseError, check_labeled_plan, parse_plan, render_value,
    tool_sequence,
)
from .prompt import QueryInput
from .registry import NO_RETRIEVAL_TOOL, ToolRegistry

if TYPE_CHECKING:
    from .executor import Retriever

INVALID_CLASS = "invalid"

ARGUMENT_EVAL_TOOLS = ("prod_search", "shipment_status")


class LengthMismatchError(ReaperError):
    pass


class EmptyDenominatorError(ReaperError):
    pass


class UnknownGoldClassError(ReaperError):
    """A gold example's class is neither a registry tool's ``class_label``
    nor ``"invalid"``; ``index`` is the example's position in the gold
    sequence."""

    def __init__(self, index: int, example: GoldExample):
        super().__init__(
            f"gold example {index} ({example.input.query!r}) has class "
            f"{example.class_label!r}, which no registry tool carries"
        )
        self.index = index
        self.class_label = example.class_label


@dataclass(frozen=True)
class GoldExample:
    input: QueryInput
    gold_plan: Plan
    class_label: str

    @classmethod
    def from_record(cls, record: dict, path: str, where: str) -> "GoldExample":
        """A gold JSONL record's ``query``, ``context``, ``gold_plan``, ``class``."""
        return cls(
            QueryInput.from_record(record, path, where),
            plan_field(record, "gold_plan", path, where),
            typed_field(record, "class", str, path, where),
        )


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class LatencyStats:
    single_shot_ms: float
    interleaved_ms: float
    speedup: float


@dataclass(frozen=True)
class EvalReport:
    per_class: dict[str, ClassMetrics]
    tool_accuracy: float
    confusion: dict[str, dict[str, int]]
    argument_accuracy: float | None = None
    instruction_following: float | None = None

    def to_dict(self) -> dict:
        """The report's fields as JSON-ready data, leaving out the metrics
        that were not computed."""
        return {k: v for k, v in asdict(self).items() if v is not None}


def _canonical_sequence(plan: Plan | None, registry: ToolRegistry) -> list[str] | None:
    if plan is None:
        return None
    try:
        return tool_sequence(plan, registry)
    except UnknownToolError:
        return None


def _check_gold(
    predictions: Sequence[Plan | None], gold: Sequence[GoldExample],
    registry: ToolRegistry,
) -> None:
    """A scorer's precondition: one prediction per gold example, checked
    first, and every gold plan and class held to the registry."""
    if len(predictions) != len(gold):
        raise LengthMismatchError(
            f"{len(predictions)} predictions for {len(gold)} gold examples"
        )
    classes = {spec.class_label for spec in registry} | {INVALID_CLASS}
    for index, example in enumerate(gold):
        check_labeled_plan(index, example.gold_plan, registry)
        if example.class_label not in classes:
            raise UnknownGoldClassError(index, example)


def predicted_class(plan: Plan | None, registry: ToolRegistry) -> str:
    """Class assigned to a prediction: the class of its primary tool (the
    first evidence-producing step). ``"invalid"`` when the prediction did not
    parse or its primary tool is not a known tool; a hallucinated tool in a
    later step does not change the class, only correctness."""
    if plan is None:
        return INVALID_CLASS
    fallback = INVALID_CLASS
    for step in plan.steps:
        try:
            canonical = registry.canonical_of(step.tool_name)
        except UnknownToolError:
            return INVALID_CLASS
        if canonical != NO_RETRIEVAL_TOOL:
            return registry.resolve(canonical).class_label
        fallback = registry.resolve(canonical).class_label
    return fallback


def tool_selection_metrics(
    predictions: Sequence[Plan | None],
    gold: Sequence[GoldExample],
    registry: ToolRegistry,
) -> EvalReport:
    """Per-class precision/recall/F1 plus sequence-exact tool accuracy."""
    _check_gold(predictions, gold, registry)
    if not gold:
        raise EmptyDenominatorError("no gold examples")

    confusion: dict[str, dict[str, int]] = {}
    correct = 0
    for prediction, example in zip(predictions, gold):
        predicted = predicted_class(prediction, registry)
        row = confusion.setdefault(example.class_label, {})
        row[predicted] = row.get(predicted, 0) + 1
        gold_sequence = _canonical_sequence(example.gold_plan, registry)
        if _canonical_sequence(prediction, registry) == gold_sequence:
            correct += 1

    labels = sorted(set(confusion).union(*confusion.values()))
    per_class: dict[str, ClassMetrics] = {}
    for label in labels:
        support = sum(confusion.get(label, {}).values())
        predicted_count = sum(row.get(label, 0) for row in confusion.values())
        true_positive = confusion.get(label, {}).get(label, 0)
        precision = true_positive / predicted_count if predicted_count else 0.0
        recall = true_positive / support if support else 0.0
        total = precision + recall
        f1 = 2.0 * precision * recall / total if total else 0.0
        per_class[label] = ClassMetrics(precision, recall, f1, support)

    return EvalReport(
        per_class=per_class,
        tool_accuracy=correct / len(gold),
        confusion=confusion,
    )


def _normalized_args(step_args) -> dict[str, str]:
    return {
        name: (value.text if isinstance(value, Literal) else render_value(value))
        .strip()
        .casefold()
        for name, value in step_args
    }


def _rewrite_steps(
    plan: Plan | None, registry: ToolRegistry, tools: Sequence[str]
) -> list[tuple[str, dict[str, str]]] | None:
    if plan is None:
        return None
    out = []
    for step in plan.steps:
        try:
            canonical = registry.canonical_of(step.tool_name)
        except UnknownToolError:
            continue
        if canonical in tools:
            out.append((canonical, _normalized_args(step.args)))
    return out


def argument_accuracy(
    predictions: Sequence[Plan | None],
    gold: Sequence[GoldExample],
    registry: ToolRegistry,
    tools: Sequence[str] = ARGUMENT_EVAL_TOOLS,
) -> float:
    """Fraction of qualifying examples whose predicted arguments all match
    gold, over gold plans using the query-rewriting tools."""
    _check_gold(predictions, gold, registry)
    qualifying = 0
    matched = 0
    for prediction, example in zip(predictions, gold):
        gold_steps = _rewrite_steps(example.gold_plan, registry, tools)
        if not gold_steps:
            continue
        qualifying += 1
        if _rewrite_steps(prediction, registry, tools) == gold_steps:
            matched += 1
    if qualifying == 0:
        raise EmptyDenominatorError(
            f"no gold example uses any of {', '.join(tools)}"
        )
    return matched / qualifying


def instruction_following_score(
    predictions: Sequence[Plan | None],
    omitted_tool: str,
    registry: ToolRegistry,
) -> float:
    """1 minus the fraction of plans with a step that names the omitted tool
    under any of its name variants, whatever the other steps name."""
    if not predictions:
        raise EmptyDenominatorError("no predictions")
    names = frozenset(registry.variants_of(omitted_tool))
    violating = sum(
        prediction is not None
        and any(step.tool_name in names for step in prediction.steps)
        for prediction in predictions
    )
    # single division keeps the score an exact multiple of 1/N
    return (len(predictions) - violating) / len(predictions)


def check_latency_ms(name: str, value: float) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is finite and >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite number of 0 or more, got {value}")


def latency_bench(
    plan: Plan,
    llm_latency_single_ms: float,
    llm_latency_per_step_ms: float,
    retriever: Retriever,
    registry: ToolRegistry,
) -> LatencyStats:
    """Compare one-call planning against interleaved planning on the same
    tool latencies: the single-shot planner pays one model call and the
    dependency-parallel tool schedule, the interleaved agent pays one model
    call per step and runs tools sequentially. A single-shot total of 0 ms,
    where the speedup is undefined, raises :class:`ValueError`."""
    from .executor import StepStatus, execute_plan

    check_latency_ms("llm_latency_single_ms", llm_latency_single_ms)
    check_latency_ms("llm_latency_per_step_ms", llm_latency_per_step_ms)
    trace = execute_plan(plan, registry, retriever)
    failed = [s for s in trace.steps if s.status is not StepStatus.OK]
    if failed:
        raise ReaperError(
            f"latency bench needs a fully executable plan; step "
            f"{failed[0].index} {failed[0].status.value}: {failed[0].error}"
        )
    tool_total = sum(step.latency_ms for step in trace.steps)
    single_shot = llm_latency_single_ms + trace.critical_path_ms
    if single_shot == 0:
        raise ValueError("single-shot latency is 0 ms, so the speedup is undefined")
    interleaved = llm_latency_per_step_ms * len(trace.steps) + tool_total
    return LatencyStats(
        single_shot_ms=single_shot,
        interleaved_ms=interleaved,
        speedup=interleaved / single_shot,
    )


def evaluate(
    predictions: Sequence[Plan | None],
    gold: Sequence[GoldExample],
    registry: ToolRegistry,
    omitted_tool: str | None = None,
) -> EvalReport:
    """Full report: selection metrics, argument accuracy when computable, and
    the instruction-following score when an omitted tool is named."""
    report = tool_selection_metrics(predictions, gold, registry)
    try:
        accuracy = argument_accuracy(predictions, gold, registry)
    except EmptyDenominatorError:
        accuracy = None
    following = None
    if omitted_tool is not None:
        following = instruction_following_score(predictions, omitted_tool, registry)
    return replace(report, argument_accuracy=accuracy, instruction_following=following)


def load_predictions(path: str | Path) -> list[Plan | None]:
    """Prediction JSONL: {"plan": str} per line; unparseable plans load as
    None and score as invalid."""
    predictions: list[Plan | None] = []
    for where, record in read_jsonl(Path(path)):
        text = typed_field(record, "plan", str, str(path), where)
        try:
            predictions.append(parse_plan(text))
        except PlanParseError:
            predictions.append(None)
    return predictions
