"""Secondary task generation: derive related training tasks from a labeled
planning example, an :class:`~reaper.prompt.InContextExample`.

Seven transformations are supported (see :class:`TaskKind`): writing the
query a plan answers, completing a truncated plan, naming the needed tools,
reconstructing a masked step, reordering shuffled steps, recovering a masked
argument value, and refusing to plan when a needed tool is withheld. Kinds
that do not apply to a given plan (too short, or no arguments to mask) raise
:class:`NotApplicableError` so callers can sample a different kind.
"""

from __future__ import annotations

import random

from ..errors import ReaperError
from ..plan import render_value, tool_sequence
from ..prompt import InContextExample
from ..registry import ToolRegistry
from .records import TaskKind, TrainingRecord

MASKED_STEP_TOKEN = "[MASKED_STEP]"
MASKED_PARAM_TOKEN = "[MASKED_PARAM]"
NO_VALID_PLAN = "no_valid_plan"


class NotApplicableError(ReaperError):
    """The requested transformation does not apply to this plan shape."""

    def __init__(self, kind: TaskKind, reason: str):
        super().__init__(f"{kind.value} not applicable: {reason}")
        self.kind = kind


# Module-level aliases: reading a member off the Enum class costs several
# times a global read, and every record tests its kind.
_T1, _T2, _T3, _T4, _T5, _T6, _T7 = (
    TaskKind.T1, TaskKind.T2, TaskKind.T3, TaskKind.T4, TaskKind.T5, TaskKind.T6,
    TaskKind.T7,
)

# The applicable kinds by (multi-step plan, some step has arguments), in
# T1..T7 order: T2, T4 and T5 need two steps, T6 an argument.
_APPLICABLE = {
    (False, False): (_T1, _T3, _T7),
    (False, True): (_T1, _T3, _T6, _T7),
    (True, False): (_T1, _T2, _T3, _T4, _T5, _T7),
    (True, True): (_T1, _T2, _T3, _T4, _T5, _T6, _T7),
}


def applicable_kinds(task: InContextExample) -> list[TaskKind]:
    """Secondary kinds valid for the labeled example ``task``, in T1..T7 order."""
    steps = task.target_plan.steps
    return list(_APPLICABLE[len(steps) >= 2, any(step.args for step in steps)])


def _require_steps(task: InContextExample, kind: TaskKind, plan_text: str) -> list[str]:
    """The lines of the task's rendered plan, one per step; a single-step
    plan raises."""
    if len(task.target_plan) < 2:
        raise NotApplicableError(kind, "plan has a single step")
    return plan_text.split("\n")


# The kinds that draw from their seeded generator; the others build none.
_DRAWING_KINDS = frozenset((_T4, _T5, _T6, _T7))


def ttg_transform(
    task: InContextExample,
    kind: TaskKind,
    registry: ToolRegistry,
    rng_seed: int,
    source_id: str,
) -> TrainingRecord:
    """Build one secondary training record from the labeled example
    ``task``, tagged ``source_id``; deterministic in ``rng_seed``."""
    rng = random.Random(rng_seed) if kind in _DRAWING_KINDS else None
    plan_text = task._plan_text
    input_block = task._input_block

    if kind is _T1:
        prompt = (
            "Write the customer question that the retrieval plan below was "
            f"made to answer.\n\nPlan:\n{plan_text}"
        )
        return TrainingRecord(prompt, task.input.query, kind, source_id)

    if kind is _T2:
        lines = _require_steps(task, kind, plan_text)
        keep = (len(lines) + 1) // 2
        prompt = (
            "Complete the retrieval plan below by writing its remaining "
            f"steps.\n\n{input_block}\n\nPartial plan:\n"
            + "\n".join(lines[:keep])
        )
        return TrainingRecord(prompt, "\n".join(lines[keep:]), kind, source_id)

    if kind is _T3:
        target = ", ".join(tool_sequence(task.target_plan, registry))
        prompt = (
            "Name the tools needed to answer the customer question, in call "
            "order, separated by commas.\n\n" + input_block
        )
        return TrainingRecord(prompt, target, kind, source_id)

    if kind is _T4:
        lines = _require_steps(task, kind, plan_text)
        masked = rng.randrange(len(lines))
        shown = lines[:masked] + [MASKED_STEP_TOKEN] + lines[masked + 1 :]
        prompt = (
            f"One step of the plan below was replaced by {MASKED_STEP_TOKEN}. "
            f"Write the missing step.\n\n{input_block}\n\nPlan:\n"
            + "\n".join(shown)
        )
        return TrainingRecord(prompt, lines[masked], kind, source_id)

    if kind is _T5:
        lines = _require_steps(task, kind, plan_text)
        order = list(range(len(lines)))
        while order == sorted(order):
            rng.shuffle(order)
        prompt = (
            "The steps of the plan below are out of order. Rewrite the plan "
            f"in the correct order.\n\n{input_block}\n\n"
            "Shuffled plan:\n" + "\n".join(lines[i] for i in order)
        )
        return TrainingRecord(prompt, plan_text, kind, source_id)

    if kind is _T6:
        slots = [
            (step.index, name)
            for step in task.target_plan.steps
            for name, _ in step.args
        ]
        if not slots:
            raise NotApplicableError(kind, "plan has no arguments")
        target_index, target_param = rng.choice(slots)
        masked_step = task.target_plan.steps[target_index - 1]
        masked_value = render_value(dict(masked_step.args)[target_param])
        masked_args = ", ".join(
            f"{name}={MASKED_PARAM_TOKEN}"
            if name == target_param
            else f"{name}={render_value(value)}"
            for name, value in masked_step.args
        )
        lines = plan_text.split("\n")
        lines[target_index - 1] = (
            f"Step {target_index}: {masked_step.tool_name}({masked_args})"
        )
        prompt = (
            f"One argument value in the plan below was replaced by "
            f"{MASKED_PARAM_TOKEN}. Write the missing value.\n\n"
            f"{input_block}\n\nPlan:\n" + "\n".join(lines)
        )
        return TrainingRecord(prompt, masked_value, kind, source_id)

    if kind is _T7:
        used = sorted(set(tool_sequence(task.target_plan, registry)))
        withheld = rng.choice(used)
        offered = [
            name for name in registry.canonical_names if name != withheld
        ]
        tool_lines = [
            f"{n}. {name} - {registry.resolve(name).description}"
            for n, name in enumerate(offered, start=1)
        ]
        prompt = (
            "Using only the tools listed below, write a retrieval plan for "
            f"the customer question, or answer {NO_VALID_PLAN} if the listed "
            f"tools cannot answer it.\n\nTools:\n" + "\n".join(tool_lines)
            + f"\n\n{input_block}"
        )
        return TrainingRecord(prompt, NO_VALID_PLAN, kind, source_id)

    raise ValueError(f"not a secondary task kind: {kind!r}")
