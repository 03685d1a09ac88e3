"""Seeded plan generators and an independent plan renderer.

Plans are built from the toolkit's public plan types so a served plan can be
compared with its fixture, but their text is rendered here, not by the
toolkit, so the parser is checked against an outside reference. The tool
signatures mirror the shipped six-tool registry; a registry change that
breaks them shows up as validation failures, not as silently different
inputs.
"""

from __future__ import annotations

import random

from reaper.plan import ContextRef, Literal, Plan, PlanStep, StepRef

# tool -> ((param, required), ...), as in the shipped registry
SIGNATURES = {
    "customer_support": (("query", True),),
    "shipment_status": (("query", True),),
    "prod_search": (("keywords", True),),
    "prod_qna": (("product_id", True), ("query", True)),
    "review_summary": (("product_id", True), ("aspect", False)),
    "no_retrieval": (),
}
CLASS_LABELS = {
    "customer_support": "customer_support",
    "shipment_status": "shipment_status",
    "prod_search": "product_search",
    "prod_qna": "product_qna",
    "review_summary": "review_summary",
    "no_retrieval": "no_retrieval",
}
RETRIEVING = tuple(tool for tool in SIGNATURES if tool != "no_retrieval")
OUTPUT_FIELDS = ("product_id", "title")
CONTEXT_FIELDS = ("product_id", "page_title")

WORDS = (
    "blue red wireless earbuds kettle phone jacket order shoes lamp battery "
    "size return refund vacuum coffee maker charger cable warranty delivery "
    "late broken screen fit waterproof hiking boots desk chair memory price "
    "gift card account password invoice tracking camera lens strap color"
).split()


def phrase(rng: random.Random, count: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(count))


def _quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def _value_text(value) -> str:
    if isinstance(value, Literal):
        return _quote(value.text)
    if isinstance(value, StepRef):
        return f"${value.step}" + (f".{value.field}" if value.field else "")
    return f"$context.{value.field}"


def render_text(plan: Plan) -> str:
    """Plan text in the DSL's canonical form, written independently of
    ``reaper.plan.render_plan``."""
    return "\n".join(
        f"Step {step.index}: {step.tool_name}("
        + ", ".join(f"{name}={_value_text(value)}" for name, value in step.args)
        + ")"
        for step in plan.steps
    )


def class_label(plan: Plan) -> str:
    """Evaluation class: that of the first evidence-producing tool."""
    for step in plan.steps:
        if step.tool_name != "no_retrieval":
            return CLASS_LABELS[step.tool_name]
    return CLASS_LABELS["no_retrieval"]


def _literal(rng: random.Random) -> Literal:
    text = phrase(rng, rng.randint(1, 4))
    if rng.random() < 0.1:
        text += ' "quoted" \\ part'
    return Literal(text)


def random_plan(rng: random.Random, n_steps: int) -> Plan:
    """A valid plan of ``n_steps`` steps on the shipped registry using
    literals, ``$k``, ``$k.field`` and ``$context.field`` values."""
    if n_steps == 1 and rng.random() < 0.15:
        return Plan((PlanStep(1, "no_retrieval", ()),))
    steps = []
    for index in range(1, n_steps + 1):
        tool = rng.choice(RETRIEVING)
        args = []
        for param, required in SIGNATURES[tool]:
            if not required and rng.random() < 0.5:
                continue
            roll = rng.random()
            if index > 1 and roll < 0.25:
                value = StepRef(rng.randrange(1, index), None)
            elif index > 1 and roll < 0.5:
                value = StepRef(rng.randrange(1, index), rng.choice(OUTPUT_FIELDS))
            elif roll < 0.65:
                value = ContextRef(rng.choice(CONTEXT_FIELDS))
            else:
                value = _literal(rng)
            args.append((param, value))
        steps.append(PlanStep(index, tool, tuple(args)))
    return Plan(tuple(steps))


def dag_plan(rng: random.Random, n_steps: int, tag: str) -> Plan:
    """A plan of ``n_steps`` steps with fan-out or fan-in (both whenever the
    size allows). Every literal carries ``tag`` and the step number, and no
    two steps make the same call, so each step's resolved arguments identify
    it."""
    while True:
        plan = _dag_attempt(rng, n_steps, tag)
        calls = {(step.tool_name, step.args) for step in plan.steps}
        if len(calls) == n_steps:
            return plan


def _dag_attempt(rng: random.Random, n_steps: int, tag: str) -> Plan:
    while True:
        deps: list[tuple[int, ...]] = [()]
        for index in range(2, n_steps + 1):
            roll = rng.random()
            if roll < 0.2:
                deps.append(())
            elif roll < 0.6 or index == 2:
                deps.append((rng.randrange(1, index),))
            else:
                deps.append(tuple(sorted(rng.sample(range(1, index), 2))))
        referenced = [d for ds in deps for d in ds]
        fan_out = any(referenced.count(k) > 1 for k in set(referenced))
        fan_in = any(len(ds) == 2 for ds in deps)
        if (fan_out and fan_in) or (n_steps < 4 and (fan_out or fan_in)):
            break
    steps = []
    for index, ds in enumerate(deps, start=1):
        label = Literal(f"{tag} s{index} {phrase(rng, 2)}")
        if not ds:
            tool = rng.choice(
                ("shipment_status", "prod_search", "customer_support", "review_summary")
            )
            if tool == "review_summary":
                args = (("product_id", ContextRef("product_id")), ("aspect", label))
            else:
                args = ((SIGNATURES[tool][0][0], label),)
        elif len(ds) == 1:
            tool = rng.choice(("prod_qna", "review_summary", "customer_support"))
            if tool == "customer_support":
                args = (("query", StepRef(ds[0], None)),)
            else:
                args = (
                    ("product_id", StepRef(ds[0], "product_id")),
                    (SIGNATURES[tool][1][0], label),
                )
        else:
            tool = rng.choice(("prod_qna", "review_summary"))
            second = StepRef(ds[1], None if tool == "prod_qna" else "title")
            args = (
                ("product_id", StepRef(ds[0], "product_id")),
                (SIGNATURES[tool][1][0], second),
            )
        steps.append(PlanStep(index, tool, args))
    return Plan(tuple(steps))


def resolve(plan: Plan, outputs, context) -> list[tuple[tuple[str, str], ...]]:
    """Expected resolved arguments of every step, given each step's output
    mapping (``outputs[k]``) and the page context."""
    resolved = []
    for step in plan.steps:
        args = []
        for name, value in step.args:
            if isinstance(value, Literal):
                text = value.text
            elif isinstance(value, StepRef):
                text = outputs[value.step][value.field or "text"]
            else:
                text = context[value.field]
            args.append((name, text))
        resolved.append(tuple(args))
    return resolved
