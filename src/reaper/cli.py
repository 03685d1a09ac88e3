"""Command-line entry point.

Subcommands: ``validate`` (parse and registry-check plan files), ``forge``
(generate a mixed training dataset), ``eval`` (score predictions against
gold), ``bench`` (single-shot vs interleaved latency on simulated tools),
and ``plan`` (generate a plan through a backend).

Exit codes: 0 success, 1 domain failure (violations, metric preconditions,
backend/plan errors), 2 usage, I/O or malformed input (named by file and
line), or a plan or task file that holds no plan or task. Only ``forge``
takes ``--seed`` (default 1729), the one seed of its sampling, evolution
and mixing: equal seeds give it byte-identical output.

Plan files hold one plan per block, blocks separated by blank lines. Task
files for ``forge`` are JSONL with {"query", "context", "plan"}. A file is
read once, whole, before the library holds each task or gold plan in it to
one rule (:func:`~reaper.plan.check_labeled_plan`), so a malformed record
exits 2 before a plan that fails the rule, each naming its line, and so
does a malformed ``--generic-pool`` record, read right after the tasks. A
shipped demonstration that fails the rule is left out, with a note on
stderr, by ``forge`` and ``plan`` alike. ``forge`` uses its task pool as its
own diverse-sampling reference, so it drops no extreme pairs: a pool cannot
outnumber itself once extremes are removed
(``ForgeConfig.extreme_pairs`` applies with a curated reference). Gold and
prediction files for ``eval`` follow the formats documented in
:mod:`reaper.evaluation`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from itertools import groupby
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from .boundary import read_jsonl
from .embedding import HashingEmbedder, VectorError
from .errors import ReaperError, SchemaError
from .plan import (
    LabeledPlanError, Plan, PlanParseError, parse_plan, render_plan, validate_plan
)
from .registry import ToolRegistry, default_registry, load_registry

if TYPE_CHECKING:
    from .executor import Retriever
    from .prompt import InContextExample

DEFAULT_SEED = 1729


def _load_registry(path: str | None) -> ToolRegistry:
    return load_registry(path) if path else default_registry()


def _check_paths(inputs: Sequence[str | None], outputs: Sequence[str | None]) -> None:
    """Validate all paths up front, before any work starts: no output may
    be the same file as an input, or name the same file as another output."""
    inputs = [path for path in inputs if path is not None]
    for path in inputs:
        if not Path(path).is_file():
            raise FileNotFoundError(f"no such file: {path}")
    written = set()
    for path in (path for path in outputs if path is not None):
        out = Path(path)
        if not out.parent.is_dir():
            raise FileNotFoundError(f"output directory does not exist: {path}")
        if out.is_dir():
            raise IsADirectoryError(f"output path is a directory: {path}")
        if out.exists() and any(os.path.samefile(out, i) for i in inputs):
            raise ValueError(f"output path is also an input: {path}")
        if out.resolve() in written:
            raise ValueError(f"output path is given twice: {path}")
        written.add(out.resolve())


def read_plan_blocks(path: str | Path) -> list[str]:
    """Plan texts from a file of blank-line-separated blocks. Lines end at
    ``\n`` only (see :func:`~reaper.boundary.read_jsonl`)."""
    lines = [raw.rstrip() for raw in Path(path).read_text(encoding="utf-8").split("\n")]
    return ["\n".join(block) for filled, block in groupby(lines, bool) if filled]


def _by_line(path: str, from_record) -> dict:
    """A JSONL file's records read by ``from_record``, keyed by ``line N``
    in file order: the one read of the file that errors are located in."""
    return {where: from_record(r, path, where) for where, r in read_jsonl(Path(path))}


def _locate(path: str, examples: dict, index: int, field: str, exc) -> SchemaError:
    """``exc``, about example ``index`` of :func:`_by_line`'s ``examples``,
    as a :class:`SchemaError` naming its line and ``field``."""
    return SchemaError(path, f"{list(examples)[index]}.{field}", str(exc))


def load_tasks(path: str) -> dict[str, InContextExample]:
    """Task JSONL, {"query", "context", "plan"} per line, keyed by line."""
    from .prompt import InContextExample

    return _by_line(path, InContextExample.from_record)


def _demonstrations(registry: ToolRegistry) -> list[InContextExample]:
    """The shipped demonstrations that validate clean against ``registry``,
    with a note on stderr for each one left out."""
    from .prompt import load_example_pool

    kept = []
    for i, example in enumerate(load_example_pool()):
        if violations := validate_plan(example.target_plan, registry):
            where = f"reaper/data/example_pool.json: examples[{i}].plan"
            print(f"note: {where}: {violations[0]}", file=sys.stderr)
        else:
            kept.append(example)
    return kept


def _check_plan_file(
    path: str | Path, registry: ToolRegistry
) -> tuple[list[tuple[int, Plan]], int]:
    """Parse and registry-check every block of a plan file, printing
    ``plan N: parse error: ...`` or each violation of a bad block. Returns
    the numbered plans that are clean and the number of blocks; a file with
    no block raises ``ValueError``."""
    blocks = read_plan_blocks(path)
    if not blocks:
        raise ValueError(f"{path}: the file holds no plan")
    clean: list[tuple[int, Plan]] = []
    for number, block in enumerate(blocks, start=1):
        try:
            plan = parse_plan(block)
        except PlanParseError as exc:
            print(f"plan {number}: parse error: {exc}")
            continue
        violations = validate_plan(plan, registry)
        for violation in violations:
            print(f"plan {number}: {violation}")
        if not violations:
            clean.append((number, plan))
    return clean, len(blocks)


def cmd_validate(args: argparse.Namespace) -> int:
    _check_paths([args.plans, args.registry], [])
    plans, count = _check_plan_file(args.plans, _load_registry(args.registry))
    clean = len(plans) == count
    print(f"checked {count} plan(s): {'clean' if clean else 'violations found'}")
    return 0 if clean else 1


def cmd_forge(args: argparse.Namespace) -> int:
    from .forge.mixer import load_generic_pool
    from .forge.pipeline import forge_run
    from .forge.records import ForgeConfig

    inputs = [args.tasks, args.registry, args.generic_pool]
    _check_paths(inputs, [args.out, args.manifest])
    registry = _load_registry(args.registry)
    tasks = load_tasks(args.tasks)
    if not tasks:
        raise ValueError(f"{args.tasks}: the file holds no task")
    generic_pool = args.generic_pool and load_generic_pool(args.generic_pool)
    demonstrations = _demonstrations(registry)
    cfg = ForgeConfig(
        tasks_per_query=args.tasks_per_query,
        seed=args.seed,
        extra_tool_count=args.extra_tools,
        generic_fraction=args.generic_fraction,
    )
    try:
        manifest = forge_run(
            list(tasks.values()), registry, cfg, HashingEmbedder(), args.out,
            example_pool=demonstrations, generic_pool=generic_pool,
        )
    except LabeledPlanError as exc:
        raise _locate(args.tasks, tasks, exc.index, "plan", exc.violation) from exc
    except VectorError as exc:
        # the task pool is its own DQS reference, so the text is a task's query
        index = [task.input.query for task in tasks.values()].index(exc.text)
        raise _locate(args.tasks, tasks, index, "query", exc) from exc
    payload = json.dumps(manifest.to_dict(), indent=2)
    print(payload)
    if args.manifest:
        Path(args.manifest).write_text(payload + "\n", encoding="utf-8")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from .evaluation import (
        GoldExample, UnknownGoldClassError, evaluate, load_predictions
    )

    _check_paths([args.pred, args.gold, args.registry], [args.out])
    registry = _load_registry(args.registry)
    if args.omitted_tool is not None and not registry.has_tool(args.omitted_tool):
        raise ValueError(f"--omitted-tool: unknown tool {args.omitted_tool!r}")
    predictions = load_predictions(args.pred)
    gold = _by_line(args.gold, GoldExample.from_record)
    try:
        report = evaluate(
            predictions, list(gold.values()), registry, omitted_tool=args.omitted_tool
        )
    except LabeledPlanError as exc:
        raise _locate(args.gold, gold, exc.index, "gold_plan", exc.violation) from exc
    except UnknownGoldClassError as exc:
        raise _locate(args.gold, gold, exc.index, "class", exc) from exc
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    print(payload)
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    return 0


class _AnyFields(dict):
    """Bench output stand-in: resolves any referenced field to a placeholder."""

    def __init__(self, tool: str):
        super().__init__()
        self._tool = tool

    def __contains__(self, key) -> bool:
        return True

    def __missing__(self, key: str) -> str:
        return f"<{self._tool}.{key}>"


class _BenchRetriever:
    # Only reports latencies, so ``execute_plan`` sets it no wall-clock deadline.
    simulated_clock = True

    def __init__(self, latency_ms: float):
        self.latency_ms = latency_ms

    def invoke(
        self, tool: str, args: Mapping[str, str]
    ) -> tuple[Mapping[str, object], float]:
        return _AnyFields(tool), self.latency_ms


def cmd_bench(args: argparse.Namespace) -> int:
    from .evaluation import check_latency_ms, latency_bench

    check_latency_ms("--llm-single", args.llm_single)
    check_latency_ms("--llm-step", args.llm_step)
    check_latency_ms("--tool-latency", args.tool_latency)
    _check_paths([args.plans, args.registry], [])
    registry = _load_registry(args.registry)
    retriever: Retriever = _BenchRetriever(args.tool_latency)
    plans, count = _check_plan_file(args.plans, registry)
    if len(plans) != count:
        return 1
    rows = []
    for number, plan in plans:
        stats = latency_bench(plan, args.llm_single, args.llm_step, retriever, registry)
        rows.append((number, len(plan), stats))
    print(f"{'plan':>4}  {'steps':>5}  {'single_shot_ms':>14}  "
          f"{'interleaved_ms':>14}  {'speedup':>8}")
    for number, steps, stats in rows:
        print(
            f"{number:>4}  {steps:>5}  {stats.single_shot_ms:>14.1f}  "
            f"{stats.interleaved_ms:>14.1f}  {stats.speedup:>8.2f}"
        )
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    from .gateway import Planner, RemoteBackend, ScriptedStub
    from .prompt import QueryInput

    if args.examples < 0:
        raise ValueError(f"--examples must be 0 or more, got {args.examples}")
    registry = _load_registry(args.registry)
    pool = _demonstrations(registry)
    QueryInput(args.query, args.context)  # a bad query exits 2 before any backend
    if args.backend == "remote":
        backend = RemoteBackend()
    else:
        backend = ScriptedStub(
            {ex.input.query: render_plan(ex.target_plan) for ex in pool},
            default="Step 1: no_retrieval()",
            latency_ms=0.0,
        )
    planner = Planner(registry, pool[: args.examples], backend)
    plan, violations, latency = planner.plan(args.query, args.context)
    print(render_plan(plan))
    print(f"latency_ms: {latency:.1f}", file=sys.stderr)
    for violation in violations:
        print(violation, file=sys.stderr)
    return 1 if violations else 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``reaper`` argument parser, built once per process and shared by
    every :func:`main` call: do not modify it."""
    parser = argparse.ArgumentParser(
        prog="reaper",
        description="Retrieval-plan toolkit: validate, forge, eval, bench, plan.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--registry", help="registry file, JSON or YAML "
                       "(default: shipped six-tool registry)")

    p = sub.add_parser("validate", help="parse and registry-check a plan file")
    p.add_argument("plans", help="plan file, blocks separated by blank lines")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("forge", help="generate a mixed training dataset")
    p.add_argument("--tasks", required=True, help="labeled tasks JSONL")
    p.add_argument("--out", required=True, help="output training JSONL")
    p.add_argument("--tasks-per-query", type=int, default=1)
    p.add_argument("--extra-tools", type=int, default=2,
                   help="distractor tools added per evolved prompt")
    p.add_argument("--generic-fraction", type=float, default=1.0)
    p.add_argument("--generic-pool", help="generic pool JSONL (default: shipped)")
    p.add_argument("--manifest", help="also write the mix manifest JSON here")
    p.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"master seed for reproducible output (default {DEFAULT_SEED})",
    )
    add_common(p)
    p.set_defaults(func=cmd_forge)

    p = sub.add_parser("eval", help="score predictions against gold labels")
    p.add_argument("--pred", required=True, help="prediction JSONL")
    p.add_argument("--gold", required=True, help="gold JSONL")
    p.add_argument("--omitted-tool", help="score instruction following for this tool")
    p.add_argument("--out", help="also write the report JSON here")
    add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="single-shot vs interleaved latency table")
    p.add_argument("plans", help="plan file, blocks separated by blank lines")
    p.add_argument("--llm-single", type=float, default=207.0,
                   help="planner latency for one full-plan call (ms)")
    p.add_argument("--llm-step", type=float, default=2000.0,
                   help="agent latency per interleaved reasoning step (ms)")
    p.add_argument("--tool-latency", type=float, default=50.0,
                   help="simulated latency per tool call (ms)")
    add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("plan", help="generate a plan for one query")
    p.add_argument("query")
    p.add_argument("--context", help="page context, e.g. a product title")
    p.add_argument("--backend", choices=["stub", "remote"], default="stub",
                   help="remote uses $REAPER_BACKEND_URL")
    # Spelled out, not imported, so that building the parser loads neither
    # reaper.gateway nor reaper.prompt; a test pins both to the library.
    p.add_argument("--examples", type=int, default=4,
                   help="in-context examples in the prompt (default %(default)s)")
    add_common(p)
    p.set_defaults(func=cmd_plan)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, ValueError) as exc:
        print(f"error: bad input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReaperError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
