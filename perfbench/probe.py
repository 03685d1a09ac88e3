"""Set-up probe: a fresh interpreter from start to its first served request.

Run as ``python3 perfbench/probe.py <checkout root>``. It imports
``reaper.cli``, loads the shipped registry, example pool and generic pool,
serves one request through the stub backend and the mock retriever, and
prints one JSON line with the time each stage took. The caller times the
whole probe from process start to that line.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    started = time.perf_counter()
    sys.path.insert(0, str(Path(sys.argv[1]) / "src"))
    import reaper.cli  # noqa: F401  (the CLI import is what a user pays first)

    imported = time.perf_counter()
    from reaper.executor import CannedCall, execute_plan, mock_retriever
    from reaper.forge import load_generic_pool
    from reaper.gateway import ScriptedStub, generate_plan
    from reaper.plan import render_plan, validate_plan
    from reaper.prompt import (
        DEFAULT_EXAMPLE_COUNT,
        DEFAULT_ROLE,
        DEFAULT_SYSTEM_INSTRUCTION,
        PromptSpec,
        load_example_pool,
    )
    from reaper.registry import default_registry

    registry = default_registry()
    registry_done = time.perf_counter()
    pool = load_example_pool()
    pool_done = time.perf_counter()
    load_generic_pool()
    generic_done = time.perf_counter()

    target = max(pool, key=lambda ex: len(ex.target_plan))
    backend = ScriptedStub(
        {ex.input.query: render_plan(ex.target_plan) for ex in pool},
        default="Step 1: no_retrieval()",
    )
    spec = PromptSpec(
        DEFAULT_ROLE, DEFAULT_SYSTEM_INSTRUCTION, registry,
        tuple(pool[:DEFAULT_EXAMPLE_COUNT]), target.input,
    )
    retriever = mock_retriever(
        {
            tool: CannedCall({"text": f"{tool} evidence", "product_id": "B0PROBE"})
            for tool in registry.canonical_names
        }
    )
    plan, _ = generate_plan(backend, spec)
    trace = execute_plan(plan, registry, retriever)
    ok = (
        plan == target.target_plan
        and not validate_plan(plan, registry)
        and all(step.status.value == "ok" for step in trace.steps)
    )
    done = time.perf_counter()
    print(
        json.dumps(
            {
                "ok": ok,
                "import_ms": (imported - started) * 1000.0,
                "registry_ms": (registry_done - imported) * 1000.0,
                "example_pool_ms": (pool_done - registry_done) * 1000.0,
                "generic_pool_ms": (generic_done - pool_done) * 1000.0,
                "first_request_ms": (done - generic_done) * 1000.0,
            }
        ),
        flush=True,
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
