"""Self-checks for the benchmark's own output checks.

Run from the root of a checkout: ``python3 perfbench/selfcheck.py``. Each
case runs one pass of a small workload twice, once as generated and once
with one defect planted, and requires the first pass to count no failure
and the second to count at least one:

- a corrupted fixture plan served by the planner stub (serve_overhead);
- a wrong expected step status (serve_dag);
- a dropped forge output record (forge_batches);
- a similarity entry one unit in the last place off (forge_batches).

Exits 0 when every defect is caught, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import forging  # noqa: E402
import run  # noqa: E402
import serving  # noqa: E402
from reaper.forge import load_generic_pool  # noqa: E402

SEED = 7


def _failures(module, ws) -> int:
    """Failed operations of one untraced pass and its final checks."""
    items, operate, _ = module.operations(ws)
    phase, _ = run.drive(items, operate, 0.0)
    module.final_checks(ws, phase, None)
    return phase.failed


def _one_batch():
    workdir = ROOT / ".perfbench_out" / "selfcheck"
    ws = forging.generate("forge_batches", SEED, workdir, len(load_generic_pool()))
    ws.batches = ws.batches[:1]
    return ws


def corrupted_fixture_plan() -> tuple[int, int]:
    ws = serving.generate("serve_overhead", SEED)
    clean = _failures(serving, ws)
    victim, donor = ws.fixtures[0], ws.fixtures[1]
    table = {fx.key: fx.text for fx in ws.fixtures}
    table[victim.key] = donor.text
    ws.backend = serving.gateway.ScriptedStub(table, default="Step 1: no_retrieval()")
    return clean, _failures(serving, ws)


def wrong_expected_status() -> tuple[int, int]:
    ws = serving.generate("serve_dag", SEED)
    ws.fixtures = ws.fixtures[:4]
    clean = _failures(serving, ws)
    victim = ws.fixtures[1]
    first = "failed" if victim.outcomes[0] == "ok" else "ok"
    ws.fixtures[1] = dataclasses.replace(victim, outcomes=(first,) + victim.outcomes[1:])
    return clean, _failures(serving, ws)


def dropped_forge_record() -> tuple[int, int]:
    ws = _one_batch()
    clean = _failures(forging, ws)

    original = forging.forge_once

    def forge_then_drop(batch):
        code, stdout, wall_ms = original(batch)
        lines = batch.out_path.read_bytes().splitlines(keepends=True)
        batch.out_path.write_bytes(b"".join(lines[:-1]))
        return code, stdout, wall_ms

    forging.forge_once = forge_then_drop
    try:
        ws.digests.clear()
        planted = _failures(forging, ws)
    finally:
        forging.forge_once = original
    return clean, planted


def wrong_similarity() -> tuple[int, int]:
    ws = _one_batch()
    clean = _failures(forging, ws)

    original = forging.embedding.similarity_matrix

    def nudged(provider, q_initial, q_large):
        matrix = original(provider, q_initial, q_large)
        matrix.values[0, 1] = np.nextafter(matrix.values[0, 1], 2.0)
        return matrix

    forging.embedding.similarity_matrix = nudged
    try:
        planted = _failures(forging, ws)
    finally:
        forging.embedding.similarity_matrix = original
    return clean, planted


def main() -> int:
    ok = True
    cases = (corrupted_fixture_plan, wrong_expected_status, dropped_forge_record,
             wrong_similarity)
    for case in cases:
        clean, planted = case()
        passed = clean == 0 and planted >= 1
        ok = ok and passed
        print(f"{'ok' if passed else 'FAIL'}: {case.__name__}: "
              f"{clean} failure(s) as generated, {planted} with the defect planted")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
