import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selfcheck_catches_every_planted_defect():
    """The benchmark patches executor and gateway names by module attribute
    and checks every output; its self-check fails when a refactor moves such
    a name or breaks one of those checks."""
    result = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
