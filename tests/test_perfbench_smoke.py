"""The benchmark's own smoke run (perfbench/run.py --smoke) passes.

It runs every workload on tiny scenes through the API the benchmark builds
and reads graphs with (`EdgeMeasurement`, `ViewGraph(n, edges)`, `.edges`,
`cli.main`), so a change to that API fails here rather than in a benchmark
run. It writes its records to the git-ignored perfbench/out/.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout.splitlines()
