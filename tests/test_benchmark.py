"""The benchmark harness's traced run yields a well-formed result line."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_certify_run_reports_every_declared_layer():
    # about 2 s; writes only under the git-ignored .perfbench_out/
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify_fourier",
         "--seconds", "1", "--trace", "1", "--seed", "23"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert line["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in declared if m["name"] not in line["metrics"]]
    assert not missing
    assert all(math.isfinite(line["metrics"][m["name"]]["value"]) for m in declared)
