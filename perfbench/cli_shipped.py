"""The ``cli_shipped`` workload: every shipped scenario through a fresh
``python -m ncprob.cli run`` process, as a shell user meets the library.

The workload seed shuffles the scenario order of each pass and fixes the
``--seed`` each scenario runs with, so repeats within a run must produce
reports that are byte-identical outside ``timing``.  This module imports
no numpy, so the worker's own set-up stays small.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

from tracer import NullTracer

HERE = Path(__file__).resolve().parent

#: Shipped scenario -> expected verdicts of its certify tasks, in task order.
VERDICTS = {
    "chsh": (),
    "commuting": ("inconclusive",),
    "die": (),
    "fourier2": ("noncommuting",),
    "fourier3": ("noncommuting",),
    "fourier6": ("noncommuting",),
    "interference": (),
    "pauli": ("noncommuting", "inconclusive"),
}
#: Fourier scenarios, whose overlap bound must equal ln d.
FOURIER_DIM = {"fourier2": 2, "fourier3": 3, "fourier6": 6}


class CliShipped:
    #: Peak memory is that of the CLI processes, not of this one.
    rss_of = "children"

    def __init__(self, seed: int, root: Path, smoke: bool = False, sabotage: bool = False):
        self.root = root
        self.seed = seed
        names = ["fourier2", "pauli"] if smoke else sorted(VERDICTS)
        rng = random.Random(seed)
        self.seeds = {name: rng.randrange(2**31) for name in names}
        self.shift = 1e-3 if sabotage else 0.0
        self.tmp = root / ".perfbench_out" / f"tmp-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.reference: dict[str, str] = {}

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def pass_ops(self, k: int) -> list[dict]:
        names = list(self.seeds)
        random.Random(f"{self.seed}:{k}").shuffle(names)
        return [{"kind": "cli", "d": None, "tag": None, "scenario": n, "seed": self.seeds[n]} for n in names]

    def warm_up(self) -> None:
        self.run(self.pass_ops(0)[0], NullTracer())

    def run(self, op: dict, tracer) -> dict:
        report = self.tmp / f"{op['scenario']}.json"
        report.unlink(missing_ok=True)
        if not tracer.enabled:
            cmd = [sys.executable, "-m", "ncprob.cli", "run", op["scenario"],
                   "--out", str(report), "--seed", str(op["seed"])]
            proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True)
            return {"code": proc.returncode, "stderr": proc.stderr, "report": report}
        trace_file = self.tmp / "trace.json"
        cmd = [sys.executable, str(HERE / "cli_child.py"), op["scenario"], str(op["seed"]),
               str(report), str(trace_file)]
        proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True)
        out = {"code": proc.returncode, "stderr": proc.stderr, "report": report}
        if proc.returncode == 0:
            child = json.loads(trace_file.read_text())
            tracer.adopt(child["spans"])
            out.update(values=child["values"], missing=child["missing"], replay_s=child["replay_s"])
        return out

    def replay(self, op: dict, out: dict, tracer) -> None:
        """Nothing to do here: the traced child process replays the run."""

    def check(self, op: dict, out: dict) -> list[str]:
        name = op["scenario"]
        if out["code"] != 0:
            return [f"{name}: exit code {out['code']}: {out['stderr'].strip()[-300:]}"]
        text = out["report"].read_text()
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"{name}: report does not parse: {exc}"]
        fails = []
        certs = [r["result"] for r in report["results"] if r["task"] == "certify"]
        verdicts = tuple(c["verdict"] for c in certs)
        if verdicts != VERDICTS[name]:
            fails.append(f"{name}: verdicts {verdicts} != {VERDICTS[name]}")
        for c in certs:
            best = max(c["maassen_uffink"], c["partovi"])
            if c["numeric_infimum"] < best - 1e-6:
                fails.append(f"{name}: infimum {c['numeric_infimum']!r} undercuts bound {best!r}")
        if name in FOURIER_DIM:
            want = math.log(FOURIER_DIM[name]) + self.shift
            mus = [r["result"]["maassen_uffink"] for r in report["results"]
                   if r["task"] in ("mu_bound", "certify")]
            if not mus or any(abs(mu - want) > 1e-9 for mu in mus):
                fails.append(f"{name}: MU {mus} != ln {FOURIER_DIM[name]}")
        # The timing section is last, so everything before its key is deterministic.
        body = text[: text.rindex('"timing"')]
        if self.reference.setdefault(name, body) != body:
            fails.append(f"{name}: report differs from an earlier run outside timing")
        return fails
