"""One traced ``ncprob run`` in a fresh process.

Usage: cli_child.py SCENARIO SEED REPORT_PATH TRACE_PATH

Times ``import numpy`` and ``import ncprob`` first, so nothing but the
stdlib ``sys`` and ``time`` is loaded before them.  Then it installs the
count wrappers, runs ``cli.main`` in-process under the ``cli.run`` span,
and replays the run's components (load, validate, execute, serialise, and
the ``lln_frequency`` and ``gns_construct`` calls of its tasks) under spans
of their own.  Spans, counts, import times and the per-task wall clock
from the report go to TRACE_PATH as JSON; the exit code is the CLI's.
"""

import sys
import time

t0 = time.perf_counter()
import numpy  # noqa: E402

t1 = time.perf_counter()
import ncprob  # noqa: E402,F401

t2 = time.perf_counter()

import json  # noqa: E402
from pathlib import Path  # noqa: E402

from ncprob import classical, cli, hilbert, scenario  # noqa: E402

from tracer import Tracer, install_counters  # noqa: E402


def _gns_basis(kind: str, d: int) -> list:
    """Matrix units of the full algebra, or the diagonal ones."""
    pairs = [(i, j) for i in range(d) for j in range(d)] if kind == "full" else [(i, i) for i in range(d)]
    basis = []
    for i, j in pairs:
        m = numpy.zeros((d, d), dtype=complex)
        m[i, j] = 1.0
        basis.append(m)
    return basis


def replay(sc_name: str, seed: int, tracer: Tracer) -> None:
    path = scenario.resolve_scenario_path(sc_name)
    with tracer.span("scenario.load_scenario", replay=True):
        sc = scenario.load_scenario(path)
    with tracer.span("scenario.validate_scenario", replay=True):
        scenario.validate_scenario(sc)
    with tracer.span("scenario.execute_scenario", replay=True):
        report, _ = scenario.execute_scenario(sc, seed_override=seed)
    with tracer.span("scenario.dumps_report", replay=True):
        scenario.dumps_report(report)
    for task in sc.tasks:
        args = task.args
        if task.name == "lln":
            space = sc.spaces[args["space"]]
            event = classical.Event(sc.contexts[args["event"]])
            with tracer.span("classical.lln_frequency", replay=True):
                classical.lln_frequency(space, event, int(args["trials"]), int(args.get("seed", 0)))
        elif task.name == "gns":
            basis = _gns_basis(args["algebra"], sc.dimension)
            probs = sc.distributions[args["state"]].probs
            rho = hilbert.DensityOperator(numpy.diag(numpy.asarray(probs, dtype=complex)))
            with tracer.span("hilbert.gns_construct", replay=True):
                hilbert.gns_construct(basis, rho)


def main(sc_name: str, seed: str, report_path: str, trace_path: str) -> int:
    tracer = Tracer()
    missing = install_counters(tracer)
    with tracer.span("cli.run"):
        code = cli.main(["run", sc_name, "--out", report_path, "--seed", seed])
    if code != 0:
        return code
    replay(sc_name, int(seed), tracer)
    values = {"import.numpy_s": [t1 - t0], "import.ncprob_s": [t2 - t0]}
    report = json.loads(Path(report_path).read_text())
    for entry, wall in zip(report["results"], report["timing"]["wall_clock_s"]):
        values.setdefault(f"scenario.task.{entry['task']}_s", []).append(wall)
    Path(trace_path).write_text(json.dumps({
        "spans": tracer.spans,
        "values": values,
        "missing": missing,
        "replay_s": sum(s["end"] - s["start"] for s in tracer.spans if s["replay"]),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
