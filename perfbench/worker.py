"""Worker process of the benchmark: sets up one workload, warms it up, and
measures it in a closed loop (the next operation starts when the previous
one has finished).

Usage: worker.py CONFIG_JSON, started by run.py with PYTHONPATH set to the
checkout's ``src`` and the BLAS thread count pinned.  After set-up and
warm-up the worker prints ``ready`` and reads one line from stdin: ``go``
starts the measurement, anything else ends the process (a set-up probe).
The result is printed as one JSON line.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracer import COUNTERS, NullTracer, Tracer, install_counters, is_missing, self_time

ROOT = Path(__file__).resolve().parent.parent

#: Component calls replayed after each certification; the certify span
#: minus these is ``eur.certify.self_s``.
CERTIFY_COMPONENTS = (
    "eur.maassen_uffink_bound",
    "eur.partovi_bound",
    "eur.min_entropy_sum",
    "hilbert.commutator_norm",
)
#: Counter -> layer whose spans must reach it.  When spans of that layer
#: ran and the counter saw none of their calls, the wrappers cannot see it.
MUST_SEE = {
    "optimize.minimize_calls": "eur.min_entropy_sum",
    "optimize.nfev": "eur.min_entropy_sum",
}


def make_workload(cfg: dict):
    name, seed = cfg["workload"], cfg["seed"]
    flags = {"smoke": cfg["smoke"], "sabotage": cfg["sabotage"]}
    if name == "cli_shipped":
        from cli_shipped import CliShipped

        return CliShipped(seed, ROOT, **flags)
    if name == "certify_fourier":
        from inproc import CertifyFourier

        return CertifyFourier(seed, **flags)
    raise ValueError(f"unknown workload {name!r}")


def run_op(workload, op: dict, tracer, op_id: int) -> dict:
    out, fails = None, []
    with tracer.op(op_id, kind=op["kind"], tag=op["tag"]):
        t0 = time.perf_counter()
        try:
            out = workload.run(op, tracer)
        except Exception as exc:  # an operation that raises is a failed operation
            fails.append(f"{op['kind']} d={op['d']}: {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
        if out is not None and tracer.enabled:
            workload.replay(op, out, tracer)
    if out is not None:
        try:
            fails = workload.check(op, out)
        except Exception as exc:  # a malformed output fails its check
            fails = [f"{op['kind']} d={op['d']}: check raised {type(exc).__name__}: {exc}"]
        seconds -= out.get("replay_s", 0.0)
    return {"kind": op["kind"], "tag": op["tag"], "s": seconds, "fail": fails,
            "values": (out or {}).get("values", {}), "missing": (out or {}).get("missing", [])}


def measure(workload, seconds: float, tracer, first_pass: int) -> tuple[list[dict], int]:
    """Whole passes, starting new ones while time remains."""
    samples: list[dict] = []
    deadline = time.perf_counter() + seconds
    k = first_pass
    while k == first_pass or time.perf_counter() < deadline:
        for op in workload.pass_ops(k):
            samples.append(run_op(workload, op, tracer, len(samples)))
        k += 1
    return samples, k


def ops_per_s(samples: list[dict]) -> float:
    return len(samples) / sum(s["s"] for s in samples)


def layer_metrics(spans: list[dict], samples: list[dict], missing: list[str]) -> tuple[dict, list[str]]:
    """Per-layer figures of a traced run: mean self time per call of each
    span name, mean counts per operation (replays excluded), and mean of
    every value the operations reported.  Names carry a ``.d<N>`` suffix
    for operations tagged with a dimension.  Also returns the counters the
    wrappers cannot see: ``missing`` plus those found here."""
    own = self_time(spans)
    roots = {s["op"]: s for s in spans if s["name"] == "op"}
    total, n = defaultdict(float), defaultdict(int)

    def add(key, value, tag):
        for k in (key, f"{key}.{tag}") if tag else (key,):
            total[k] += value
            n[k] += 1

    replayed = defaultdict(float)
    for s in spans:
        if s["name"] in CERTIFY_COMPONENTS and s["replay"]:
            replayed[s["op"]] += s["end"] - s["start"]
    for s in spans:
        if s["name"] == "op":
            continue
        tag = roots[s["op"]]["tag"]
        add(f"{s['name']}_s", own[s["id"]], tag)
        if "iterations" in s:
            add(f"{s['name']}.iterations", s["iterations"], tag)
        if s["name"] == "eur.certify":
            add("eur.certify.self_s", s["end"] - s["start"] - replayed[s["op"]], tag)

    per_op = defaultdict(lambda: defaultdict(int))
    for s in spans:
        if not s["replay"]:
            for key, c in s["counts"].items():
                per_op[s["op"]][key] += c
    for op, root in roots.items():
        for key in COUNTERS:
            add(key, per_op[op][key], root["tag"])

    for sample in samples:
        for key, vals in sample["values"].items():
            for v in vals:
                add(key, v, None)

    missing = set(missing).union(*(s["missing"] for s in samples))
    for counter, layer in MUST_SEE.items():
        ran = [s for s in spans if s["name"] == layer]
        if ran and not any(s["counts"].get(counter) for s in ran):
            missing.add(counter)
    out = {k: total[k] / n[k] for k in total if not is_missing(k, missing)}
    return out, sorted(missing)


def env_stamp() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
    }


def main(cfg: dict) -> int:
    workload = make_workload(cfg)
    try:
        workload.warm_up()
        print("ready", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        result = {}
        if cfg["trace"]:
            plain, k = measure(workload, cfg["seconds"] / 2, NullTracer(), 0)
            tracer = Tracer()
            missing = install_counters(tracer)
            samples, _ = measure(workload, cfg["seconds"] / 2, tracer, k)
            layers, missing = layer_metrics(tracer.spans, samples, missing)
            layers["trace.overhead_frac"] = ops_per_s(plain) / ops_per_s(samples) - 1.0
            result.update(layers=layers, missing=missing, spans=tracer.spans, untraced=plain)
        else:
            samples, _ = measure(workload, cfg["seconds"], NullTracer(), 0)
    finally:
        getattr(workload, "close", lambda: None)()
    for s in samples + result.get("untraced", []):
        del s["values"], s["missing"]
    who = resource.RUSAGE_CHILDREN if getattr(workload, "rss_of", "self") == "children" else resource.RUSAGE_SELF
    result.update(samples=samples, peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0, env=env_stamp())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
