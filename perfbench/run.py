"""Benchmark of ncprob: two workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, one table each
    python3 perfbench/run.py --smoke               # self-test at minimal size
    python3 perfbench/run.py --reconcile           # re-derive the ROADMAP baseline

Workloads: cli_shipped, certify_fourier (see NOTES.md).  Each
run starts fresh worker processes with PYTHONPATH=src and the BLAS thread
count pinned; set-up is timed from a worker's launch to the end of its
warm-up, several times per run.  With ``--trace 0`` the run reports the
end-to-end metrics, with ``--trace 1`` the per-layer ones (names and units
come from BENCHMARK.json).  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.  Full results, including
samples and spans, are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import is_missing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("cli_shipped", "certify_fourier")
#: Set-ups timed per untraced run; the median is reported.
SETUPS = 5
#: BLAS threads of every worker and CLI process.  The load is one closed
#: loop in one process, and the matrices (d <= 32) are too small to gain
#: from more threads, so one thread keeps timings steady.
BLAS_THREADS = 1
#: Longest a worker may take to set up, and to measure beyond --seconds.
SETUP_TIMEOUT_S = 60
MEASURE_SLACK_S = 100
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class BenchError(Exception):
    pass


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # No run leaves bytecode behind, so no run is faster for an earlier
    # one: every CLI process compiles ncprob from source, as a fresh
    # source checkout does.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def launch(cfg: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it once warm, with its set-up time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        cwd=ROOT, env=worker_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"{cfg['workload']}: worker failed during set-up")
    return proc, setup


def run_workload(name: str, seed: int, seconds: float, trace: int, setups: int = SETUPS,
                 **options) -> dict:
    cfg = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
           "smoke": False, "sabotage": False, **options}
    def probe() -> float:
        proc, s = launch(cfg)
        try:
            proc.communicate("stop\n", timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{name}: set-up probe did not stop") from None
        return s

    # The host's speed drifts over tens of seconds, so the probe set-ups
    # are split between before and after the measurement.
    times = [probe() for _ in range((setups - 1) // 2)]
    proc, s = launch(cfg)
    times.append(s)
    try:
        out, _ = proc.communicate("go\n", timeout=seconds + MEASURE_SLACK_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{name}: worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{name}: worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    times += [probe() for _ in range(setups - len(times))]
    result["setups_s"] = times
    return result


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and
    which percentile that is (the maximum when there are too few)."""
    xs = sorted(times)
    k = len(xs) - 10
    if k < 1:
        return xs[-1], 100.0
    return xs[k - 1], 100.0 * k / len(xs)


def end_to_end(result: dict) -> tuple[dict, dict]:
    """Metric values, plus notes printed beside them."""
    samples = result["samples"]
    # A control operation checks soundness; it is not part of the timed mix.
    times = [s["s"] for s in samples if s["kind"] != "control"]
    tail_s, pct = tail(times)
    values = {
        "setup_s": statistics.median(result["setups_s"]),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_s,
        "ops_per_s": len(times) / sum(times),
        "fail_frac": sum(1 for s in samples if s["fail"]) / len(samples),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(result['setups_s'])} set-ups",
        "op_s_p50": f"{len(times)} operations",
        "op_s_tail": f"p{pct:.1f} of {len(times)} operations",
        "fail_frac": "not a declared metric: it is 0 when the program is correct",
    }
    return values, notes


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def report(name: str, seed: int, trace: int, result: dict, out=sys.stdout) -> dict:
    """Print one workload's metrics and its result line; write the full
    result file.  Returns the result line."""
    decl = declared()
    samples = result["samples"] + result.get("untraced", [])
    failed = sum(1 for s in samples if s["fail"])
    env = dict(result["env"], git_commit=git_commit(), workload=name, seed=seed, trace=trace)
    print(f"env: {json.dumps(env)}", file=out)
    print(f"workload {name}, seed {seed}, trace {trace}: {len(samples)} operations, "
          f"{failed} failed", file=out)
    for msg in [m for s in samples for m in s["fail"]][:5]:
        print(f"  FAIL: {msg}", file=out)
    metrics = {}
    if trace:
        for m in decl["per_layer"]:
            if is_missing(m["name"], result["missing"]):
                print(f"  {m['name']:<44} missing (the wrappers cannot see it)", file=out)
                continue
            value = result["layers"].get(m["name"], 0.0)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<44} {value:<14.6g} {m['unit']}", file=out)
    else:
        values, notes = end_to_end(result)
        for m in decl["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        for key, value in values.items():
            unit = metrics[key]["unit"] if key in metrics else "1"
            print(f"  {key:<12} {value:<14.6g} {unit:<6} {notes.get(key, '')}", file=out)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(dict(result, env=env, metrics=metrics)))
    line = {"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}
    print(json.dumps(line), file=out)
    return line


def smoke() -> int:
    """Every workload at minimal size, traced and untraced: each declared
    metric present, well named and with a unit; then a wrong expected
    value must make operations fail."""
    decl = declared()
    problems = []
    for name in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run_workload(name, 1, 1, trace, setups=2, smoke=True)
            line = report(name, 1, trace, result, out=sys.stderr)
            want = {m["name"] for m in decl[kind]}
            got = set(line["metrics"])
            bad = (got - want) | {k for k in want - got if not is_missing(k, result.get("missing", []))}
            if bad:
                problems.append(f"{name} trace {trace}: metrics absent or undeclared: {sorted(bad)}")
            for key, m in line["metrics"].items():
                if not NAME_RE.fullmatch(key) or not m.get("unit"):
                    problems.append(f"{name}: bad metric name or unit: {key!r} {m!r}")
            if not line["correct"]:
                problems.append(f"{name} trace {trace}: operations failed")
        wrong = run_workload(name, 1, 1, 0, setups=1, smoke=True, sabotage=True)
        frac = end_to_end(wrong)[0]["fail_frac"]
        print(f"smoke: {name} with a wrong expected value: fail_frac {frac:.3g}", file=sys.stderr)
        if not frac > 0:
            problems.append(f"{name}: a wrong expected value left fail_frac at 0")
    for p in problems:
        print(f"smoke: FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def reconcile(seconds: float) -> int:
    """The ROADMAP baseline figures, measured by this harness."""
    cli = run_workload("cli_shipped", 1, seconds, 1, setups=1)["layers"]
    cf = run_workload("certify_fourier", 1, seconds, 1, setups=1)["layers"]
    rows = [
        ("import numpy, s", 0.24, cli.get("import.numpy_s")),
        ("import ncprob (with numpy), s", 0.73, cli.get("import.ncprob_s")),
        ("MU + Partovi at d=32, s", 0.40,
         cf.get("eur.maassen_uffink_bound_s.d32", 0.0) + cf.get("eur.partovi_bound_s.d32", 0.0)),
        ("min_entropy_sum at d=16, s", 0.48, cf.get("eur.min_entropy_sum_s.d16")),
        ("min_entropy_sum at d=32, s", 1.3, cf.get("eur.min_entropy_sum_s.d32")),
        ("eigh calls, d=4 certification", 6, cf.get("linalg.eigh_calls.d4")),
        ("eigvalsh calls, d=4 certification", 16, cf.get("linalg.eigvalsh_calls.d4")),
        ("objective evaluations at d=16", 16896, cf.get("optimize.nfev.d16")),
    ]
    print(f"{'figure':<36} {'ROADMAP':>10} {'harness':>12}")
    for label, roadmap, got in rows:
        shown = "missing" if got is None else f"{got:.6g}"
        print(f"{label:<36} {roadmap:>10} {shown:>12}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--reconcile", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ncprob" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"benchmark: no ncprob sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    seconds = args.seconds or declared()["run_seconds"]
    try:
        if args.smoke:
            return smoke()
        if args.reconcile:
            return reconcile(seconds)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            result = run_workload(name, args.seed, seconds, args.trace,
                                  setups=1 if args.trace else SETUPS)
            report(name, args.seed, args.trace, result)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
