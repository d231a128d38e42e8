"""Every shipped scenario's report matches its committed copy.

``tests/reports/`` holds the report of each shipped scenario at its own
seed (``<name>.json``) and at ``--seed 4242`` (``<name>.seed4242.json``),
without the ``timing`` section: the text ``dumps_report`` writes before
``"timing"``, closed as a JSON object.  ``environment.json`` stamps what
those bytes depend on.  In a process with the same stamp the test compares
bytes; under another stamp it compares strings (the verdicts among them),
integers and booleans exactly and floats to ``FLOAT_RTOL``.

After a change that moves report bits on purpose, rewrite the files and
name the moved fields in CHANGES.md:

    PYTHONPATH=src python tests/test_committed_reports.py
"""

import itertools
import json
import math
import os
import platform
from pathlib import Path

import numpy as np
import scipy

from ncprob.scenario import dumps_report, execute_scenario, load_scenario, shipped_scenarios

REPORTS = Path(__file__).resolve().parent / "reports"
STAMP = REPORTS / "environment.json"
SEEDS = {"": None, ".seed4242": 4242}
#: Floats under another stamp: relative to the larger magnitude, with the
#: same figure as an absolute floor for entries near 0.  Six OpenBLAS
#: kernels (Prescott, Nehalem, Sandybridge, Haswell, SkylakeX, Zen) and
#: numpy without its AVX-512 loops moved 10 of the 16 reports by at most
#: 5.2e-14 relative, and no other leaf.
FLOAT_RTOL = 1e-9


def environment_stamp() -> dict:
    """What a report's bytes depend on besides the scenario and seed: the
    numpy and scipy builds, the BLAS, the CPU features numpy dispatches to,
    and any BLAS threading or kernel variables."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "machine": platform.machine(),
        "cpu_dispatch": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)],
        "variables": {
            k: v for k, v in sorted(os.environ.items()) if k.startswith("OPENBLAS_") or k == "OMP_NUM_THREADS"
        },
    }


def render(path: Path, seed) -> str:
    """The report of one scenario run, without ``timing``."""
    report, _ = execute_scenario(load_scenario(path), seed_override=seed)
    del report["timing"]
    return dumps_report(report)


def expected_files() -> dict:
    """File name -> (scenario path, seed) for every committed report."""
    return {
        f"{name}{suffix}.json": (path, seed)
        for name, path in shipped_scenarios().items()
        for suffix, seed in SEEDS.items()
    }


def first_difference(want, got, rtol: float, where: str = "$"):
    """The JSON path of the first leaf where ``got`` departs from ``want``,
    or None: keys, lengths and types must agree, and floats to ``rtol``."""
    if type(want) is not type(got):
        return where
    if isinstance(want, dict):
        if list(want) != list(got):
            return where
        return next(filter(None, (first_difference(want[k], got[k], rtol, f"{where}.{k}") for k in want)), None)
    if isinstance(want, list):
        if len(want) != len(got):
            return where
        return next(filter(None, (first_difference(w, g, rtol, f"{where}[{i}]") for i, (w, g) in enumerate(zip(want, got)))), None)
    if isinstance(want, float):
        return None if math.isclose(want, got, rel_tol=rtol, abs_tol=rtol) else where
    return None if want == got else where


def mismatch(name: str, want: str, got: str, same_stamp: bool):
    """None when ``got`` matches ``want``, else a message naming the file
    and the first line (bytes) or JSON path (tolerance) that departs."""
    if not same_stamp:
        path = first_difference(json.loads(want), json.loads(got), FLOAT_RTOL)
        return None if path is None else f"{name}: {path} departs beyond rtol {FLOAT_RTOL}"
    if want == got:
        return None
    line, w, g = next((i, w, g) for i, (w, g) in enumerate(itertools.zip_longest(
        want.splitlines(), got.splitlines(), fillvalue="")) if w != g)
    path = first_difference(json.loads(want), json.loads(got), 0.0)
    return f"{name}: line {line + 1} ({path}): committed {w.strip()!r} but ran {g.strip()!r}"


def test_shipped_reports_match_the_committed_files():
    expected = expected_files()
    committed = sorted(p.name for p in REPORTS.glob("*.json") if p != STAMP)
    assert committed == sorted(expected), "rewrite the committed reports: the shipped scenarios changed"
    same_stamp = json.loads(STAMP.read_text()) == environment_stamp()
    problems = [
        mismatch(name, (REPORTS / name).read_text(), render(path, seed), same_stamp)
        for name, (path, seed) in expected.items()
    ]
    assert not any(problems), "\n".join(filter(None, problems))


def test_a_one_ulp_change_fails_and_names_its_path():
    want = (REPORTS / "pauli.json").read_text()
    report = json.loads(want)
    assert report["results"][3]["task"] == "certify"
    cert = report["results"][3]["result"]
    mu = cert["maassen_uffink"]
    cert["maassen_uffink"] = math.nextafter(mu, math.inf)
    moved = dumps_report(report)
    assert mismatch("pauli.json", want, moved, same_stamp=True) == (
        "pauli.json: line 66 ($.results[3].result.maassen_uffink): "
        "committed '\"maassen_uffink\": 0.69314718055994551,' but ran '\"maassen_uffink\": 0.69314718055994562,'"
    )
    assert mismatch("pauli.json", want, moved, same_stamp=False) is None
    cert["maassen_uffink"], cert["verdict"] = mu, "inconclusive"
    assert mismatch("pauli.json", want, dumps_report(report), same_stamp=False) == (
        f"pauli.json: $.results[3].result.verdict departs beyond rtol {FLOAT_RTOL}"
    )


def rewrite() -> None:
    REPORTS.mkdir(exist_ok=True)
    for stale in REPORTS.glob("*.json"):
        stale.unlink()
    for name, (path, seed) in expected_files().items():
        (REPORTS / name).write_text(render(path, seed))
    STAMP.write_text(json.dumps(environment_stamp(), indent=2) + "\n")


if __name__ == "__main__":
    rewrite()
