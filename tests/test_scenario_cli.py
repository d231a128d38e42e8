"""Scenario files, report format, exit codes, and the command-line interface."""

import contextlib
import copy
import gc
import importlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ncprob
from helpers import conjugated_diagonal_pair, random_unitary
from ncprob import joint_pvm, spectral_pvm
from ncprob import scenario as scenario_module
from ncprob.cli import main
from ncprob.errors import ScenarioError
from ncprob.hilbert import EIGENVALUE_TOL
from ncprob.scenario import (
    MAX_RESTARTS,
    MAX_TRIALS,
    describe_task,
    dumps_report,
    execute_scenario,
    list_tasks,
    load_scenario,
    resolve_scenario_path,
    run_scenario,
    shipped_scenarios,
    validate_scenario,
)

SHIPPED = shipped_scenarios()

MINIMAL = {
    "name": "unit-fixture",
    "dimension": 2,
    "distributions": {
        "mu": {"support": [0.0, 1.0], "probs": [0.5, 0.5]},
        "nu": {"support": [0.0, 1.0], "probs": [0.5, 0.5]},
    },
    "unitary": {"kind": "hadamard"},
    "partitions": {"fine": [[0.0], [1.0]]},
    "optimizer": {"restarts": 2, "max_iters": 60},
    "tasks": [
        {"task": "mu_bound", "args": {"dist_x": "mu", "dist_y": "nu"}},
        {
            "task": "certify",
            "args": {"dist_x": "mu", "dist_y": "nu", "eps": "fine", "delta": "fine"},
        },
    ],
}


def write_scenario(tmp_path, payload, name="case.scenario"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def run_cli(*args, stdout=subprocess.PIPE, env=None):
    """`python -m ncprob.cli ARGS` in a fresh process, through `process_main`,
    with ``env`` added to this process's environment."""
    src = str(Path(ncprob.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "ncprob.cli", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, **(env or {}), "PYTHONPATH": src},
    )


def strip_timing(text: str) -> str:
    report = json.loads(text)
    report.pop("timing", None)
    return json.dumps(report, sort_keys=True)


class TestShippedScenarios:
    def test_expected_fixture_set(self):
        assert set(SHIPPED) == {
            "die",
            "fourier2",
            "fourier3",
            "fourier6",
            "pauli",
            "chsh",
            "interference",
            "commuting",
        }

    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_validates_and_completes_quickly(self, name, tmp_path):
        scenario = load_scenario(SHIPPED[name])
        validate_scenario(scenario)
        start = time.perf_counter()
        code = run_scenario(SHIPPED[name], out=tmp_path / "report.json")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 60.0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["tool"] == "ncprob"
        assert all(item["status"] == "ok" for item in report["results"])

    def test_die_pipeline_values(self, tmp_path):
        run_scenario(SHIPPED["die"], out=tmp_path / "r.json")
        report = json.loads((tmp_path / "r.json").read_text())
        by_task = [item["result"] for item in report["results"]]
        face, printed, lln = by_task
        assert face["mean"] == 3.5
        assert face["entropy_nats"] == pytest.approx(math.log(6.0), abs=1e-12)
        assert printed["probs"] == [0.125, 0.25, 0.125, 0.125, 0.25, 0.125]
        assert printed["entropy_nats"] < face["entropy_nats"]
        assert lln["abs_gap"] < 0.005

    def test_fourier6_certifies(self, tmp_path):
        run_scenario(SHIPPED["fourier6"], out=tmp_path / "r.json")
        report = json.loads((tmp_path / "r.json").read_text())
        cert = next(
            item["result"] for item in report["results"] if item["task"] == "certify"
        )
        assert cert["verdict"] == "noncommuting"
        assert cert["maassen_uffink"] == pytest.approx(math.log(6.0), abs=1e-9)

    def test_pauli_coarse_infimum_is_exactly_zero(self, tmp_path):
        run_scenario(SHIPPED["pauli"], out=tmp_path / "r.json")
        report = json.loads((tmp_path / "r.json").read_text())
        coarse = next(
            item["result"]
            for item in report["results"]
            if item["task"] == "certify" and item["args"]["eps"] == "coarse"
        )
        assert coarse["numeric_infimum"] == 0.0
        assert math.copysign(1.0, coarse["numeric_infimum"]) == 1.0

    def test_chsh_reaches_tsirelson(self, tmp_path):
        run_scenario(SHIPPED["chsh"], out=tmp_path / "r.json")
        report = json.loads((tmp_path / "r.json").read_text())
        beta = report["results"][0]["result"]["beta"]
        assert beta == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)

    def test_reports_deterministic_excluding_timing(self, tmp_path):
        run_scenario(SHIPPED["fourier6"], out=tmp_path / "a.json")
        run_scenario(SHIPPED["fourier6"], out=tmp_path / "b.json")
        a = (tmp_path / "a.json").read_text()
        b = (tmp_path / "b.json").read_text()
        assert strip_timing(a) == strip_timing(b)
        # the raw bytes agree everywhere outside the isolated timing section
        assert a.split('"timing"')[0] == b.split('"timing"')[0]

    def test_report_depends_only_on_the_scenario_file_and_seed(self, monkeypatch):
        # the environment variable that overrode the restart count until it
        # was removed; a report must not move with it
        stale = f"{scenario_module.TOOL_NAME.upper()}_RESTARTS"
        monkeypatch.delenv(stale, raising=False)
        with_var = run_cli("run", "fourier2", env={stale: "3"})
        without = run_cli("run", "fourier2")
        assert with_var.returncode == without.returncode == 0, with_var.stderr + without.stderr
        assert with_var.stdout.split('"timing"')[0] == without.stdout.split('"timing"')[0]
        cert = next(item["result"] for item in json.loads(with_var.stdout)["results"] if item["task"] == "certify")
        assert cert["optimizer_evidence"]["restarts"] == 8  # fourier2.scenario's own count


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0)
_COMPLEX = st.builds(complex, _FINITE, _FINITE)
_COMPLEX_ARRAYS = st.lists(_COMPLEX, min_size=1, max_size=3).map(np.array) | st.lists(
    st.lists(_COMPLEX, min_size=2, max_size=2), min_size=1, max_size=2
).map(np.array)
_REPORT_VALUES = st.recursive(
    _FINITE | _COMPLEX_ARRAYS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("abc", max_size=2), inner, max_size=3),
    max_leaves=8,
)


# A two-pass reference writer, the oracle for dumps_report: _payload turns
# task results into plain lists and numbers, and _emit writes those.


def _payload(value):
    """Convert task results to JSON-emittable structures.

    Complex scalars and complex-typed arrays become [re, im] pairs;
    real-typed arrays stay plain numbers.
    """
    if isinstance(value, dict):
        return {k: _payload(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_payload(v) for v in value]
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return _payload([[float(z.real), float(z.imag)] for z in value] if value.ndim == 1
                            else [[[float(z.real), float(z.imag)] for z in row] for row in value])
        return _payload(value.tolist())
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"cannot serialise {type(value).__name__}")


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot emit non-finite float {x!r}")
    s = format(x + 0.0, ".17g")  # + 0.0 folds -0.0 into 0.0
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def _oracle_dumps(value) -> str:
    out: list[str] = []
    _emit(_payload(value), out, 0)
    out.append("\n")
    return "".join(out)


def _emit(obj, out: list, indent: int) -> None:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(f"{inner}{json.dumps(str(k))}: ")
            _emit(v, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        simple = all(isinstance(v, (int, float, bool, str, type(None))) for v in obj)
        if simple:
            parts = [_scalar(v) for v in obj]
            out.append("[" + ", ".join(parts) + "]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(inner)
            _emit(v, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        out.append(_scalar(obj))


def _scalar(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot emit {type(obj).__name__}")


_F64 = _FINITE | st.sampled_from([5e-324, -5e-324, 2.225073858507201e-308, -1e-310])
_C128 = st.builds(complex, _F64, _F64)
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3)
#: Everything a runner may return, within what the oracle can convert: it
#: has no rule for a 0-d complex array or a complex one of more than 2 axes.
_ORACLE_LEAVES = st.one_of(
    _F64,
    _F64.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    _C128,
    _C128.map(np.complex128),
    st.none(),
    st.text(max_size=3),
    hnp.arrays(np.float64, _SHAPES, elements=_F64),
    hnp.arrays(np.complex128, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3), elements=_C128),
    hnp.arrays(np.int64, _SHAPES),
    hnp.arrays(np.bool_, _SHAPES),
)
_ORACLE_VALUES = st.recursive(
    _ORACLE_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text("abc", max_size=2), inner, max_size=3),
    max_leaves=10,
)


class TestReportFormat:
    def test_report_is_json_with_float_round_trip(self, tmp_path):
        path = write_scenario(tmp_path, MINIMAL)
        code = run_scenario(path, out=tmp_path / "r.json")
        assert code == 0
        text = (tmp_path / "r.json").read_text()
        report = json.loads(text)
        mu = report["results"][0]["result"]["maassen_uffink"]
        assert mu == pytest.approx(math.log(2.0), abs=1e-12)
        # 17 significant digits: parsing the printed value is lossless
        assert "0.69314718055994" in text

    def test_integral_floats_keep_a_decimal_point(self):
        text = dumps_report({"x": 1.0, "y": -0.0, "z": [2.0, 0.5]})
        assert '"x": 1.0' in text
        assert '"y": 0.0' in text
        assert "2.0" in text

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(value=_REPORT_VALUES)
    @example(value={"x": -0.0, "z": np.array([complex(-0.0, -0.0)]), "m": np.array([[complex(-0.0, 1.0)]])})
    def test_no_negative_zero_and_json_round_trip(self, value):
        # task results reach dumps_report as the runners return them; the
        # oracle conversion below gives the structure the text must parse to
        text = dumps_report(value)
        tokens = []
        assert json.loads(text, parse_float=lambda tok: tokens.append(tok) or float(tok)) == _payload(value)
        assert not [tok for tok in tokens if tok.startswith("-") and float(tok) == 0.0]

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(value=_ORACLE_VALUES)
    @example(value={"s": np.zeros((0, 2)), "w": np.zeros((2, 0), dtype=complex), "e": [(), {}, []], "t": (np.float32(0.1),)})
    def test_matches_the_two_pass_oracle(self, value):
        assert dumps_report(value) == _oracle_dumps(value)

    def test_arrays_the_oracle_cannot_convert(self):
        # a 0-d complex array is its complex scalar; a 3-d one is the list of its 2-d slices
        assert dumps_report(np.array(complex(1.0, -0.0))) == dumps_report(complex(1.0, -0.0)) == "[1.0, 0.0]\n"
        cube = np.arange(8.0).reshape(2, 2, 2) * (1 - 1j)
        assert dumps_report({"c": cube}) == _oracle_dumps({"c": list(cube)})

    @pytest.mark.parametrize(
        "bad",
        [
            math.nan,
            np.float32(math.inf),
            np.array([[1.0, 2.0], [3.0, -math.inf]]),
            np.array([[1 + 1j, 2.0], [3.0, complex(4.0, math.nan)]]),
            np.array([1.0, np.longdouble(1e300) ** 2], dtype=np.longdouble),  # finite only past binary64
        ],
        ids=["float", "float32", "real-2d-entry", "complex-2d-imaginary-part", "longdouble-past-binary64"],
    )
    def test_non_finite_value_anywhere_raises(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected by name, with no warning on the way
            with pytest.raises(ValueError, match="non-finite"):
                dumps_report({"results": [{"result": {"ok": [1.0, 2], "bad": bad}}]})

    def test_seed_override_recorded(self, tmp_path):
        path = write_scenario(tmp_path, MINIMAL)
        run_scenario(path, out=tmp_path / "a.json", seed=4242)
        report = json.loads((tmp_path / "a.json").read_text())
        assert report["seed"] == 4242
        cert = report["results"][1]["result"]
        assert cert["optimizer_evidence"]["seed"] == 4242


class TestValidationErrors:
    def test_missing_file(self, capsys):
        assert main(["run", "no-such-file.scenario"]) == 2
        assert "no such file or shipped scenario" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.scenario"
        p.write_text("{not json")
        assert run_scenario(p) == 2
        assert "scenario error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text", ['{"dimension": ' + "1" * 5000 + "}", "[" * 100_000], ids=["long-integer", "deep"]
    )
    def test_json_the_parser_cannot_hold_exits_2(self, tmp_path, capsys, text):
        p = tmp_path / "bad.scenario"
        p.write_text(text)
        assert run_scenario(p) == 2
        assert f"scenario error: {p}: not valid JSON" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        payload = copy.deepcopy(MINIMAL)
        payload["surprise"] = 1
        assert run_scenario(write_scenario(tmp_path, payload)) == 2
        assert "surprise" in capsys.readouterr().err

    def test_unknown_task_name(self, tmp_path, capsys):
        payload = copy.deepcopy(MINIMAL)
        payload["tasks"] = [{"task": "nope", "args": {}}]
        assert run_scenario(write_scenario(tmp_path, payload)) == 2
        assert "nope" in capsys.readouterr().err

    def test_partition_must_cover_the_support(self, tmp_path, capsys):
        payload = copy.deepcopy(MINIMAL)
        payload["partitions"]["oops"] = [[0.0], [7.0]]
        payload["tasks"] = [
            {
                "task": "certify",
                "args": {"dist_x": "mu", "dist_y": "nu", "eps": "oops", "delta": "fine"},
            }
        ]
        assert run_scenario(write_scenario(tmp_path, payload)) == 2
        err = capsys.readouterr().err
        assert "tasks[0].args.eps" in err

    def test_dimension_mismatch(self, tmp_path, capsys):
        payload = copy.deepcopy(MINIMAL)
        payload["distributions"]["mu"] = {
            "support": [0.0, 1.0, 2.0],
            "probs": [0.25, 0.25, 0.5],
        }
        assert run_scenario(write_scenario(tmp_path, payload)) == 2
        assert "dimension" in capsys.readouterr().err.lower()

    def test_unknown_distribution_reference(self, tmp_path, capsys):
        payload = copy.deepcopy(MINIMAL)
        payload["tasks"] = [{"task": "mu_bound", "args": {"dist_x": "mu", "dist_y": "xi"}}]
        assert run_scenario(write_scenario(tmp_path, payload)) == 2
        assert "xi" in capsys.readouterr().err

    @pytest.mark.parametrize("arg", ["dist_y", "eps"])
    @pytest.mark.parametrize("bad", [[], {}], ids=["list", "dict"])
    def test_non_string_reference_exits_2_naming_the_field(self, tmp_path, capsys, arg, bad):
        payload = copy.deepcopy(MINIMAL)
        payload["tasks"][1]["args"][arg] = bad
        assert main(["run", str(write_scenario(tmp_path, payload))]) == 2
        err = capsys.readouterr().err
        assert f"tasks[1].args.{arg}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("dimension", [1025, 100_000])
    def test_oversized_dimension_exits_2_before_any_allocation(
        self, tmp_path, capsys, monkeypatch, dimension
    ):
        def no_unitary(*args):
            raise AssertionError("the unitary was built for an oversized dimension")

        monkeypatch.setattr(scenario_module, "_build_unitary", no_unitary)
        payload = json.loads(SHIPPED["fourier2"].read_text())
        payload["dimension"] = dimension
        assert main(["run", str(write_scenario(tmp_path, payload))]) == 2
        err = capsys.readouterr().err
        assert "scenario error: dimension:" in err
        assert "Traceback" not in err

    def test_oversized_trial_count_exits_2(self, tmp_path, capsys):
        payload = json.loads(SHIPPED["die"].read_text())
        payload["tasks"][2]["args"]["trials"] = scenario_module.MAX_TRIALS + 1
        path = write_scenario(tmp_path, payload)
        assert main(["run", str(path), "--out", str(tmp_path / "r.json")]) == 2
        assert "scenario error: tasks[2].args.trials:" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @staticmethod
    def gns_payload(algebra, d):
        return {
            "name": "gns-ceiling",
            "dimension": d,
            "distributions": {"flat": {"support": list(range(d)), "probs": [1 / d] * d}},
            "tasks": [{"task": "gns", "args": {"algebra": algebra, "state": "flat"}}],
        }

    @pytest.mark.parametrize("algebra, d", [("full", 17), ("diagonal", 65)])
    def test_gns_past_its_ceiling_exits_2_before_any_construction(
        self, tmp_path, capsys, monkeypatch, algebra, d
    ):
        def no_gns(*args):
            raise AssertionError("a GNS construction ran past the ceiling")

        monkeypatch.setattr(scenario_module.hilbert, "gns_construct", no_gns)
        out = tmp_path / "r.json"
        assert main(["run", str(write_scenario(tmp_path, self.gns_payload(algebra, d))), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "scenario error: tasks[0].args.algebra:" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("algebra", ["full", "diagonal"])
    def test_gns_at_its_ceiling_validates(self, tmp_path, algebra):
        d = scenario_module.MAX_GNS_DIMENSION[algebra]
        validate_scenario(load_scenario(write_scenario(tmp_path, self.gns_payload(algebra, d))))


_LLN = ("tasks", 2, "args")  # die.scenario
_OVERLAP = ("tasks", 1, "args")  # fourier2.scenario
_FACE = ("variables", "face_value", "values")  # die.scenario
_BORN = ("kernel", "from_unitary")  # interference.scenario

#: (scenario, path of the edited key, new value, extra CLI arguments, the
#: field the error must name)
BOUNDARY_CASES = [
    pytest.param("die", _LLN + ("trials",), True, [], "tasks[2].args.trials", id="lln-trials-true"),
    pytest.param("die", _LLN + ("seed",), "abc", [], "tasks[2].args.seed", id="lln-seed-string"),
    pytest.param("die", _LLN + ("seed",), -1, [], "tasks[2].args.seed", id="lln-seed-negative"),
    pytest.param("die", _LLN + ("seed",), [], [], "tasks[2].args.seed", id="lln-seed-list"),
    pytest.param("die", _LLN + ("seed",), 1.5, [], "tasks[2].args.seed", id="lln-seed-float"),
    pytest.param("die", _LLN + ("seed",), True, [], "tasks[2].args.seed", id="lln-seed-true"),
    pytest.param("fourier2", _OVERLAP + ("target_bound",), math.inf, [], "tasks[1].args.target_bound", id="target-bound-inf"),
    pytest.param("fourier2", _OVERLAP + ("target_bound",), True, [], "tasks[1].args.target_bound", id="target-bound-true"),
    pytest.param("fourier2", ("optimizer", "restarts"), True, [], "optimizer.restarts", id="restarts-true"),
    pytest.param("fourier2", ("optimizer", "restarts"), 1.9, [], "optimizer.restarts", id="restarts-float"),
    pytest.param("fourier2", ("optimizer", "restarts"), MAX_RESTARTS + 1, [], "optimizer.restarts", id="restarts-over-limit"),
    pytest.param("fourier2", ("optimizer", "seed"), "12", [], "optimizer.seed", id="optimizer-seed-string"),
    pytest.param("fourier2", ("optimizer", "seed"), -5, [], "optimizer.seed", id="optimizer-seed-negative"),
    pytest.param("fourier2", ("optimizer", "tol"), -1.0, [], "optimizer.tol", id="tol-negative"),
    pytest.param("fourier2", ("optimizer", "tol"), math.nan, [], "optimizer.tol", id="tol-nan"),
    pytest.param("fourier2", ("optimizer", "tol"), math.inf, [], "optimizer.tol", id="tol-inf"),
    pytest.param("fourier2", ("optimizer", "restartz"), 8, [], "optimizer.restartz", id="optimizer-unknown-key"),
    pytest.param("fourier2", (), None, ["--seed", "-1"], "--seed", id="cli-seed-negative"),
    pytest.param("die", _FACE + ("6",), math.inf, [], "variables.face_value.values", id="variable-value-inf"),
    pytest.param("die", _FACE + ("6",), math.nan, [], "variables.face_value.values", id="variable-value-nan"),
    # integer literals beyond the float range
    pytest.param("fourier2", _OVERLAP + ("target_bound",), 10**400, [], "tasks[1].args.target_bound", id="target-bound-huge"),
    pytest.param("die", _FACE + ("6",), 10**400, [], "variables.face_value.values", id="variable-value-huge"),
    pytest.param("fourier2", ("distributions", "mu", "support"), [1, 10**400], [], "distributions.mu", id="support-huge"),
    pytest.param(
        "interference", ("kernel",), {"alpha": [[10**400, 0], [0, 1]], "alpha_tilde": [[1, 0], [0, 1]]}, [], "kernel",
        id="kernel-huge",
    ),
    # misspelled fields
    pytest.param("fourier2", ("distributions", "mu", "probz"), [0.5, 0.5], [], "distributions.mu.probz", id="probz"),
    pytest.param("die", ("spaces", "six_faces", "wieghts"), [1.0], [], "spaces.six_faces.wieghts", id="wieghts"),
    pytest.param("fourier2", ("unitary", "knd"), "fourier", [], "unitary.knd", id="unitary-knd"),
    pytest.param("interference", ("kernel", "alhpa"), [[1, 0], [0, 1]], [], "kernel.alhpa", id="kernel-alhpa"),
    # the kernel and unitary either/or rules
    pytest.param("interference", _BORN, "no", [], "kernel.from_unitary", id="from-unitary-string"),
    pytest.param("interference", _BORN, 0, [], "kernel.from_unitary", id="from-unitary-0"),
    pytest.param("interference", _BORN, 1, [], "kernel.from_unitary", id="from-unitary-1"),
    pytest.param("interference", ("kernel", "alpha"), [[1, 0], [0, 1]], [], "kernel", id="from-unitary-and-alpha"),
    pytest.param("fourier2", ("unitary", "entries"), [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [], "unitary.entries", id="entries-with-fourier"),
    # numbers coerced from strings and booleans
    pytest.param("fourier2", ("distributions", "mu", "support"), ["1", 2], [], "distributions.mu", id="support-string"),
    pytest.param("fourier2", ("distributions", "mu", "probs"), ["0.5", 0.5], [], "distributions.mu", id="probs-string"),
    pytest.param("die", ("spaces", "six_faces", "weights"), ["0.16666666666666666"] + [1 / 6] * 5, [], "spaces.six_faces", id="weight-string"),
    pytest.param("die", _FACE + ("6",), True, [], "variables.face_value.values", id="variable-value-true"),
    pytest.param("die", _FACE + ("6",), "6", [], "variables.face_value.values", id="variable-value-string"),
    pytest.param("fourier2", ("partitions", "fine"), [["1"], [2]], [], "partitions.fine", id="partition-string"),
    pytest.param("fourier2", ("partitions", "fine"), [[True], [2]], [], "partitions.fine", id="partition-true"),
    pytest.param("fourier2", ("partitions", "fine"), [[1], [math.nan, 2]], [], "partitions.fine", id="partition-nan"),
    pytest.param("fourier2", ("partitions", "fine"), [[1], [2, math.inf]], [], "partitions.fine", id="partition-inf"),
    pytest.param(
        "fourier2", ("unitary",), {"kind": "explicit", "entries": [[[True, 0], [0, 0]], [[0, 0], [True, False]]]}, [],
        "unitary.entries", id="unitary-entries-true",
    ),
    pytest.param(
        "interference", ("kernel",), {"alpha": [["0.5", 0.5], [0.5, 0.5]], "alpha_tilde": [[0.5, 0.5], [0.5, 0.5]]}, [],
        "kernel", id="kernel-alpha-string",
    ),
    # a value for an outcome outside the space
    pytest.param("die", _FACE + ("9",), 9, [], "variables.face_value.values", id="variable-value-stray-outcome"),
    # the cross-field rules of the task table
    pytest.param("die", ("tasks", 0, "args"), {}, [], "tasks[0].args", id="entropy-neither-argument"),
    pytest.param("chsh", ("dimension",), 2, [], "tasks[0].args.configuration", id="chsh-dimension-2"),
    pytest.param(
        "interference", ("distributions", "balanced"), {"support": [1, 2, 3], "probs": [0.25, 0.25, 0.5]}, [],
        "tasks[0].args.mu_yc", id="interference-law-of-3-against-2x2",
    ),
    pytest.param("die", ("contexts", "even_cell"), [2, 4, 6, 8, 9], [], "tasks[2].args.event", id="lln-context-outside-space"),
]


def _unknown_field_cases():
    """An ``unknown_field`` key in the top level, each section entry,
    ``unitary``, ``kernel`` and each task entry of every shipped scenario."""
    for name, path in SHIPPED.items():
        doc = json.loads(path.read_text())
        objects = [((), "")]
        objects += [((sec, n), f"{sec}.{n}") for sec in ("distributions", "spaces", "variables") for n in doc.get(sec, {})]
        objects += [((sec,), sec) for sec in ("unitary", "kernel") if sec in doc]
        objects += [(("tasks", i), f"tasks[{i}]") for i in range(len(doc["tasks"]))]
        for keys, where in objects:
            field = f"{where}.unknown_field" if where else "unknown_field"
            yield pytest.param(name, keys + ("unknown_field",), 1, [], field, id=f"{name}-{field}")


BOUNDARY_CASES += list(_unknown_field_cases())


class TestInputBoundary:
    @pytest.mark.parametrize("name, path, value, argv, field", BOUNDARY_CASES)
    def test_malformed_input_exits_2_naming_the_field(self, tmp_path, capsys, name, path, value, argv, field):
        payload = json.loads(SHIPPED[name].read_text())
        if path:
            *parents, key = path
            target = payload
            for step in parents:
                target = target[step]
            target[key] = value
        out = tmp_path / "r.json"
        code = main(["run", str(write_scenario(tmp_path, payload)), "--out", str(out), *argv])
        err = capsys.readouterr().err
        assert code == 2
        assert f"scenario error: {field}:" in err
        assert "Traceback" not in err
        assert not out.exists()


def _without_kernel(doc):
    del doc["kernel"]


def _entropy_of_both(doc):
    doc["distributions"] = {"fair": {"support": [1, 2, 3, 4, 5, 6], "probs": [1 / 6] * 6}}
    doc["tasks"][0]["args"]["distribution"] = "fair"


class TestCrossFieldRules:
    """Each rule a task's check adds past its argument table exits 2 with
    its own message and field."""

    @pytest.mark.parametrize(
        "name, edit, line",
        [
            ("die", _entropy_of_both, "tasks[0].args: exactly one of 'distribution' or 'variable' is required"),
            ("die", lambda doc: doc["tasks"][0].update(args={}),
             "tasks[0].args: exactly one of 'distribution' or 'variable' is required"),
            ("chsh", lambda doc: doc.update(dimension=2),
             "tasks[0].args.configuration: the tsirelson configuration lives on dimension 4, scenario has 2"),
            ("interference", _without_kernel, "tasks[0].args: task requires a 'kernel' section"),
            ("interference", lambda doc: doc["distributions"].update(balanced={"support": [1, 2, 3], "probs": [0.25, 0.25, 0.5]}),
             "tasks[0].args.mu_yc: distribution 'balanced' has 3 values; kernel expects 2"),
            ("die", lambda doc: doc["contexts"].update(even_cell=[2, 4, 6, 8, 9]),
             "tasks[2].args.event: context 'even_cell' references outcomes [9] outside space 'eight_cells'"),
        ],
        ids=["entropy-both", "entropy-neither", "chsh-dimension", "interference-no-kernel", "kernel-shape", "lln-context"],
    )
    def test_rule_exits_2_with_its_message(self, tmp_path, capsys, name, edit, line):
        doc = copy.deepcopy(SHIPPED_DOCS[name])
        edit(doc)
        out = tmp_path / "r.json"
        assert main(["run", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"scenario error: {line}\n"
        assert not out.exists()


#: Replacement values for the fuzz: wrong types, boundary and non-finite
#: numbers, and the first values past the trial and dimension limits.  Where
#: a value is valid it is cheap (a seed, an iteration cap, a bound), so no
#: mutated scenario runs for long.
FUZZ_POOL = [True, None, -1, 0, 1, 2, 1.5, math.nan, math.inf, -math.inf, "x", [], {}, MAX_TRIALS + 1, 1025]
SHIPPED_DOCS = {name: json.loads(path.read_text()) for name, path in SHIPPED.items()}


def _key_paths(doc, prefix=()):
    """The path of every object key in a JSON document, tasks included."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield prefix + (key,)
            yield from _key_paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _key_paths(value, prefix + (i,))


class TestInputBoundaryFuzz:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(data=st.data())
    def test_only_scenario_errors_cross_the_boundary(self, data):
        doc = copy.deepcopy(SHIPPED_DOCS[data.draw(st.sampled_from(sorted(SHIPPED_DOCS)), label="scenario")])
        *parents, key = data.draw(st.sampled_from(list(_key_paths(doc))), label="path")
        target = doc
        for step in parents:
            target = target[step]
        edit = data.draw(st.sampled_from(["replace", "delete", "add"]), label="edit")
        if edit == "delete":
            del target[key]
        else:
            target["unknown_field" if edit == "add" else key] = data.draw(st.sampled_from(FUZZ_POOL), label="value")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.scenario"
            path.write_text(json.dumps(doc))
            try:
                scenario = load_scenario(path)
                validate_scenario(scenario)
            except ScenarioError:
                return
        report, _ = execute_scenario(scenario)
        dumps_report(report)


#: The task failures of ROADMAP item 12: support values closer than the
#: clustering tolerance are one computed eigenvalue, which partitions that
#: keep them apart cannot be matched to.
_ITEM_12 = ("matches several partition cells", "straddles partition cells")
_BOUND_TASKS = ("build_pair", "mu_bound", "partovi_bound", "certify")


def _has_near_pair(support) -> bool:
    """Two support values within twice the clustering tolerance."""
    return float(np.diff(support).min()) <= 2 * EIGENVALUE_TOL * max(1.0, float(np.abs(support).max()))


def _bound_scenario(d, law_x, law_y, cells_x, cells_y, unitary, optimizer=None) -> dict:
    """The four bound tasks on T_X = diag(x) and T_Y = U diag(y) U*."""
    pair = {"dist_x": "x", "dist_y": "y"}
    return {
        "name": "drawn",
        "dimension": d,
        "distributions": {"x": law_x, "y": law_y},
        "unitary": unitary,
        "partitions": {"eps": cells_x, "delta": cells_y},
        "optimizer": optimizer or {"restarts": 2, "max_iters": 60},
        "tasks": [
            {"task": task, "args": {**pair, "eps": "eps", "delta": "delta"} if task in ("partovi_bound", "certify") else pair}
            for task in _BOUND_TASKS
        ],
    }


@st.composite
def _bound_scenarios(draw):
    """Valid bound scenarios: d = 2..5, supports of distinct integers scaled
    by 1e-3..1e6 (in about 30 % of laws two values 1e-12..1e-9 relative
    apart), random coarsenings as partitions, identity, Fourier or Haar
    unitaries, and any valid optimizer section with 1..3 restarts of at most
    60 iterations (tol up to the largest float, seed up to 2**64 - 1)."""
    d = draw(st.integers(2, 5), label="d")
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3, 1e6]), label="scale")

    def law_and_cells():
        support = sorted(scale * k for k in draw(st.lists(st.integers(-50, 50), min_size=d, max_size=d, unique=True)))
        if draw(st.integers(0, 9)) < 3:
            k = draw(st.integers(0, d - 2))
            support[k + 1] = support[k] + draw(st.floats(1e-12, 1e-9)) * max(abs(support[k]), scale)
        weights = draw(st.lists(st.integers(1, 9), min_size=d, max_size=d))
        groups = draw(st.lists(st.integers(0, d - 1), min_size=d, max_size=d))
        cells = [[v for v, g in zip(support, groups) if g == label] for label in sorted(set(groups))]
        return {"support": support, "probs": [w / sum(weights) for w in weights]}, cells

    (law_x, cells_x), (law_y, cells_y) = law_and_cells(), law_and_cells()
    kind = draw(st.sampled_from(["identity", "fourier", "haar"]), label="unitary")
    if kind == "haar":
        u = random_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), d)
        unitary = {"kind": "explicit", "entries": [[[z.real, z.imag] for z in row] for row in u.tolist()]}
    else:
        unitary = {"kind": kind}
    optimizer = {
        "restarts": draw(st.integers(1, 3), label="restarts"),
        "max_iters": draw(st.integers(1, 60), label="max_iters"),
        "tol": draw(st.floats(1e-300, sys.float_info.max), label="tol"),
        "seed": draw(st.integers(0, 2**64 - 1), label="seed"),
    }
    return _bound_scenario(d, law_x, law_y, cells_x, cells_y, unitary, optimizer)


def _failed_tasks(doc) -> list:
    """The failed task entries of a scenario that validates, or [] when it
    exits 2 naming a field."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.scenario"
        path.write_text(json.dumps(doc))
        try:
            scenario = load_scenario(path)
            validate_scenario(scenario)
        except ScenarioError as exc:
            assert exc.field, str(exc)
            return []
    report, ok = execute_scenario(scenario)
    failed = [entry for entry in report["results"] if entry["status"] != "ok"]
    assert ok == (not failed)
    return failed


class TestValidatedScenarioRuns:
    """A scenario that validates runs every task: the tolerances on an
    operator's values scale with its supports (ROADMAP item 16)."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(doc=_bound_scenarios())
    def test_a_valid_bound_scenario_runs_every_task(self, doc):
        near = any(_has_near_pair(law["support"]) for law in doc["distributions"].values())
        for entry in _failed_tasks(doc):
            message = entry["error"]["message"]
            assert near and any(m in message for m in _ITEM_12), f"{entry['task']}: {message}"

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 12")
    def test_near_equal_supports_certify(self):
        law = {"support": [1.0, 1.0 + 1e-10, 2.0], "probs": [0.25, 0.25, 0.5]}
        cells = [[v] for v in law["support"]]
        assert _failed_tasks(_bound_scenario(3, law, law, cells, cells, {"kind": "fourier"})) == []

    def test_fourier3_at_scale_1e6_exits_0(self, tmp_path):
        doc = copy.deepcopy(SHIPPED_DOCS["fourier3"])
        for law in doc["distributions"].values():
            law["support"] = [1e6 * v for v in law["support"]]
        doc["partitions"] = {name: [[1e6 * v for v in cell] for cell in cells] for name, cells in doc["partitions"].items()}
        assert run_scenario(write_scenario(tmp_path, doc), out=tmp_path / "r.json") == 0


class TestRuntimeErrors:
    def test_failed_task_yields_exit_3_and_partial_report(self, tmp_path):
        payload = copy.deepcopy(MINIMAL)
        payload["tasks"] = [
            {"task": "joint_pvm", "args": {"dist_a": "mu", "dist_b": "nu"}},
            {"task": "mu_bound", "args": {"dist_x": "mu", "dist_y": "nu"}},
        ]
        path = write_scenario(tmp_path, payload)
        assert run_scenario(path, out=tmp_path / "r.json") == 3
        report = json.loads((tmp_path / "r.json").read_text())
        first, second = report["results"]
        assert first["status"] == "error"
        assert "NonCommuting" in first["error"]["type"]
        assert second["status"] == "ok"  # later tasks still ran


class TestTaskCatalogue:
    def test_thirteen_tasks(self):
        lines = [l for l in list_tasks().splitlines() if l.strip()]
        assert len(lines) == 13
        names = {l.split(":")[0] for l in lines}
        assert names == {
            "entropy", "mu_bound", "partovi_bound", "certify", "build_pair",
            "overlap_check", "chsh", "gns", "interference", "bayes_delta",
            "lln", "joint_pvm", "dispersion_free",
        }

    def test_describe_certify_names_the_ingredients(self):
        text = describe_task("certify")
        assert "operator" in text
        assert "partition" in text
        assert "optimizer" in text

    def test_describe_prints_status_and_constraint_from_the_table(self):
        text = describe_task("lln")
        assert "  trials (required; integer in [1, 10,000,000]): " in text
        assert "  seed (optional; integer >= 0): " in text
        assert "  event (required; name in 'contexts'): " in text

    def test_describe_gns_states_the_dimension_ceilings(self):
        assert "'full' takes dimension <= 16, 'diagonal' takes dimension <= 64" in describe_task("gns")

    def test_describe_unknown_task_raises(self):
        with pytest.raises(KeyError):
            describe_task("nope")


class TestCommandLine:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "ncprob" in capsys.readouterr().out

    def test_tasks_subcommand(self, capsys):
        assert main(["tasks"]) == 0
        assert "certify" in capsys.readouterr().out

    def test_describe_unknown_exits_2(self, capsys):
        assert main(["describe", "nope"]) == 2
        assert "unknown task" in capsys.readouterr().err

    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_run_shipped_name_to_stdout(self, capsys):
        assert main(["run", "die"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["scenario"] == "die"

    @pytest.mark.parametrize("where", ["missing/r.json", "."], ids=["missing_directory", "a_directory"])
    def test_unwritable_out_exits_2_before_any_task_runs(self, tmp_path, capsys, monkeypatch, where):
        def no_tasks(*args, **kwargs):
            raise AssertionError("tasks ran for a report that cannot be written")

        monkeypatch.setattr(scenario_module, "execute_scenario", no_tasks)
        out = tmp_path / where
        assert main(["run", "die", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: out: ") and repr(str(out)) in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, a device every write to fails")
    def test_report_that_cannot_be_written_exits_2_without_a_traceback(self, capsys):
        assert main(["run", "die", "--out", "/dev/full"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: out: cannot write report to '/dev/full': ")
        assert "Traceback" not in err
        proc = run_cli("run", "die", "--out", "/dev/full")
        assert proc.returncode == 2
        assert proc.stderr == err
        assert "Traceback" not in proc.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, a device every write to fails")
    def test_report_that_cannot_be_written_to_stdout_exits_2(self, capsys, monkeypatch):
        # the die report is short enough to sit in the buffer, so only the flush fails
        full = open("/dev/full", "w")
        monkeypatch.setattr(sys, "stdout", full)
        assert main(["run", "die"]) == 2
        with contextlib.suppress(OSError):  # the report is still in the file's buffer
            full.close()
        err = capsys.readouterr().err
        assert err.startswith("scenario error: stdout: cannot write report: ")
        assert "Traceback" not in err
        with open("/dev/full", "w") as full:
            proc = run_cli("run", "die", stdout=full)
        assert proc.returncode == 2
        assert proc.stderr == err
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr

    def test_scenarios_without_an_optimizer_never_import_scipy_optimize(self, tmp_path):
        # scipy.optimize takes 0.4-0.75 s to import in a fresh process; only certify needs it.
        code = (
            "import sys\n"
            "import ncprob\n"
            "assert 'scipy.optimize' not in sys.modules, 'import ncprob'\n"
            "from ncprob.cli import main\n"
            "for name in ('die', 'chsh', 'interference'):\n"
            "    assert main(['run', name, '--out', sys.argv[1]]) == 0, name\n"
            "    assert 'scipy.optimize' not in sys.modules, name\n"
        )
        src = str(Path(ncprob.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "r.json")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr

    def test_installed_entry_point(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip().startswith("ncprob ")
        # the console script and `python -m ncprob.cli` share the process entry
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        script = tomllib.loads(pyproject.read_text())["project"]["scripts"]["ncprob"]
        assert script == "ncprob.cli:process_main"
        module, _, attr = script.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))


class TestProcessEntry:
    """`process_main` switches the collector off and freezes the heap for
    good, so it runs only in a child process here."""

    def test_fresh_process_report_matches_in_process_main(self, tmp_path):
        proc = run_cli("run", "fourier2", "--out", str(tmp_path / "a.json"))
        assert proc.returncode == 0, proc.stderr
        assert main(["run", "fourier2", "--out", str(tmp_path / "b.json")]) == 0
        a = (tmp_path / "a.json").read_text()
        b = (tmp_path / "b.json").read_text()
        assert a.split('"timing"')[0] == b.split('"timing"')[0]

    def test_exit_codes_pass_through(self, tmp_path):
        bad = write_scenario(tmp_path, {**MINIMAL, "surprise": 1}, name="bad.scenario")
        proc = run_cli("run", str(bad))
        assert proc.returncode == 2
        assert proc.stderr.startswith("scenario error: surprise: ")
        payload = copy.deepcopy(MINIMAL)
        payload["tasks"] = [{"task": "joint_pvm", "args": {"dist_a": "mu", "dist_b": "nu"}}]
        failing = write_scenario(tmp_path, payload, name="failing.scenario")
        proc = run_cli("run", str(failing), "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 3, proc.stderr
        assert json.loads((tmp_path / "r.json").read_text())["results"][0]["status"] == "error"

    def test_a_huge_tol_runs_with_an_empty_stderr(self, tmp_path):
        payload = copy.deepcopy(MINIMAL)
        payload["optimizer"] = {"restarts": 2, "max_iters": 60, "tol": 1e300}
        proc = run_cli("run", str(write_scenario(tmp_path, payload)), "--out", str(tmp_path / "r.json"))
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_in_process_main_leaves_the_collector_alone(self, tmp_path):
        before = gc.isenabled(), gc.get_freeze_count()
        assert main(["run", "pauli", "--out", str(tmp_path / "r.json")]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == before


class TestJointPVMTask:
    def test_marginal_residual_matches_the_projector_formula(self):
        rng = np.random.default_rng(4711)
        for k in range(300):
            a, b = conjugated_diagonal_pair(rng, 2 + k % 7, repeats=bool(k % 2))
            pvm, apvm = joint_pvm(a, b), spectral_pvm(a)
            marginals = {}
            for (cell_a, _), proj in pvm:
                marginals[cell_a.representative] = marginals.get(cell_a.representative, 0) + proj
            want = max(np.linalg.norm(marginals[cell.representative] - proj, 2) for cell, proj in apvm)
            assert abs(scenario_module._marginal_residual(pvm, apvm) - want) <= 1e-13


class TestScenarioObjects:
    def test_resolve_prefers_existing_paths(self, tmp_path):
        payload = write_scenario(tmp_path, MINIMAL)
        assert resolve_scenario_path(str(payload)) == payload
        assert resolve_scenario_path("die") == SHIPPED["die"]
        assert resolve_scenario_path("definitely-not-there") is None

    def test_numeric_looking_string_outcomes_carry_a_variable(self, tmp_path):
        payload = {
            "name": "string-outcomes",
            "dimension": 2,
            "spaces": {"coin": {"outcomes": ["1", "2"], "weights": [0.5, 0.5]}},
            "variables": {"side": {"space": "coin", "values": {"1": 0.0, "2": 1.0}}},
            "tasks": [{"task": "entropy", "args": {"variable": "side"}}],
        }
        assert run_scenario(write_scenario(tmp_path, payload), out=tmp_path / "r.json") == 0
        (item,) = json.loads((tmp_path / "r.json").read_text())["results"]
        assert item["result"]["entropy_nats"] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_execute_returns_report_and_flag(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path, MINIMAL))
        validate_scenario(scenario)
        report, ok = execute_scenario(scenario)
        assert ok
        assert report["scenario"] == "unit-fixture"
        assert [item["task"] for item in report["results"]] == ["mu_bound", "certify"]
