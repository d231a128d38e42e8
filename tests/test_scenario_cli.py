"""Scenario files, report format, exit codes, and the command-line interface."""

import copy
import json
import math
import subprocess
import sys
import time

import pytest

from ncprob.cli import main
from ncprob.scenario import (
    RESTARTS_ENV_VAR,
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

    def test_seed_override_recorded(self, tmp_path):
        path = write_scenario(tmp_path, MINIMAL)
        run_scenario(path, out=tmp_path / "a.json", seed=4242)
        report = json.loads((tmp_path / "a.json").read_text())
        assert report["seed"] == 4242
        cert = report["results"][1]["result"]
        assert cert["optimizer_evidence"]["seed"] == 4242

    def test_restart_override_environment_variable(self, tmp_path, monkeypatch):
        path = write_scenario(tmp_path, MINIMAL)
        monkeypatch.setenv(RESTARTS_ENV_VAR, "3")
        run_scenario(path, out=tmp_path / "r.json")
        report = json.loads((tmp_path / "r.json").read_text())
        cert = report["results"][1]["result"]
        assert cert["optimizer_evidence"]["restarts"] == 3

    def test_invalid_restart_override_is_a_validation_error(self, tmp_path, monkeypatch, capsys):
        path = write_scenario(tmp_path, MINIMAL)
        monkeypatch.setenv(RESTARTS_ENV_VAR, "many")
        assert run_scenario(path, out=tmp_path / "r.json") == 2
        assert not (tmp_path / "r.json").exists()
        assert RESTARTS_ENV_VAR in capsys.readouterr().err


class TestValidationErrors:
    def test_missing_file(self, capsys):
        assert main(["run", "no-such-file.scenario"]) == 2
        assert "no such file or shipped scenario" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.scenario"
        p.write_text("{not json")
        assert run_scenario(p) == 2
        assert "scenario error" in capsys.readouterr().err

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

    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ncprob.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().startswith("ncprob ")


class TestScenarioObjects:
    def test_resolve_prefers_existing_paths(self, tmp_path):
        payload = write_scenario(tmp_path, MINIMAL)
        assert resolve_scenario_path(str(payload)) == payload
        assert resolve_scenario_path("die") == SHIPPED["die"]
        assert resolve_scenario_path("definitely-not-there") is None

    def test_execute_returns_report_and_flag(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path, MINIMAL))
        validate_scenario(scenario)
        report, ok = execute_scenario(scenario)
        assert ok
        assert report["scenario"] == "unit-fixture"
        assert [item["task"] for item in report["results"]] == ["mu_bound", "certify"]
