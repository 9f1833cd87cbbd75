import json
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import validate

from covariant_kit.cli import main
from covariant_kit.schemas import CHECK_KINDS, REPORT_SCHEMA, SCENARIO_SCHEMA

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# cheap scenarios exercised directly in this module; the full corpus
# (including the heavy pairing run) goes through the acceptance suite
FAST_PASSING = [
    "group_check.json",
    "rep_check_spinor.json",
    "rep_check_scalar.json",
    "transform_vector_boost.json",
    "verify_local_vector_rotation.json",
    "verify_local_phase.json",
    "verify_bundle_vector.json",
    "toy_charge.json",
]


def run_cli(args):
    return main(args)


def load(path) -> dict:
    return json.loads(Path(path).read_text())


class TestCorpus:
    def test_corpus_covers_every_check_kind(self):
        kinds = set()
        for f in SCENARIOS.glob("*.json"):
            try:
                kinds.add(load(f).get("check"))
            except json.JSONDecodeError:
                continue  # the deliberately malformed file
        assert set(CHECK_KINDS) <= kinds

    def test_corpus_is_large_enough(self):
        assert len(list(SCENARIOS.glob("*.json"))) >= 8

    def test_passing_scenarios_validate_against_scenario_schema(self):
        for name in FAST_PASSING + ["pairing_invariance.json", "failing_tolerance.json"]:
            validate(load(SCENARIOS / name), SCENARIO_SCHEMA)

    @pytest.mark.parametrize("name", FAST_PASSING)
    def test_scenario_passes_and_report_validates(self, name, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "report.json"
        code = run_cli(["run", str(SCENARIOS / name), "--out", str(out)])
        assert code == 0
        report = load(out)
        validate(report, REPORT_SCHEMA)
        assert report["pass"] is True
        assert report["schema_version"] == "1"

    def test_failing_tolerance_exits_one_and_marks_check(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "report.json"
        code = run_cli(["run", str(SCENARIOS / "failing_tolerance.json"), "--out", str(out)])
        assert code == 1
        report = load(out)
        validate(report, REPORT_SCHEMA)
        assert report["pass"] is False
        assert any(not r["passed"] for r in report["results"])

    def test_malformed_json_exits_two_with_line_diagnostic(self, capsys):
        code = run_cli(["run", str(SCENARIOS / "malformed.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_schema_violation_exits_two_with_field_diagnostic(self, capsys):
        code = run_cli(["run", str(SCENARIOS / "bad_schema.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "check" in err

    def test_missing_file_exits_two(self, capsys):
        code = run_cli(["run", "no_such_scenario.json"])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err


class TestReportContract:
    def _strip_volatile(self, report: dict) -> dict:
        out = dict(report)
        out.pop("timestamp", None)
        out.pop("timings", None)
        return out

    def test_reruns_are_byte_identical_modulo_timing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        outs = []
        for i in range(2):
            out = tmp_path / f"r{i}.json"
            assert run_cli(["run", str(SCENARIOS / "group_check.json"), "--out", str(out)]) == 0
            outs.append(out)
        a, b = (self._strip_volatile(load(o)) for o in outs)
        assert json.dumps(a, sort_keys=False) == json.dumps(b, sort_keys=False)

    def test_numbers_are_decimal_text(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "r.json"
        run_cli(["run", str(SCENARIOS / "toy_charge.json"), "--out", str(out)])
        report = load(out)
        for res in report["results"]:
            float(res["sup_residual"])
            float(res["tolerance"])
        float(report["timings"]["total_seconds"])

    def test_verify_local_report_contains_coefficient_table(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "r.json"
        code = run_cli(["run", str(SCENARIOS / "verify_local_vector_rotation.json"), "--out", str(out)])
        assert code == 0
        table = load(out)["tables"]["generator_matrices"]
        entry = float(table["S_01"][0][1][0])  # row 0, column 1, real part
        assert abs(entry - 1.0) <= 1e-8
        conv = load(out)["results"][0]["detail"]["convergence"]
        ratios = [float(v) for row in conv["ratios"] for v in row]
        assert all(3.5 <= r <= 4.5 for r in ratios)

    def test_threads_flag_echoed(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "r.json"
        run_cli(["run", str(SCENARIOS / "rep_check_scalar.json"), "--out", str(out), "--threads", "4"])
        assert load(out)["threads"] == 4

    def test_csv_dump_emitted_when_requested(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "r.json"
        assert run_cli(["run", str(SCENARIOS / "transform_vector_boost.json"), "--out", str(out)]) == 0
        csv = tmp_path / "transform_vector_boost_field.csv"
        assert csv.exists()
        header = csv.read_text().splitlines()[0]
        assert header == "x0,x1,x2,x3,re0,im0,re1,im1,re2,im2,re3,im3"


class TestOverrides:
    def test_override_changes_scenario_and_is_recorded(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "r.json"
        code = run_cli(
            [
                "run",
                str(SCENARIOS / "verify_local_phase.json"),
                "--out",
                str(out),
                "--override",
                "fd.step=5e-05",
            ]
        )
        assert code == 0
        report = load(out)
        assert report["overrides"] == ["fd.step=5e-05"]
        assert report["scenario"]["fd"]["step"] == 5e-05

    def test_override_can_force_failure(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "r.json"
        code = run_cli(
            [
                "run",
                str(SCENARIOS / "rep_check_spinor.json"),
                "--out",
                str(out),
                "--override",
                "tolerances.homomorphism=1e-30",
            ]
        )
        assert code == 1

    def test_bad_override_exits_two(self, capsys):
        code = run_cli(["run", str(SCENARIOS / "rep_check_scalar.json"), "--override", "nonsense"])
        assert code == 2
        assert "override" in capsys.readouterr().err

    def test_override_rejected_by_schema(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli(
            ["run", str(SCENARIOS / "rep_check_scalar.json"), "--override", "tolerances.identity=-1"]
        )
        assert code == 2


class TestExitContractHoles:
    """Inputs that once escaped the 0/1/2 contract with a traceback or a false pass."""

    def _one_line(self, capsys) -> str:
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        return err

    def test_out_naming_a_directory_exits_two(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli(["run", str(SCENARIOS / "rep_check_scalar.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "cannot write report" in self._one_line(capsys)

    def test_field_csv_in_missing_directory_exits_two(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        scenario = load(SCENARIOS / "transform_vector_boost.json")
        scenario["output"]["field_csv"] = str(tmp_path / "missing" / "field.csv")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code = run_cli(["run", str(path), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "missing" in self._one_line(capsys)
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN", "1e999"])
    def test_non_finite_override_exits_two(self, capsys, tmp_path, monkeypatch, value):
        # tolerance inf would turn the deliberately failing check into a pass
        monkeypatch.chdir(tmp_path)
        code = run_cli(
            ["run", str(SCENARIOS / "failing_tolerance.json"), "--override", f"tolerances.local={value}"]
        )
        assert code == 2
        assert "bad override" in self._one_line(capsys)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["Infinity", "NaN", "1e999"])
    def test_non_finite_number_in_scenario_exits_two(self, capsys, tmp_path, monkeypatch, value):
        monkeypatch.chdir(tmp_path)
        text = (SCENARIOS / "failing_tolerance.json").read_text()
        scenario = load(SCENARIOS / "failing_tolerance.json")
        old = json.dumps(scenario["tolerances"]["local"])
        assert old in text
        path = tmp_path / "scenario.json"
        path.write_text(text.replace(old, value, 1))
        code = run_cli(["run", str(path)])
        assert code == 2
        assert "parse error" in self._one_line(capsys)

    def test_negative_threads_exit_two(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli(["run", str(SCENARIOS / "rep_check_scalar.json"), "--threads", "-5"])
        assert code == 2
        assert "--threads" in self._one_line(capsys)
        assert not list(tmp_path.iterdir())


class TestSchemaCommand:
    def test_prints_both_schemas(self, capsys):
        assert run_cli(["schema"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["scenario"] == SCENARIO_SCHEMA
        assert printed["report"] == REPORT_SCHEMA

    def test_module_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "covariant_kit.cli", "schema"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        json.loads(proc.stdout)

    def test_console_script_help(self):
        proc = subprocess.run(["covariant-kit", "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "run" in proc.stdout and "schema" in proc.stdout
