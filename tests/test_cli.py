import importlib.util
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from jsonschema import ValidationError, validate

from covariant_kit import cli, generators
from covariant_kit.cli import main
from covariant_kit.schemas import CHECK_KINDS, REPORT_SCHEMA, SCENARIO_SCHEMA

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

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


def _must_not_run(*args, **kwargs):
    raise AssertionError("the scenario was executed")


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

    def _report_text(self, name: str, out: Path) -> str:
        assert run_cli(["run", str(SCENARIOS / name), "--out", str(out)]) == 0
        return json.dumps(self._strip_volatile(load(out)), sort_keys=False)

    def test_reruns_are_byte_identical_modulo_timing(self, tmp_path, monkeypatch):
        # pairing_invariance is too slow here
        monkeypatch.chdir(tmp_path)
        for name in FAST_PASSING:
            first = self._report_text(name, tmp_path / "r0.json")
            assert self._report_text(name, tmp_path / "r1.json") == first, name

    def test_reports_do_not_depend_on_scenario_order(self, tmp_path, monkeypatch):
        # group and representation constants are cached per process and per
        # family; no cached value may leak from one scenario into the next
        monkeypatch.chdir(tmp_path)
        names = ["verify_local_vector_rotation.json", "verify_bundle_vector.json", "transform_vector_boost.json"]
        forward = {n: self._report_text(n, tmp_path / f"f{i}.json") for i, n in enumerate(names)}
        backward = {n: self._report_text(n, tmp_path / f"b{i}.json") for i, n in enumerate(reversed(names))}
        assert forward == backward

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

    def test_out_naming_a_directory_is_rejected_before_the_run(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_scenario", _must_not_run)
        code = run_cli(["run", str(SCENARIOS / "verify_local_vector_rotation.json"), "--out", str(tmp_path)])
        assert code == 2
        assert f"cannot write report {tmp_path}: [Errno 21] Is a directory" in self._one_line(capsys)

    @pytest.mark.parametrize("below", ["r.json", "sub/r.json"])
    def test_out_below_a_regular_file_is_rejected_before_the_run(self, capsys, tmp_path, monkeypatch, below):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_scenario", _must_not_run)
        (tmp_path / "afile").write_text("")
        out = Path("afile") / below
        code = run_cli(["run", str(SCENARIOS / "verify_local_vector_rotation.json"), "--out", str(out)])
        assert code == 2
        assert f"cannot write report {out}: [Errno 20] Not a directory: 'afile'" in self._one_line(capsys)
        assert (tmp_path / "afile").read_text() == ""

    @pytest.mark.parametrize(
        "grid, named",
        [
            ({"counts": [100000] * 4, "doublings": 50}, "1.607e+80 points"),
            ({"doublings": 10**6}, "more than"),
            ({"counts": [2000] * 4, "doublings": 0}, "1.600e+13 points"),
            ({"counts": [9] * 4, "doublings": 6}, "6.926e+10 points"),
        ],
    )
    def test_oversized_grid_exits_two_without_allocating(self, capsys, tmp_path, monkeypatch, grid, named):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_scenario", _must_not_run)
        scenario = load(SCENARIOS / "pairing_invariance.json")
        scenario["grid"].update(grid)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        start = time.perf_counter()
        code = run_cli(["run", str(path)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        err = self._one_line(capsys)
        assert "budget" in err and named in err

    def test_oversized_sample_exits_two(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_scenario", _must_not_run)
        override = f"grid.sample_count={cli.POINT_BUDGET + 1}"
        code = run_cli(["run", str(SCENARIOS / "verify_local_vector_rotation.json"), "--override", override])
        assert code == 2
        assert f"sample_count asks for {cli.POINT_BUDGET + 1} points" in self._one_line(capsys)

    def test_every_corpus_scenario_is_within_the_budget(self):
        assert 65**4 * 50 < cli.POINT_BUDGET
        for f in SCENARIOS.glob("*.json"):
            try:
                scenario = load(f)
            except json.JSONDecodeError:
                continue  # the deliberately malformed file
            if "check" in scenario:
                assert cli._over_budget(scenario) is None, f.name

    def test_memory_error_exits_two(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

        def exhausted(*args, **kwargs):
            raise MemoryError("cannot allocate the grid")

        monkeypatch.setattr(cli, "run_scenario", exhausted)
        assert run_cli(["run", str(SCENARIOS / "rep_check_scalar.json")]) == 2
        assert "out of memory" in self._one_line(capsys)
        assert not list(tmp_path.iterdir())

    def test_negative_threads_exit_two(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli(["run", str(SCENARIOS / "rep_check_scalar.json"), "--threads", "-5"])
        assert code == 2
        assert "--threads" in self._one_line(capsys)
        assert not list(tmp_path.iterdir())


def _benchmark_schema_invalid() -> list:
    """The four schema-invalid scenario shapes of the benchmark's corpus workload."""
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return [module._schema_invalid(random.Random(i), i) for i in range(4)]


class TestValidate:
    """cli.validate builds its validator once and must raise what jsonschema.validate raises."""

    @pytest.mark.parametrize("index", range(5))
    def test_same_error_as_jsonschema_validate(self, index):
        invalid = [load(SCENARIOS / "bad_schema.json"), *_benchmark_schema_invalid()]
        scenario = invalid[index]
        with pytest.raises(ValidationError) as ours:
            cli.validate(scenario)
        with pytest.raises(ValidationError) as reference:
            validate(scenario, SCENARIO_SCHEMA)
        assert ours.value.message == reference.value.message
        assert list(ours.value.absolute_path) == list(reference.value.absolute_path)

    def test_valid_scenarios_pass(self):
        for name in FAST_PASSING + ["pairing_invariance.json", "failing_tolerance.json"]:
            assert cli.validate(load(SCENARIOS / name)) is None

    def test_layer_names_the_benchmark_tracer_wraps_still_exist(self):
        # perfbench/tracing.py rebinds these by name; a missing one would
        # silently drop its layer from the traced benchmark
        for module, name in [
            (cli, "validate"),
            (cli, "run_scenario"),
            (cli, "main"),
            (generators, "lorentz_exp"),
            (generators, "extract_all"),
        ]:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


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
