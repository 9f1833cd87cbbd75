import ast
import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft7Validator, ValidationError, validate
from jsonschema.exceptions import best_match

from covariant_kit import cli, fields, generators, schemas
from covariant_kit.cli import main
from covariant_kit.heisenberg import RelationReport
from covariant_kit.schemas import CHECK_KINDS, REPORT_SCHEMA, SCENARIO_SCHEMA, TOLERANCE_NAMES, number_text

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

# cheap scenarios exercised directly in this module; the full corpus
# (including the heavy pairing run) goes through the acceptance suite
FAST_PASSING = [
    "group_check.json",
    "rep_check_spinor.json",
    "rep_check_scalar.json",
    "transform_vector_boost.json",
    "transform_spinor_rotation.json",
    "verify_local_vector_rotation.json",
    "verify_local_phase.json",
    "verify_bundle_vector.json",
    "toy_charge.json",
]


def run_cli(args):
    return main(args)


def _src_env() -> dict:
    """The environment of a child interpreter that imports the package from this checkout."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}


def _must_not_run(*args, **kwargs):
    raise AssertionError("the scenario was executed")


def load(path) -> dict:
    return json.loads(Path(path).read_text())


@pytest.mark.filterwarnings("error")
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
        for name in FAST_PASSING + ["pairing_invariance.json", "pairing_vector_rotation.json", "failing_tolerance.json"]:
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

    def test_vector_pairing_sees_the_transposed_matrix(self, tmp_path, monkeypatch):
        # The active law applies D^T; with D in its place the invariance row fails.
        monkeypatch.chdir(tmp_path)
        argv = ["run", str(SCENARIOS / "pairing_vector_rotation.json"), "--out", "r.json"]
        assert run_cli(argv) == 0

        def active_with_d(field, rep, g):
            return fields._composed_field(field, fields._spacetime_matrix(rep, g, field), g, g.jacobian)

        monkeypatch.setattr(cli, "active_transform", active_with_d)
        assert run_cli(argv) == 1
        rows = {r["name"]: r for r in load(tmp_path / "r.json")["results"]}
        assert rows["pairing_convergence"]["passed"] is True
        assert rows["pairing_invariance"]["passed"] is False
        assert float(rows["pairing_invariance"]["sup_residual"]) > 0.1

    @pytest.mark.parametrize("omega", ["[0.2,0,0,2.0,0,0]", "[0,0,0,1.5707963267948966,0,0]"], ids=["past", "at"])
    def test_spinor_transform_past_and_at_a_quarter_turn(self, omega, tmp_path, monkeypatch):
        # passive o passive by g is compared with passive by g o g; the product's spinor
        # matrix must come from 2 omega, not from the principal log of its Lorentz matrix,
        # which picks the other sheet of the double cover past a quarter turn (a rotation
        # by pi at a quarter turn, where the log is undefined)
        monkeypatch.chdir(tmp_path)
        overrides = ["--override", "rep.variant=spinor", "--override", f"group.omega={omega}"]
        argv = ["run", str(SCENARIOS / "transform_vector_boost.json"), *overrides, "--out", "r.json"]
        assert run_cli(argv) == 0
        rows = {r["name"]: r for r in load(tmp_path / "r.json")["results"]}
        assert float(rows["passive_composition"]["sup_residual"]) <= 1e-14

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

    def test_overrides_do_not_leak_into_the_next_call(self, tmp_path, monkeypatch):
        # The parser is built once per process; its append default must stay empty.
        monkeypatch.chdir(tmp_path)
        scenario = str(SCENARIOS / "rep_check_scalar.json")
        assert run_cli(["run", scenario, "--out", "first.json", "--override", "tolerances.identity=1e-9"]) == 0
        assert run_cli(["run", scenario, "--out", "second.json"]) == 0
        assert load("first.json")["overrides"] == ["tolerances.identity=1e-9"]
        assert load("second.json")["overrides"] == []
        assert cli._parser() is cli._parser()


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

    @pytest.mark.parametrize(
        "name, override",
        [
            ("transform_vector_boost.json", "field.width=1e-300"),  # was ZeroDivisionError
            ("transform_vector_boost.json", "field.width=1e300"),  # was OverflowError
            ("verify_local_vector_rotation.json", "field.width=1e-200"),
            ("verify_bundle_vector.json", "field.width=1e300"),
            ("pairing_invariance.json", "field.phi.width=1e200"),
        ],
    )
    def test_width_whose_square_leaves_the_double_range_exits_two(self, capsys, tmp_path, monkeypatch, name, override):
        monkeypatch.chdir(tmp_path)
        code = run_cli(["run", str(SCENARIOS / name), "--override", override, "--override", "output={}"])
        assert code == 2
        assert "could not be executed: wave packet width" in self._one_line(capsys)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("box", ["9e307", "1.7e308"])
    def test_sample_box_whose_width_overflows_exits_two(self, capsys, tmp_path, monkeypatch, box):
        # numpy's uniform raised OverflowError once high - low left the double range
        monkeypatch.chdir(tmp_path)
        code = run_cli(["run", str(SCENARIOS / "transform_vector_boost.json"), "--override", f"grid.sample_box={box}", "--override", "output={}"])
        assert code == 2
        assert "could not be executed: sample box" in self._one_line(capsys)

    @pytest.mark.parametrize(
        "name, grid",
        [
            ("transform_vector_boost.json", {"counts": [3] * 4}),  # was PASS, exit 0, nan in the CSV's x0
            ("pairing_invariance.json", {"counts": [3] * 4, "doublings": 1}),  # was exit 1 on nan values
        ],
    )
    def test_grid_whose_span_overflows_exits_two(self, capsys, tmp_path, monkeypatch, name, grid):
        monkeypatch.chdir(tmp_path)
        scenario = load(SCENARIOS / name)
        scenario["grid"] = {"bounds": [[-1e308, 1e308], [-1, 1], [-1, 1], [-1, 1]], **grid}
        scenario["output"] = {"dump_fields": True, "field_csv": "field.csv"}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code = run_cli(["run", str(path), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "grid axis 0 spans" in self._one_line(capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]

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
            if scenario.get("check") in CHECK_KINDS:
                cli.validate(scenario)
                assert cli._over_budget(scenario) is None, f.name

    def _cap(self, capsys, tmp_path, monkeypatch, name, key, value, named):
        """``key=value`` on scenario ``name`` reaches the run, or exits 2 with ``named`` before anything is built."""

        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_scenario", reached)
        argv = ["run", str(SCENARIOS / name), "--override", f"{key}={value}"]
        if named is None:
            with pytest.raises(Reached):
                run_cli(argv)
            return
        assert run_cli(argv) == 2
        assert named in self._one_line(capsys)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("over", [0, 1])
    def test_toy_dimension_cap(self, capsys, tmp_path, monkeypatch, over):
        # the cap itself reaches the run; one more exits 2 before anything is built
        dim = cli.TOY_DIM_BUDGET + over
        named = f"budget of dimension {cli.TOY_DIM_BUDGET}: group.dim is {dim}" if over else None
        self._cap(capsys, tmp_path, monkeypatch, "toy_charge.json", "group.dim", dim, named)

    @pytest.mark.parametrize("over", [0, 1])
    def test_group_check_draws_cap(self, capsys, tmp_path, monkeypatch, over):
        # all draws are made at once: 1e6 of them took 7 s and 0.9 GB, and nothing stopped 1e7
        draws = cli.DRAWS_BUDGET + over
        named = f"budget of {cli.DRAWS_BUDGET} draws: group.draws is {draws}" if over else None
        self._cap(capsys, tmp_path, monkeypatch, "group_check.json", "group.draws", draws, named)

    def test_benchmark_draws_are_within_the_cap(self):
        module = _benchmark_workloads()
        draws = []
        for name in module.WORKLOADS:
            work = module.generate(name, 0)
            for entry in work.entries + work.probes:
                try:
                    scenario = json.loads(entry.text)
                except json.JSONDecodeError:
                    continue  # the deliberately malformed inputs
                if scenario.get("check") == "group-check":
                    cli.validate(scenario)
                    draws.append(scenario["group"]["draws"])
                    assert cli._over_budget(scenario) is None, entry.name
        assert draws and max(draws) <= 400

    @pytest.mark.parametrize(
        "scenario, key, value",
        [
            ({"check": "toy"}, "group.dim", 16),
            ({"check": "group-check"}, "group.draws", 200),
            ({"check": "group-check"}, "group.seed", 1),
            ({"check": "verify-local"}, "grid.sample_count", 50),
            ({"check": "verify-local"}, "grid.sample_seed", 1),
            ({"check": "pairing", "field": {"phi": {}, "test": {}}, "grid": {"counts": [5, 5, 5, 5]}}, "grid.doublings", 1),
            ({"check": "verify-local", "rep": {"variant": "vector"}}, "field.components", 4),
            ({"check": "verify-local"}, "fd.order", 4),
        ],
    )
    def test_integral_float_runs_as_its_integer(self, tmp_path, monkeypatch, scenario, key, value):
        # draft 7 counts 16.0 as an integer and 4.0 as the enum member 4, which once exited 2
        # with "'float' object cannot be interpreted as an integer" or like messages
        monkeypatch.chdir(tmp_path)
        section, name = key.split(".")
        runs = []
        for spelled in (value, float(value)):
            Path(f"{spelled}.json").write_text(json.dumps({**scenario, section: {**scenario.get(section, {}), name: spelled}}))
            code = run_cli(["run", f"{spelled}.json", "--out", f"{spelled}.report.json"])
            report = load(f"{spelled}.report.json")
            del report["timestamp"], report["timings"]
            runs.append((code, json.dumps(report, indent=2)))
        assert runs[0][0] in (0, 1)
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("order, shown", [("3.0", "3.0"), ("4.5", "4.5"), ("true", "True"), ('"4"', "'4'")])
    def test_fd_order_outside_the_enum_keeps_its_message(self, capsys, tmp_path, monkeypatch, order, shown):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["run", str(SCENARIOS / "verify_local_vector_rotation.json"), "--override", f"fd.order={order}"]) == 2
        assert f"fd.order: {shown} is not one of [2, 4]" in self._one_line(capsys)

    @pytest.mark.parametrize(
        "name, override, named",
        [
            ("verify_local_vector_rotation.json", "grid.sample_count=1e300", f"grid.sample_count asks for {int(1e300)} points"),
            ("verify_local_vector_rotation.json", "field.components=1e12", "field has 1000000000000 components but the"),
            ("pairing_invariance.json", "field.test.components=1e12", "pairing fields and representation must share"),
        ],
        ids=["sample-count-1e300", "components-1e12", "pairing-components-1e12"],
    )
    def test_huge_integral_float_exits_two(self, capsys, tmp_path, monkeypatch, name, override, named):
        # a component count is checked before the packet is built; a count of 10**9 once filled the memory
        monkeypatch.chdir(tmp_path)
        assert run_cli(["run", str(SCENARIOS / name), "--override", override]) == 2
        assert named in self._one_line(capsys)
        assert not list(tmp_path.iterdir())

    def test_benchmark_toy_dimensions_are_within_the_cap(self):
        module = _benchmark_workloads()
        dims = []
        for name in module.WORKLOADS:
            work = module.generate(name, 0)
            for entry in work.entries + work.probes:
                try:
                    scenario = json.loads(entry.text)
                except json.JSONDecodeError:
                    continue  # the deliberately malformed inputs
                if scenario.get("check") == "toy" and scenario["group"]["dim"] >= 2:
                    dims.append(scenario["group"]["dim"])
                    cli.validate(scenario)
                    assert cli._over_budget(scenario) is None, entry.name
        assert dims and max(dims) <= 64

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

    def test_pairing_without_a_doubling_exits_two(self, capsys, tmp_path, monkeypatch):
        # one level has no relative difference, which once read as a converged 0
        monkeypatch.chdir(tmp_path)
        args = [
            "--override", "grid.counts=[5,5,5,5]",
            "--override", "tolerances.pairing_convergence=1e-30",
            "--override", "tolerances.pairing=1",
        ]
        scenario = str(SCENARIOS / "pairing_invariance.json")
        assert run_cli(["run", scenario, "--out", "one.json", *args, "--override", "grid.doublings=1"]) == 1
        capsys.readouterr()
        assert run_cli(["run", scenario, "--out", "zero.json", *args, "--override", "grid.doublings=0"]) == 2
        assert "grid.doublings >= 1" in self._one_line(capsys)
        assert not (tmp_path / "zero.json").exists()

    def test_pairing_of_two_zeros_fails(self, tmp_path, monkeypatch):
        # at width 1e-150 every pairing value is 0, and 0/0 once read as a converged 0
        monkeypatch.chdir(tmp_path)
        args = ["--override", "field.phi.width=1e-150", "--override", "grid.counts=[5,5,5,5]"]
        scenario = str(SCENARIOS / "pairing_invariance.json")
        assert run_cli(["run", scenario, "--out", "r.json", *args, "--override", "grid.doublings=1"]) == 1
        rows = load(tmp_path / "r.json")["results"]
        assert [(r["name"], r["passed"], r["sup_residual"]) for r in rows] == [
            ("pairing_convergence", False, "nan"),
            ("pairing_invariance", False, "nan"),
        ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dim", [3, 16])
    def test_overflowing_charge_fails_without_a_warning(self, capsys, tmp_path, monkeypatch, dim):
        # q * 2 overflows the generator's diagonal: every row reads nan and fails, and nothing reaches stderr.
        # A dense inverse of U(b) once made dims from 6 up exit 2 with "Singular matrix".
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "toy.json"
        path.write_text(json.dumps({"check": "toy", "group": {"dim": dim, "q": 1e308}}))
        assert run_cli(["run", str(path), "--out", "r.json"]) == 1
        assert capsys.readouterr().err == ""
        rows = load(tmp_path / "r.json")["results"]
        assert [(r["passed"], r["sup_residual"]) for r in rows] == [(False, "nan")] * 2

    def test_misspelled_tolerance_name_exits_two(self, capsys, tmp_path, monkeypatch):
        # an unknown name was ignored, so the failing check passed at its default tolerance
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_scenario", _must_not_run)
        override = 'tolerances={"locall": 1e-20}'
        code = run_cli(["run", str(SCENARIOS / "failing_tolerance.json"), "--override", override])
        assert code == 2
        err = self._one_line(capsys)
        assert err.startswith("scenario field tolerances: 'locall' is not one of")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "name, overrides, named",
        [
            ("verify_bundle_vector.json", ["group.family=poincare"], "bundle relations need an identity point map"),
            ("verify_bundle_vector.json", ["group.family=internal"], "internal_family needs a phase or custom"),
            ("verify_local_phase.json", ["group.family=poincare"], "poincare_family needs a scalar, vector"),
            ("verify_local_phase.json", ["group.family=frame"], "poincare_frame_family needs a scalar, vector"),
            ("failing_tolerance.json", ["group.family=internal"], "internal_family needs a phase or custom"),
        ],
    )
    def test_family_the_check_or_representation_cannot_take_exits_two(
        self, capsys, tmp_path, monkeypatch, name, overrides, named
    ):
        # each of these once ran another family than the one it named, and passed
        monkeypatch.chdir(tmp_path)
        argv = ["run", str(SCENARIOS / name), "--out", "r.json"]
        for assignment in overrides:
            argv += ["--override", assignment]
        assert run_cli(argv) == 2
        assert f"scenario could not be executed: {named}" in self._one_line(capsys)
        assert not list(tmp_path.iterdir())

    def test_local_relation_on_the_frame_family_passes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["run", str(SCENARIOS / "verify_local_vector_rotation.json"), "--out", "r.json"]
        assert run_cli([*argv, "--override", "group.family=frame"]) == 0
        assert load(tmp_path / "r.json")["pass"] is True

    @pytest.mark.parametrize(
        "name, family",
        [
            ("verify_local_vector_rotation.json", "poincare"),
            ("verify_local_phase.json", "internal"),
            ("verify_bundle_vector.json", "frame"),
        ],
    )
    def test_default_family(self, tmp_path, monkeypatch, name, family):
        # the same results and tables with group.family absent as with it named
        monkeypatch.chdir(tmp_path)
        scenario = load(SCENARIOS / name)
        assert scenario["group"] == {"family": family}
        del scenario["group"]
        Path("absent.json").write_text(json.dumps(scenario))
        assert run_cli(["run", "absent.json", "--out", "absent.report.json"]) == 0
        assert run_cli(["run", str(SCENARIOS / name), "--out", "named.report.json"]) == 0
        absent, named = load("absent.report.json"), load("named.report.json")
        assert absent["results"] == named["results"] and absent["tables"] == named["tables"]

    @pytest.mark.parametrize(
        "name, field, named",
        [
            (
                "pairing_invariance.json",
                {"center": [0.0, 0.0, 0.0, 0.0], "width": 1.0, "components": 1},
                "the pairing check needs field.phi and field.test",
            ),
            (
                "transform_vector_boost.json",
                {"phi": {"components": 4}, "test": {"components": 4}},
                "this check expects a single field spec",
            ),
            (
                "verify_local_vector_rotation.json",
                {"center": [0.1, 0.0, 0.3, -0.2], "width": 1.2, "components": [1.0]},
                "field has 1 components but the representation needs 4",
            ),
            (
                "pairing_invariance.json",
                {"phi": {"components": 1}, "test": {"components": 2}},
                "pairing fields and representation must share one component count",
            ),
        ],
    )
    def test_field_spec_the_check_cannot_take_exits_two(self, capsys, tmp_path, monkeypatch, name, field, named):
        monkeypatch.chdir(tmp_path)
        scenario = load(SCENARIOS / name)
        scenario["field"] = field
        Path("scenario.json").write_text(json.dumps(scenario))
        assert run_cli(["run", "scenario.json", "--out", "r.json"]) == 2
        assert f"scenario could not be executed: {named}" in self._one_line(capsys)
        assert not Path("r.json").exists()

    @pytest.mark.parametrize(
        "text",
        ['{"check": "toy", "group": ' + "[" * 5000 + "]" * 5000 + "}", "[" * 100_000 + "]" * 100_000],
        ids=["5000-deep-group", "100000-deep-array"],
    )
    def test_json_nested_too_deeply_to_parse_exits_two(self, capsys, tmp_path, monkeypatch, text):
        # json.loads once raised RecursionError: a traceback and exit 1
        monkeypatch.chdir(tmp_path)
        Path("scenario.json").write_text(text)
        assert run_cli(["run", "scenario.json"]) == 2
        assert self._one_line(capsys) == "scenario parse error in scenario.json: JSON is nested too deeply to parse\n"
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    def test_override_nested_too_deeply_to_parse_exits_two(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        override = "group.omega=" + "[" * 5000 + "]" * 5000
        assert run_cli(["run", str(SCENARIOS / "group_check.json"), "--override", override]) == 2
        assert self._one_line(capsys) == "bad override: JSON is nested too deeply to parse\n"
        assert not list(tmp_path.iterdir())

    def test_value_nested_just_inside_the_parse_limit_exits_two(self, tmp_path):
        # 985 levels parse in a fresh CLI process on Python 3.11, and jsonschema
        # once took the repr of the value for its message: a RecursionError and
        # exit 1.  An interpreter whose stack allows fewer levels exits 2 at parsing.
        (tmp_path / "scenario.json").write_text(
            '{"check": "group-check", "group": {"omega": ' + "[" * 985 + "]" * 985 + "}}"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "covariant_kit.cli", "run", "scenario.json"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=_src_env(),
        )
        assert proc.returncode == 2
        assert proc.stderr in (
            "scenario field group.omega: [[[[[[[[[...]]]]]]]]] is too short\n",
            "scenario parse error in scenario.json: JSON is nested too deeply to parse\n",
        )

    def test_override_through_a_string_exits_two(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli(["run", str(SCENARIOS / "rep_check_scalar.json"), "--override", "check.x=1"])
        assert code == 2
        err = self._one_line(capsys)
        assert err.startswith("bad override: override path 'check.x' crosses a non-object value")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("content", [[1, 2], "x"])
    @pytest.mark.parametrize("override", ["check=toy", "a.b=1"])
    def test_override_on_a_scenario_that_is_not_an_object_exits_two(self, capsys, tmp_path, monkeypatch, content, override):
        # a TypeError or AttributeError once escaped _apply_override with a traceback and exit 1
        monkeypatch.chdir(tmp_path)
        Path("scenario.json").write_text(json.dumps(content))
        assert run_cli(["run", "scenario.json", "--override", override]) == 2
        key = override.split("=")[0]
        assert self._one_line(capsys) == f"bad override: override path {key!r} crosses a non-object value\n"
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    @pytest.mark.parametrize("how", ["scenario", "--out"])
    def test_report_path_with_a_nul_byte_exits_two_before_the_run(self, capsys, tmp_path, monkeypatch, how):
        # the write once raised "ValueError: embedded null byte" after the whole run: a traceback and exit 1
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_scenario", _must_not_run)
        scenario = {"check": "rep-check", "output": {"report": "a\u0000b.json"}}
        Path("scenario.json").write_text(json.dumps(scenario))
        argv = ["run", "scenario.json"] + (["--out", "c\0d.json"] if how == "--out" else [])
        assert run_cli(argv) == 2
        named = "c\0d.json" if how == "--out" else "a\0b.json"
        assert self._one_line(capsys) == f"cannot write report {named}: embedded null byte\n"
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    @pytest.mark.parametrize("name, content", [("a\0b.json", None), ("latin1.json", b'{"check": "\xe9"}')])
    def test_scenario_file_that_cannot_be_read_as_text_exits_two(self, capsys, tmp_path, monkeypatch, name, content):
        # a NUL in the path or bytes that are not UTF-8 once escaped read_text with a traceback and exit 1
        monkeypatch.chdir(tmp_path)
        if content is not None:
            Path(name).write_bytes(content)
        assert run_cli(["run", name]) == 2
        assert self._one_line(capsys).startswith(f"cannot read scenario file {name}: ")


class TestBudgetDefaults:
    """``_over_budget`` judges the sizes a run allocates when the scenario omits them."""

    SPELLED = {"group": {"dim": 16}, "grid": {"sample_count": 200, "doublings": 3, "counts": [9] * 4}}

    def _omitted_and_spelled(self, scenario):
        omitted = json.loads(json.dumps(scenario))
        spelled = json.loads(json.dumps(scenario))
        for section, defaults in self.SPELLED.items():
            for key, value in defaults.items():
                omitted.get(section, {}).pop(key, None)
                spelled.setdefault(section, {})[key] = value
        return omitted, spelled

    def _resolved(self, *scenarios):
        for scenario in scenarios:
            cli.validate(scenario)
        return scenarios

    def test_builders_allocate_the_spelled_defaults(self):
        (scenario,) = self._resolved({"check": "verify-local"})
        assert cli._build_points(scenario).shape == (self.SPELLED["grid"]["sample_count"], 4)
        assert list(cli._build_grid(scenario).counts) == self.SPELLED["grid"]["counts"]

    def test_corpus_verdicts_agree(self):
        for f in SCENARIOS.glob("*.json"):
            try:
                scenario = load(f)
            except json.JSONDecodeError:
                continue  # the deliberately malformed file
            if scenario.get("check") in CHECK_KINDS:
                omitted, spelled = self._resolved(*self._omitted_and_spelled(scenario))
                assert cli._over_budget(omitted) == cli._over_budget(spelled), f.name

    @pytest.mark.parametrize("doublings, verdict", [(4, None), (5, "the finest grid has 4.362e+9 points")])
    def test_pairing_doublings_at_the_budget(self, doublings, verdict):
        omitted, spelled = self._omitted_and_spelled(load(SCENARIOS / "pairing_invariance.json"))
        omitted["grid"]["doublings"] = spelled["grid"]["doublings"] = doublings
        omitted, spelled = self._resolved(omitted, spelled)
        got = cli._over_budget(omitted)
        assert got == cli._over_budget(spelled)
        assert got is None if verdict is None else got.endswith(verdict)

    def test_pairing_with_default_counts_exits_two(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_scenario", _must_not_run)
        omitted, _ = self._omitted_and_spelled(load(SCENARIOS / "pairing_invariance.json"))
        Path("scenario.json").write_text(json.dumps(omitted))
        assert run_cli(["run", "scenario.json", "--override", "grid.doublings=5"]) == 2
        assert "4.362e+9 points" in capsys.readouterr().err


def _defaults(schema: dict, path: tuple = ()) -> list:
    """(path, subschema) of each subschema of ``schema`` with a ``default``; a ``oneOf`` branch is its index."""
    found = [(path, schema)] if "default" in schema else []
    for key, sub in schema.get("properties", {}).items():
        found += _defaults(sub, (*path, key))
    for index, sub in enumerate(schema.get("oneOf", ())):
        found += _defaults(sub, (*path, index))
    return found


def _subschema(path: tuple) -> dict:
    schema = SCENARIO_SCHEMA
    for part in path:
        schema = schema["oneOf"][part] if isinstance(part, int) else schema["properties"][part]
    return schema


def _resolvable() -> list:
    """The shipped scenarios that validate."""
    names = []
    for f in sorted(SCENARIOS.glob("*.json")):
        try:
            cli.validate(load(f))
        except (json.JSONDecodeError, schemas.ValidationError):
            continue  # the deliberately malformed and schema-invalid files
        names.append(f.name)
    return names


class TestResolution:
    """``validate`` resolves a valid scenario: it fills each schema default, and the runners read that."""

    DEFAULTED = {
        ("rep",), ("rep", "q"), ("rep", "e"),
        ("field",), ("field", 0, "center"), ("field", 0, "width"),
        ("field", 1, "phi", "center"), ("field", 1, "phi", "width"), ("field", 1, "test", "center"), ("field", 1, "test", "width"),
        ("group",), ("group", "b"), ("group", "q"), ("group", "e"), ("group", "dim"), ("group", "draws"), ("group", "seed"),
        ("grid",), ("grid", "bounds"), ("grid", "counts"), ("grid", "doublings"),
        ("grid", "sample_count"), ("grid", "sample_seed"), ("grid", "sample_box"),
        ("fd",), ("fd", "step"), ("fd", "order"), ("fd", "convergence_steps"),
        ("tolerances",),
        ("output",), ("output", "dump_fields"), ("output", "field_csv"),
    }
    # computed from the rest of the scenario, so the schema says why instead
    COMPUTED = [("group", "omega"), ("group", "a"), ("field", 0, "components"), ("group", "family"), ("output", "report")]

    def test_every_default_validates_against_its_own_subschema(self):
        found = _defaults(SCENARIO_SCHEMA)
        assert {path for path, _ in found} == self.DEFAULTED
        for path, sub in found:
            schemas.validate(json.loads(json.dumps(sub["default"])), sub)
            validate(sub["default"], sub)  # jsonschema agrees

    def test_computed_keys_have_no_default_and_say_why(self):
        for path in self.COMPUTED:
            sub = _subschema(path)
            assert "default" not in sub and sub["description"].startswith("No schema default"), path
        # each tolerance's default stays in the one TOLERANCES table
        tolerances = _subschema(("tolerances",))
        assert "TOLERANCES" in tolerances["description"] and "default" not in tolerances["additionalProperties"]

    def test_defaults_are_filled_as_copies(self):
        before = json.dumps(SCENARIO_SCHEMA)
        first, second = ({"check": "pairing", "field": {"phi": {}, "test": {"width": 2.0}}} for _ in range(2))
        cli.validate(first)
        cli.validate(second)
        assert first["rep"] == {"variant": "scalar", "q": 1.0, "e": 1.0}
        assert first["field"]["test"] == {"width": 2.0, "center": [0.0] * 4}
        assert first["grid"]["bounds"] == [[-8.0, 8.0]] * 4
        resolved = json.dumps(second)
        first["grid"]["bounds"][0][0] = first["field"]["phi"]["center"][0] = 3.0
        first["rep"]["variant"] = "vector"
        assert json.dumps(second) == resolved and json.dumps(SCENARIO_SCHEMA) == before
        cli.validate(second)
        assert json.dumps(second) == resolved

    def test_every_shipped_scenario_but_two_resolves(self):
        assert len(_resolvable()) == len(list(SCENARIOS.glob("*.json"))) - 2  # malformed.json and bad_schema.json

    @pytest.mark.parametrize("name", _resolvable())
    def test_spelled_out_scenario_runs_as_the_bare_one(self, name, tmp_path, monkeypatch):
        # the same exit code, results, tables and CSV bytes; both reports echo the resolved scenario
        monkeypatch.chdir(tmp_path)
        spelled = load(SCENARIOS / name)
        cli.validate(spelled)
        Path("spelled.json").write_text(json.dumps(spelled))
        runs = []
        for path in (SCENARIOS / name, Path("spelled.json")):
            code = run_cli(["run", str(path), "--out", "report.json"])
            report = load("report.json")
            csv = Path(report["tables"]["field_csv"]).read_bytes() if "field_csv" in report["tables"] else None
            runs.append((code, *(json.dumps(report[key]) for key in ("results", "tables", "scenario")), csv))
        assert runs[1] == runs[0]
        assert runs[0][3] == json.dumps(spelled)


class TestLargeBoostScenario:
    def test_transform_at_rapidity_five_runs(self, capsys, tmp_path, monkeypatch):
        # An exact boost with cosh 5 = 74 used to fail the absolute metric check
        # and exit 2; with a fixed gradient step it then failed gradient_chain_rule
        # on truncation (6.0e-5 against 1e-6).
        monkeypatch.chdir(tmp_path)
        scenario = load(SCENARIOS / "transform_vector_boost.json")
        scenario["group"]["omega"][0] = 5.0
        scenario["output"] = {"report": "r.json", "dump_fields": False}
        Path("scenario.json").write_text(json.dumps(scenario))
        assert run_cli(["run", "scenario.json", "--out", "r.json"]) == 0
        assert "could not be executed" not in capsys.readouterr().err
        report = load(tmp_path / "r.json")
        validate(report, REPORT_SCHEMA)
        passed = {r["name"]: r["passed"] for r in report["results"]}
        assert passed["active_roundtrip"] is True and passed["gradient_chain_rule"] is True


    @pytest.mark.parametrize("rapidity", [8.0, 0.5])
    def test_roundtrip_rows_are_judged_relative_to_the_boost(self, tmp_path, monkeypatch, rapidity):
        # At rapidity 8 (cosh 8 = 1490) the round trip reads 9.8e-10 of pure roundoff,
        # which failed the absolute 1e-10; 0.5 is the shipped scenario, which passes.
        monkeypatch.chdir(tmp_path)
        scenario = load(SCENARIOS / "transform_vector_boost.json")
        scenario["group"]["omega"][0] = rapidity
        scenario["output"] = {"report": "r.json", "dump_fields": False}
        Path("scenario.json").write_text(json.dumps(scenario))
        assert run_cli(["run", "scenario.json", "--out", "r.json"]) == 0
        rows = {r["name"]: r for r in load(tmp_path / "r.json")["results"]}
        bound = 1e-10 * np.cosh(rapidity) ** 2
        for name in ("active_roundtrip", "passive_composition"):
            assert rows[name]["passed"] is True
            assert float(rows[name]["tolerance"]) == pytest.approx(bound, rel=1e-12)
            assert float(rows[name]["sup_residual"]) <= bound

    @pytest.mark.parametrize("rapidity", [8.0, 0.5])
    def test_passive_composition_shows_what_it_compared(self, tmp_path, monkeypatch, rapidity):
        # At rapidity 8 both composed fields underflow to 0 on the whole sample,
        # so the row's 0 residual compares nothing, and its detail says so.
        monkeypatch.chdir(tmp_path)
        argv = ["run", str(SCENARIOS / "transform_vector_boost.json"), "--out", "r.json"]
        omega = f"group.omega=[{rapidity},0,0,0,0,0]"
        assert run_cli([*argv, "--override", omega, "--override", "output.dump_fields=false"]) == 0
        rows = {r["name"]: r for r in load(tmp_path / "r.json")["results"]}
        compared = float(rows["passive_composition"]["detail"]["compared_max_abs"])
        if rapidity == 8.0:
            assert compared == 0.0 and float(rows["passive_composition"]["sup_residual"]) == 0.0
        else:
            assert compared > 0.1

    def test_rotation_keeps_the_plain_roundtrip_tolerance(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["run", str(SCENARIOS / "transform_vector_boost.json"), "--out", "r.json"]
        assert run_cli([*argv, "--override", "group.omega=[0,0,0,0.7,0,0]", "--override", "output.dump_fields=false"]) == 0
        rows = {r["name"]: r for r in load(tmp_path / "r.json")["results"]}
        assert rows["active_roundtrip"]["tolerance"] == rows["passive_composition"]["tolerance"] == "1e-10"


class TestBoundedPairing:
    """The pairing check skips grid points where a Gaussian majorant of every integrand is negligible."""

    @pytest.mark.parametrize("name", ["pairing_invariance.json", "pairing_vector_rotation.json"])
    def test_the_report_bounds_what_was_skipped(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["run", str(SCENARIOS / name), "--out", "r.json"]) == 0
        report = load(tmp_path / "r.json")
        table = report["tables"]["pairing_convergence"]
        values = [abs(complex(float(re), float(im))) for re, im in table["values"]]
        skipped = [float(b) for b in table["skipped_bounds"]]
        assert len(skipped) == len(values)
        assert all(0 < b <= 1e-15 * v for b, v in zip(skipped, values))
        sides = {r["name"]: r for r in report["results"]}["pairing_invariance"]["detail"]
        for side in ("active_side", "test_side"):
            value = abs(complex(*map(float, sides[side])))
            assert 0 < float(sides[f"{side}_skipped_bound"]) <= 1e-15 * value

    MONOMIAL = 'field.phi.components=[[{"coeff":1,"powers":[0,2,0,0]}]]'

    # Widths at the documented extremes, forms that overflow and rapidity-8 boosts, each
    # with the exit code it had before pairings skipped points, at the 33^4 finest grid.
    @pytest.mark.parametrize(
        "overrides, code",
        [
            ([], 1),
            (["field.phi.width=1.055e-154"], 1),
            (["field.phi.width=1.055e-154", "group.omega=[8,0,0,0,0,0]"], 1),
            (["field.phi.width=1.34e154"], 0),
            (["field.phi.width=1.34e154", MONOMIAL], 1),
            (["field.phi.width=1.34e154", "field.test.width=1.34e154", "group.omega=[8,0,0,0,0,0]"], 0),
            (["field.test.width=1.34e154", "group.omega=[0,5,5,0,1,0]"], 1),
            (["group.omega=[8,0,0,0,0,0]", MONOMIAL], 1),
        ],
    )
    def test_degenerate_bound_data_keep_the_exit_codes(self, tmp_path, monkeypatch, overrides, code):
        monkeypatch.chdir(tmp_path)
        args = [a for o in overrides + ["grid.doublings=2"] for a in ("--override", o)]
        assert run_cli(["run", str(SCENARIOS / "pairing_invariance.json"), "--out", "r.json", *args]) == code
        report = load(tmp_path / "r.json")
        bounds = report["tables"]["pairing_convergence"]["skipped_bounds"]
        bounds += [report["results"][1]["detail"][f"{side}_skipped_bound"] for side in ("active_side", "test_side")]
        assert all(float(b) >= 0 for b in bounds)


class TestReportResultRow:
    def test_row_nearest_its_own_tolerance_is_shown(self):
        # the first row fails its strict tolerance although the second has the larger residual
        report = RelationReport(("a", "b"), np.array([1e-12, 1e-11]), np.zeros(2), np.array([1e-14, 1e-10]))
        row = cli._report_result("check", report)
        assert (row["sup_residual"], row["tolerance"], row["passed"]) == ("9.9999999999999998e-13", "1e-14", False)
        report = RelationReport(("a", "b"), np.array([0.0, 3e-16]), np.zeros(2), np.array([1e-14, 1e-10]))
        row = cli._report_result("check", report)
        assert (row["sup_residual"], row["tolerance"], row["passed"]) == ("2.9999999999999999e-16", "1e-10", True)

    def test_ties_go_to_the_larger_residual(self):
        report = RelationReport(("a", "b", "c"), np.array([1e-10, 4e-10, 2e-10]), np.zeros(3), np.array([1e-10, 4e-10, 2e-10]))
        row = cli._report_result("check", report)
        assert (row["sup_residual"], row["tolerance"], row["passed"]) == ("4.0000000000000001e-10", "4.0000000000000001e-10", True)

    def test_one_tolerance_shows_the_largest_residual(self):
        sup = np.array([3e-9, 7e-9, 0.0, 5e-9])
        row = cli._report_result("check", RelationReport(tuple("abcd"), sup, np.zeros(4), 1e-8))
        assert (row["sup_residual"], row["tolerance"]) == (number_text(sup.max()), "1e-08")

    def test_nan_row_is_shown(self):
        report = RelationReport(("a", "b"), np.array([np.nan, 1.0]), np.zeros(2), np.array([1e-14, 1e-10]))
        row = cli._report_result("check", report)
        assert (row["sup_residual"], row["tolerance"], row["passed"]) == ("nan", "1e-14", False)

    def test_toy_row_pairs_residual_and_tolerance(self, tmp_path, monkeypatch):
        # the commutator is exact, so the conjugation row is the one nearest its tolerance
        monkeypatch.chdir(tmp_path)
        assert run_cli(["run", str(SCENARIOS / "toy_charge.json"), "--out", "r.json", "--override", "group.q=3"]) == 0
        row = load(tmp_path / "r.json")["results"][0]
        detail = row["detail"]
        assert detail["sup_residuals"][0] == "0"
        assert (row["sup_residual"], row["tolerance"]) == (detail["sup_residuals"][1], detail["tolerances"][1])
        assert float(row["sup_residual"]) <= float(row["tolerance"])


class TestRepCheckInputs:
    def test_override_that_is_not_json_sets_a_string(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["run", str(SCENARIOS / "rep_check_scalar.json"), "--out", "r.json"]
        assert run_cli([*argv, "--override", "rep.variant=vector"]) == 0
        report = load(tmp_path / "r.json")
        assert report["scenario"]["rep"] == {"variant": "vector", "q": 1.0, "e": 1.0}
        assert report["overrides"] == ["rep.variant=vector"]

    def test_phase_representation(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["run", str(SCENARIOS / "rep_check_scalar.json"), "--out", "r.json"]
        rep = json.dumps({"variant": "phase", "q": 2.0, "e": 0.5})
        assert run_cli([*argv, "--override", f"rep={rep}"]) == 0
        report = load(tmp_path / "r.json")
        assert [r["name"] for r in report["results"]] == ["identity_at_zero", "homomorphism"]
        assert report["pass"] is True


def _benchmark_workloads():
    """perfbench/workloads.py, imported read-only."""
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


class TestToleranceNames:
    """The schema's closed set of tolerance names is the set the checks read."""

    def test_names_are_the_tol_literals_of_the_cli(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        read = [
            node.args[1].value
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_tol"
        ]
        assert all(isinstance(name, str) for name in read)
        assert len(set(TOLERANCE_NAMES)) == len(TOLERANCE_NAMES) == 17
        assert set(read) == set(TOLERANCE_NAMES)

    # A corpus scenario of a check that reads each name, made small and
    # unscaled: the identity boost leaves the round-trip bound as given.
    READERS = {
        "group_check.json": (("metric", "det", "group_law", "algebraic"), {}),
        "rep_check_spinor.json": (("identity", "homomorphism", "anticommutator", "unitarity"), {}),
        "transform_vector_boost.json": (("roundtrip", "gradient"), {"group": {}}),
        "verify_local_vector_rotation.json": (("local",), {}),
        "verify_bundle_vector.json": (("bundle",), {}),
        "toy_charge.json": (("commutator", "conjugation", "groupoid"), {}),
        "pairing_invariance.json": (
            ("pairing_convergence", "pairing"),
            {"grid": {"bounds": [[-7, 7]] * 4, "counts": [5, 5, 5, 5], "doublings": 1}},
        ),
    }

    def test_every_name_reaches_the_report_of_a_check_that_reads_it(self):
        names = [name for read, _ in self.READERS.values() for name in read]
        assert sorted(names) == sorted(TOLERANCE_NAMES)
        for k, name in enumerate(names):
            file = next(f for f, (read, _) in self.READERS.items() if name in read)
            value = 0.0123456789 * (k + 1)
            scenario = {**load(SCENARIOS / file), **self.READERS[file][1], "tolerances": {name: value}}
            scenario.pop("output", None)
            cli.validate(scenario)
            assert number_text(value) in json.dumps(cli.run_scenario(scenario)["results"]), name

    def test_corpus_and_benchmark_use_known_names(self):
        texts = [f.read_text() for f in SCENARIOS.glob("*.json")]
        module = _benchmark_workloads()
        for name in module.WORKLOADS:
            work = module.generate(name, 0)
            texts += [e.text for e in work.entries + work.probes + work.holes]
        used = set()
        for text in texts:
            try:
                used |= set(json.loads(text).get("tolerances", {}))
            except json.JSONDecodeError:
                continue  # the deliberately malformed inputs
        assert used and used <= set(TOLERANCE_NAMES)


def _benchmark_schema_invalid() -> list:
    """The four schema-invalid scenario shapes of the benchmark's corpus workload."""
    return [_benchmark_workloads()._schema_invalid(random.Random(i), i) for i in range(4)]


def _validation_corpus() -> list:
    """Every recorded fuzz case, shipped scenario and workload input of seeds 1-3 that parses."""
    texts = [json.dumps(case["scenario"]) for case in json.loads((ROOT / "tests" / "fuzz_cases.json").read_text())]
    texts += [f.read_text() for f in sorted(SCENARIOS.glob("*.json"))]
    module = _benchmark_workloads()
    for name in module.WORKLOADS:
        for seed in (1, 2, 3):
            work = module.generate(name, seed)
            texts += [e.text for e in work.entries + work.probes + work.holes]
    corpus = []
    for text in texts:
        try:
            corpus.append(json.loads(text))
        except json.JSONDecodeError:
            continue  # the deliberately malformed inputs
    return corpus


def _nested(depth: int) -> list:
    """An empty list inside ``depth`` more lists."""
    value = []
    for _ in range(depth):
        value = [value]
    return value


# What a mutation writes: wrong types, bounds and lengths, and some right ones.
_MUTANT_VALUES = [
    None, True, False, 0, -1, 1, 2, 4, 1.5, 9.0, -0.0, 1e300, "", "x", "scalar", "tensor",
    [], [1], [0.5, 0.5], [1, 2, 3], [9.0, 9, 9, 9], [[1, 2]] * 4, [[[]]], {}, {"a": 1},
    {"coeff": 1, "powers": [0, 0, 0, 0]},
]
_MUTANT_KEYS = ["zz", "yy", "check", "phi", "test", "local", "width", "components", "omega", "coeff", "powers"]


def _mutant(instance, rng: random.Random):
    """A copy of ``instance`` with one change at a random node: replaced, deleted, or given one more key or item."""
    instance = json.loads(json.dumps(instance))
    nodes, stack = [], [((), instance)]
    while stack:
        path, node = stack.pop()
        nodes.append((path, node))
        if isinstance(node, dict):
            stack += [((*path, k), v) for k, v in node.items()]
        elif isinstance(node, list):
            stack += [((*path, i), v) for i, v in enumerate(node)]
    path, node = rng.choice(nodes)
    value = json.loads(json.dumps(rng.choice(_MUTANT_VALUES)))
    change = rng.choice(["replace", "delete", "grow"])
    if change == "grow" and isinstance(node, dict):
        node[rng.choice(_MUTANT_KEYS)] = value
    elif change == "grow" and isinstance(node, list):
        node.append(value)
    elif not path:
        return value
    else:
        parent = instance
        for key in path[:-1]:
            parent = parent[key]
        if change == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return instance


class TestValidate:
    """cli.validate must report the path and message jsonschema.validate reports."""

    @pytest.mark.parametrize("index", range(5))
    def test_same_error_as_jsonschema_validate(self, index):
        invalid = [load(SCENARIOS / "bad_schema.json"), *_benchmark_schema_invalid()]
        scenario = invalid[index]
        with pytest.raises(schemas.ValidationError) as ours:
            cli.validate(scenario)
        with pytest.raises(ValidationError) as reference:
            validate(scenario, SCENARIO_SCHEMA)
        assert ours.value.message == reference.value.message
        assert list(ours.value.path) == list(reference.value.absolute_path)

    def test_same_verdict_path_and_message_as_jsonschema(self):
        # The corpus, 20,000 seeded single mutations of it cut to `check` and one
        # more property (each still a scenario, and small enough for jsonschema),
        # and 1,000 mutations of whole scenarios.  About half of the mutants are
        # repeats; jsonschema judges each distinct text once.
        corpus = _validation_corpus()
        parts = [
            {k: v for k, v in scenario.items() if k in ("check", key)}
            for scenario in corpus
            if isinstance(scenario, dict)
            for key in scenario
        ]
        rng = random.Random(27)
        instances = corpus + [_mutant(rng.choice(parts), rng) for _ in range(20_000)]
        instances += [_mutant(rng.choice(corpus), rng) for _ in range(1_000)]
        oracle = Draft7Validator(SCENARIO_SCHEMA)
        expected = {}
        for instance in instances:
            text = json.dumps(instance)
            if text not in expected:
                error = best_match(oracle.iter_errors(instance))
                expected[text] = error and (list(error.absolute_path), error.message)
            try:
                cli.validate(instance)
            except schemas.ValidationError as exc:
                assert (list(exc.path), exc.message) == expected[text], instance
            else:
                assert expected[text] is None, instance
        rejected = sum(error is not None for error in expected.values())
        assert len(instances) > 21_000 and 5_000 < rejected < len(expected) - 2_000

    def test_draft7_numbers_a_float_integer_is_an_integer_and_a_bool_no_number(self):
        cli.validate({"check": "pairing", "grid": {"counts": [9.0, 9, 9, 9], "doublings": 1.0}, "fd": {"order": 2.0}})
        schemas.validate(1.0, {"enum": [1]})
        for instance, schema, message in [
            (True, {"type": "number"}, "True is not of type 'number'"),
            (True, {"type": "integer"}, "True is not of type 'integer'"),
            (1.5, {"type": "integer"}, "1.5 is not of type 'integer'"),
            (True, {"enum": [1]}, "True is not one of [1]"),
            (2, {"enum": ["2"]}, "2 is not one of ['2']"),
        ]:
            with pytest.raises(schemas.ValidationError) as exc:
                schemas.validate(instance, schema)
            assert (exc.value.path, exc.value.message) == ((), message)

    @pytest.mark.parametrize(
        "scenario, path, message",
        [
            ({}, (), "'check' is a required property"),
            ({"check": "toy", "zz": 1, "yy": 2}, (), "Additional properties are not allowed ('yy', 'zz' were unexpected)"),
            ({"check": "toy", "tolerances": {"local": 1e-6, "bogus": 1}}, ("tolerances",), f"'bogus' is not one of {TOLERANCE_NAMES!r}"),
            ({"check": "toy", "tolerances": {"local": 0}}, ("tolerances", "local"), "0 is less than or equal to the minimum of 0"),
            ({"check": "toy", "grid": {"counts": [9, 9, 9]}}, ("grid", "counts"), "[9, 9, 9] is too short"),
            ({"check": "toy", "grid": {"counts": [9, 9, 9, 1]}}, ("grid", "counts", 3), "1 is less than the minimum of 2"),
            ({"check": "toy", "field": {"components": []}}, ("field", "components"), "[] should be non-empty"),
            (
                {"check": "toy", "field": {"components": [[{"coeff": "x", "powers": [0, 0, 0, 0]}]]}},
                ("field", "components", 0, 0, "coeff"),
                "'x' is not valid under any of the given schemas",
            ),
            (
                {"check": "pairing", "field": {"phi": {}, "test": {}, "extra": 1}},
                ("field",),
                "{'phi': {}, 'test': {}, 'extra': 1} is not valid under any of the given schemas",
            ),
            # the value prints cut to 8 levels; repr of the whole would recurse past the limit
            ({"check": "group-check", "group": {"omega": _nested(5000)}}, ("group", "omega"), "[[[[[[[[[...]]]]]]]]] is too short"),
            ({"check": "toy", "group": {"q": list(range(100))}}, ("group", "q"), f"{list(range(64))!r}"[:-1] + ", ...] is not of type 'number'"),
            ({"check": "toy", "group": {"q": "r" * 300}}, ("group", "q"), f"{'r' * 300!r}"[:256] + "... is not of type 'number'"),
        ],
        ids=[
            "required", "additional", "property-name", "exclusive-minimum", "too-short", "minimum", "non-empty",
            "deepest-branch", "one-of-itself", "deep-value", "long-list", "long-string",
        ],
    )
    def test_error_path_and_message(self, scenario, path, message):
        with pytest.raises(schemas.ValidationError) as exc:
            cli.validate(scenario)
        assert (exc.value.path, exc.value.message) == (path, message)
        assert isinstance(exc.value, ValueError)

    def test_a_keyword_validate_does_not_implement_raises(self):
        with pytest.raises(ValueError, match="'patternProperties' is not implemented"):
            schemas.validate({}, {"type": "object", "patternProperties": {}})
        # the import-time check of SCENARIO_SCHEMA reaches keywords no instance visits
        with pytest.raises(ValueError, match="'const' is not implemented"):
            schemas._check_keywords({"properties": {"a": {"oneOf": [{"items": {"const": 1}}]}}})
        with pytest.raises(ValueError, match="'const' is not implemented"):
            schemas._check_keywords(REPORT_SCHEMA)

    def test_valid_scenarios_pass(self):
        for name in FAST_PASSING + ["pairing_invariance.json", "pairing_vector_rotation.json", "failing_tolerance.json"]:
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

    def _run_every_kind_without(self, module: str, tmp_path):
        """With ``module``'s import made to fail, every kind of run keeps its exit code and loads none of it."""
        script = (
            "import sys\n"
            f"sys.modules[{module!r}] = None\n"
            "from covariant_kit import cli\n"
            "for arg in sys.argv[1:]:\n"
            "    path, code = arg.rsplit('=', 1)\n"
            "    assert cli.main(['run', path, '--out', 'report.json']) == int(code), path\n"
            f"loaded = sorted(m for m, mod in sys.modules.items() if m.startswith({module!r}) and mod is not None)\n"
            "assert loaded == [], loaded\n"
        )
        exits = {**dict.fromkeys(FAST_PASSING, 0), "failing_tolerance.json": 1, "bad_schema.json": 2, "malformed.json": 2}
        proc = subprocess.run(
            [sys.executable, "-c", script, *(f"{SCENARIOS / name}={code}" for name, code in exits.items())],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=_src_env(),
        )
        assert proc.returncode == 0, proc.stderr

    def test_scipy_stays_off_the_run_path(self, tmp_path):
        # scipy is a test dependency only
        self._run_every_kind_without("scipy", tmp_path)

    def test_jsonschema_stays_off_the_run_path(self, tmp_path):
        # jsonschema is a test oracle only; a schema-invalid scenario still exits 2
        self._run_every_kind_without("jsonschema", tmp_path)

    def test_importing_the_cli_loads_no_jsonschema(self):
        script = "import sys\nimport covariant_kit.cli\nassert 'jsonschema' not in sys.modules\n"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_src_env())
        assert proc.returncode == 0, proc.stderr

    def test_demo_06_runs_without_scipy(self, tmp_path):
        # the toy model's observer maps come from charge_unitary, so the demo needs no scipy
        script = "import runpy, sys\nsys.modules['scipy'] = None\nrunpy.run_path(sys.argv[1], run_name='__main__')\n"
        demo = ROOT / "demos" / "06_toy_charge_model.py"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", script, str(demo)], capture_output=True, text=True, cwd=tmp_path, env=_src_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert "composition residual" in proc.stdout

    def test_console_script_help(self, tmp_path):
        # An installed package provides the script. From a source checkout run
        # through PYTHONPATH, write the launcher an installer would write for
        # the entry point that pyproject.toml declares, and run that instead.
        env = dict(os.environ)
        if shutil.which("covariant-kit") is None:
            import tomllib

            target = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]["covariant-kit"]
            module, func = target.split(":")
            launcher = tmp_path / "covariant-kit"
            launcher.write_text(f"#!{sys.executable}\nimport sys\nfrom {module} import {func}\nsys.exit({func}())\n")
            launcher.chmod(0o755)
            env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
            env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
        proc = subprocess.run(["covariant-kit", "--help"], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "run" in proc.stdout and "schema" in proc.stdout
