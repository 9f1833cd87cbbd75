"""Unit tests of tools/compare_outputs.py's comparison, on hand-built outputs.

No tree is run: ``compare`` takes the flattened outputs that ``collect``
would record for each side, and ``_invoke`` is given a stand-in CLI.
"""

import argparse
import importlib.util
import sys
import warnings
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)
compare = compare_outputs.compare

BOUND = (1e-6, 1e-11)

PARENT = {
    "scenario/a.json:rc": 0,
    "scenario/a.json:stdout": "PASS group-check: report written to reports/a.json\n",
    "scenario/a.json:report.results.0.passed": True,
    "scenario/a.json:report.results.0.sup_residual": "1.7763568394002505e-15",
    "scenario/a.json:report.results.0.detail.draws": 300,
    "scenario/a.json:report.results.1.ratio": "3.9999999999999996",
    "demo/01.py:stdout": "metric residual 2.2e-16 at rapidity 0.5\n",
    "csv/field.csv": "x0,x1,re\n0.5,-1.25,0.31415926535897931\n",
}


class TestExactMode:
    def test_identical_outputs(self):
        assert compare(PARENT, dict(PARENT)) == ([], [])

    def test_every_difference_is_listed_as_today(self):
        change = dict(PARENT)
        change["scenario/a.json:report.results.0.sup_residual"] = "1.7763568394002509e-15"
        del change["demo/01.py:stdout"]
        change["csv/extra.csv"] = "1\n"
        differ, moved = compare(PARENT, change)
        assert moved == []
        assert differ == [
            "csv/extra.csv: only in the changed tree",
            "demo/01.py:stdout: only in the parent tree",
            "scenario/a.json:report.results.0.sup_residual: '1.7763568394002505e-15' != '1.7763568394002509e-15'",
        ]


class TestByLeaf:
    def test_differing_keys_are_counted_per_leaf_path(self):
        # the output name goes and list indices read *, so keys of many outputs and rows share one line
        parent = {**PARENT, "scenario/b.json:report.results.0.sup_residual": "0"}
        change = {key: f"{value}!" if isinstance(value, str) else value for key, value in parent.items()}
        change["scenario/a.json:report.scenario.grid.bounds.0.1"] = 7.0
        change["scenario/b.json:report.scenario.grid.bounds.3.0"] = -7.0
        del change["demo/01.py:stdout"]
        differ, _ = compare(parent, change)
        assert compare_outputs.by_leaf(differ) == {
            "(whole output)": 1,
            "report.results.*.ratio": 1,
            "report.results.*.sup_residual": 2,
            "report.scenario.grid.bounds.*.*": 2,
            "stdout": 2,
        }
        assert compare_outputs.by_leaf([]) == {}


class TestBoundedMode:
    def test_numbers_within_the_bound_move(self):
        change = dict(PARENT)
        change["scenario/a.json:report.results.0.sup_residual"] = "4.4408920985006262e-15"  # abs 2.7e-15
        change["scenario/a.json:report.results.1.ratio"] = "4.0000000000000009"  # rel 3e-16
        change["demo/01.py:stdout"] = "metric residual 4.4e-16 at rapidity 0.5\n"
        change["csv/field.csv"] = "x0,x1,re\n0.5,-1.25,0.31415926535897938\n"
        differ, moved = compare(PARENT, change, BOUND)
        assert differ == []
        worst = dict(line.split(": moved by ") for line in moved)
        assert list(worst) == [
            "csv/field.csv",
            "demo/01.py:stdout",
            "scenario/a.json:report.results.0.sup_residual",
            "scenario/a.json:report.results.1.ratio",
        ]
        assert worst["demo/01.py:stdout"] == "2.2e-16 absolute, 1 relative"
        assert worst["scenario/a.json:report.results.1.ratio"].startswith("1.33e-15 absolute")

    def test_bound_is_relative_or_absolute_whichever_is_larger(self):
        key = "scenario/a.json:report.results.1.ratio"
        inside = {**PARENT, key: "4.0000035"}  # rel 8.8e-7 <= 1e-6
        outside = {**PARENT, key: "4.0000045"}  # rel 1.1e-6 > 1e-6, abs 4.5e-6 > 1e-11
        assert compare(PARENT, inside, BOUND)[0] == []
        differ, moved = compare(PARENT, outside, BOUND)
        assert moved == []
        assert differ == [f"{key}: moved by 4.5e-06 absolute, 1.13e-06 relative, outside the bound"]
        floor = "scenario/a.json:report.results.0.sup_residual"
        assert compare(PARENT, {**PARENT, floor: "9.9e-12"}, BOUND)[0] == []
        assert compare(PARENT, {**PARENT, floor: "1.2e-11"}, BOUND)[0] != []

    @pytest.mark.parametrize(
        "key, value",
        [
            ("scenario/a.json:rc", 1),
            ("scenario/a.json:report.results.0.passed", False),
            ("scenario/a.json:report.results.0.detail.draws", 301),
            ("scenario/a.json:stdout", "FAIL group-check: report written to reports/a.json\n"),
            ("demo/01.py:stdout", "metric residual 2.2e-16 at rapidity 0.5 extra 1\n"),
            ("csv/field.csv", "x0,x1,im\n0.5,-1.25,0.31415926535897931\n"),
        ],
    )
    def test_flags_exit_codes_integers_and_text_must_be_identical(self, key, value):
        differ, moved = compare(PARENT, {**PARENT, key: value}, BOUND)
        assert moved == []
        assert differ == [f"{key}: {PARENT[key]!r} != {value!r}"]

    def test_float_leaves_are_numbers(self):
        parent, change = {"schema:stdout.x": 0.1}, {"schema:stdout.x": 0.1 + 2e-17}
        assert compare(parent, change, BOUND) == ([], ["schema:stdout.x: moved by 1.39e-17 absolute, 1.39e-16 relative"])
        change["schema:stdout.x"] = 0.1000002
        assert compare(parent, change, BOUND)[0] != []

    def test_moved_keys_are_summarised_per_leaf_path(self):
        parent = {**PARENT, "scenario/b.json:report.results.0.sup_residual": "2e-15"}
        change = dict(parent)
        change["scenario/a.json:report.results.0.sup_residual"] = "4.4408920985006262e-15"  # abs 2.7e-15, rel 1.5
        change["scenario/b.json:report.results.0.sup_residual"] = "3e-15"  # abs 1e-15, rel 0.5
        change["scenario/a.json:report.results.1.ratio"] = "4.0000000000000009"
        change["csv/field.csv"] = "x0,x1,re\n0.5,-1.25,0.31415926535897938\n"
        differ, moved = compare(parent, change, BOUND)
        assert differ == []
        summary = compare_outputs.moves_by_leaf(moved)
        assert list(summary) == ["(whole output)", "report.results.*.ratio", "report.results.*.sup_residual"]
        assert summary["report.results.*.sup_residual"] == (2, 2.66e-15, 1.5)
        assert summary["report.results.*.ratio"][0] == 1 and summary["(whole output)"][0] == 1
        assert compare_outputs.moves_by_leaf([]) == {}

    def test_zero_parent_value_counts_as_infinite_relative_change(self):
        key = "scenario/a.json:report.results.0.sup_residual"
        differ, moved = compare({key: "0"}, {key: "1e-16"}, BOUND)
        assert differ == []
        assert moved == [f"{key}: moved by 1e-16 absolute, inf relative"]


class TestParseBound:
    def test_parses_both_parts(self):
        assert compare_outputs.parse_bound("rel=1e-6,abs=1e-11") == (1e-6, 1e-11)
        assert compare_outputs.parse_bound("abs=0,rel=0") == (0.0, 0.0)

    @pytest.mark.parametrize("text", ["rel=1e-6", "rel=1e-6,abs=x", "rel=-1,abs=0", "rel=1,abs=inf", "rel=1,abs=0,x=2"])
    def test_rejects_malformed_bounds(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            compare_outputs.parse_bound(text)


class TestInvoke:
    def test_warnings_are_recorded_apart_from_stderr(self, tmp_path):
        # Python prints a warning with its source path and line, which differ between trees
        class StandInCli:
            @staticmethod
            def main(argv):
                for _ in range(2):
                    warnings.warn("overflow encountered in multiply", RuntimeWarning)
                print("scenario could not be executed", file=sys.stderr)
                return 2

        outputs = {}
        compare_outputs._invoke(StandInCli, "k", ["run"], str(tmp_path / "no_report.json"), outputs)
        assert outputs == {
            "k:rc": 2,
            "k:stdout": "",
            "k:stderr": "scenario could not be executed\n",
            "k:warnings": ["RuntimeWarning: overflow encountered in multiply"],
        }
