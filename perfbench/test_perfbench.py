"""Self-tests of the benchmark: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import metrics  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from covariant_kit import cli, fields, generators  # noqa: E402
from covariant_kit.geometry import PoincareElement  # noqa: E402
from covariant_kit.representations import FieldRep, rep_matrix  # noqa: E402

REPS = {"scalar": FieldRep.scalar(), "spinor": FieldRep.spinor()}


@pytest.mark.parametrize("variant,n", [("scalar", 1), ("spinor", 4)])
def test_oracle_matches_pairing_at_33(variant, n):
    scenario = workloads.pairing_scenario(random.Random(7), variant, n, "production")
    rep = REPS[variant]
    phi_spec, test_spec = scenario["field"]["phi"], scenario["field"]["test"]
    phi = fields.wave_packet(phi_spec["center"], phi_spec["width"], phi_spec["components"])
    test = fields.wave_packet(test_spec["center"], test_spec["width"], test_spec["components"])
    g = PoincareElement.from_params(np.array(scenario["group"]["omega"]), np.array(scenario["group"]["a"]))
    grid = fields.GridSpec(((-7.0, 7.0),) * 4, (33,) * 4)
    got = {
        "finest": fields.pairing(phi, test, grid),
        "active_side": fields.pairing(fields.active_transform(phi, rep, g), test, grid),
        "test_side": fields.pairing(phi, fields.transform_test_function(test, rep, g), grid),
    }
    exact = oracle.pairing_values(scenario, lambda v, omega: rep_matrix(REPS[v], omega))
    for key, value in exact.items():
        assert abs(got[key] - value) <= 1e-6 * abs(value), key


def test_oracle_overlap_reduces_to_one_dimensional_products():
    A1, A2 = np.diag([1.0, 2.0, 0.5, 1.5]), np.diag([0.7, 1.1, 2.0, 0.9])
    m1, m2 = np.array([0.1, -0.3, 0.2, 0.0]), np.array([-0.2, 0.4, 0.0, 0.5])
    one_d = np.prod([np.sqrt(np.pi / (a + b)) * np.exp(-a * b / (a + b) * (x - y) ** 2)
                     for a, b, x, y in zip(np.diag(A1), np.diag(A2), m1, m2)])
    assert oracle.gaussian_overlap(A1, m1, A2, m2) == pytest.approx(one_d, rel=1e-13)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    texts = lambda seed: [e.text for e in workloads.generate(name, seed).entries]
    assert texts(3) == texts(3)
    assert texts(3) != texts(4)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_work_does_not_depend_on_seed(name):
    def shape(seed):
        return sorted(e.name.split("-", 1)[1] for e in workloads.generate(name, seed).entries)

    assert shape(3) == shape(11)


def test_relations_and_corpus_have_at_least_100_scenarios():
    assert len(workloads.relations(0).entries) >= 100
    assert len(workloads.corpus(0).entries) >= 100


def _run(entry, tmp_path, argv_out=None):
    (tmp_path / entry.file).write_text(entry.text)
    out = argv_out or str(tmp_path / f"{entry.name}.report.json")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["run", str(tmp_path / entry.file), "--out", out, *entry.args])


def test_expected_exit_table_holds(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    seen = {}
    for entry in workloads.corpus(5).entries:
        kind = entry.name.split("-", 1)[1]
        if kind.startswith(("failing", "malformed", "schema", "rep-check", "toy")) and kind not in seen:
            seen[kind] = entry.expect
            assert _run(entry, tmp_path) == entry.expect, entry.name
    assert {"failing-tolerance": 1, "malformed": 2, "schema-invalid": 2}.items() <= seen.items()


def test_holes_expect_exit_2_and_stay_out_of_the_timed_list():
    wl = workloads.corpus(5)
    assert [h.expect for h in wl.holes] == [2, 2, 2]
    assert not {h.name for h in wl.holes} & {e.name for e in wl.entries}


def test_checker_flags_an_open_hole(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    hole = next(h for h in workloads.corpus(5).holes if "infinity" in h.name)
    out = str(tmp_path / "hole.json")
    rc = _run(hole, tmp_path, out)
    rec = {"name": hole.name, "rc": rc, "exception": None, "out": out, "stdout": "PASS", "stderr": ""}
    why = checks.Checker().problem(vars(hole), rec)
    assert why is not None


def test_self_time_subtracts_merged_child_intervals():
    spans = [
        ["parent", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 2.0, 4.0, 0, 0],  # overlaps a
        ["c", 9.0, 12.0, 0, 0],  # outlives the parent
        ["a.child", 1.5, 2.0, 1, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 1.5, 2.0, 3.0, 0.5])


def test_tracer_rebinds_every_binding_and_restores_them():
    originals = (cli.pairing, generators.lorentz_exp, cli.validate)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.pairing is not originals[0]
        assert generators.lorentz_exp is not originals[1]
        assert cli.validate is not originals[2]
        grid = fields.GridSpec(((-3.0, 3.0),) * 4, (5,) * 4)
        packet = fields.wave_packet([0.0] * 4, 1.0, 1)
        moved = fields.active_transform(packet, FieldRep.scalar(), PoincareElement.from_params(np.full(6, 0.1)))
        cli.pairing(moved, packet, grid)
    finally:
        tracer.uninstall()
    assert (cli.pairing, generators.lorentz_exp, cli.validate) == originals
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names.count("fields.pairing") == 1
    # the transformed field nests closures, but points count once, at the packet
    evaluated = sum(s[tracing.COUNT] for s in tracer.spans if s[tracing.NAME] == "fields.evaluate")
    assert evaluated == 2 * grid.npoints
    selfs = tracing.self_times(tracer.spans)
    outer = [i for i, s in enumerate(tracer.spans) if s[tracing.PARENT] == -1]
    wall = sum(tracer.spans[i][tracing.END] - tracer.spans[i][tracing.START] for i in outer)
    assert sum(selfs) == pytest.approx(wall)


def test_benchmark_json_lists_every_metric_and_workload():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == [m[:3] for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [m[:3] for m in metrics.PER_LAYER]
    assert tuple(w["name"] for w in doc["workloads"]) == workloads.WORKLOADS
    assert max(m["bound"] for m in doc["end_to_end"]) == next(m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")


def test_percentile_is_a_weighted_median_and_quantile():
    assert metrics.percentile([5.0, 1.0, 3.0, 2.0, 4.0], 0.5) == pytest.approx(3.0)
    assert metrics.percentile([1.0, 2.0], 0.5) == pytest.approx(1.5)
    assert 89.0 < metrics.percentile(list(range(1, 101)), 0.9) < 92.0


def test_known_defects_match_only_their_scenario_and_reason():
    why = "rerun is not byte-identical apart from timestamp and timings"
    assert checks.known_defect("c007-rep-check-spinor", why)
    assert checks.known_defect("c007-rep-check-scalar", why) is None
    assert checks.known_defect("c007-rep-check-spinor", "exit code 1, contract expects 0") is None


def test_speed_factor_needs_many_bursts():
    import reference

    slow = [[2 * reference.NOMINAL_S] * 2]
    assert reference.speed_factor(slow * (reference.MIN_BURSTS - 1)) == 1.0
    assert reference.speed_factor(slow * reference.MIN_BURSTS) == pytest.approx(2.0)
