"""Acceptance suite: one test per release criterion, strict tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from jsonschema import validate

from covariant_kit.cli import main as cli_main
from covariant_kit.fields import GridSpec, active_transform, pairing, transform_test_function, wave_packet
from covariant_kit.generators import (
    FDScheme,
    det_trace_residual,
    internal_family,
    poincare_family,
    poincare_frame_family,
    rep_generators,
)
from covariant_kit.geometry import ETA, PLANES, lorentz_exp
from covariant_kit.heisenberg import (
    number_operator_model,
    observer_groupoid_check,
    sample_points,
    toy_commutator_check,
    verify_bundle_relation,
    verify_local_relation,
)
from covariant_kit.representations import FieldRep, GammaBasis, sigma_tensor
from covariant_kit.schemas import REPORT_SCHEMA

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _announce(num, label, ok):
    print(f"[acceptance] criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_metric_preservation():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst_metric = 0.0
    worst_det = 0.0
    for _ in range(1000):
        lam = lorentz_exp(rng.uniform(-1.0, 1.0, 6))
        worst_metric = max(worst_metric, np.abs(lam.T @ ETA @ lam - ETA).max())
        worst_det = max(worst_det, abs(np.linalg.det(lam) - 1.0))
    elapsed = time.perf_counter() - start
    _announce(1, "metric preservation", worst_metric <= 1e-12 and worst_det <= 1e-12 and elapsed < 1.0)


def test_criterion_02_gamma_algebra():
    g = GammaBasis.standard().matrices
    worst = 0.0
    for mu in range(4):
        for nu in range(mu, 4):
            anti = g[mu] @ g[nu] + g[nu] @ g[mu]
            worst = max(worst, float(np.abs(anti - 2 * ETA[mu, nu] * np.eye(4)).max()))
    _announce(2, "gamma algebra", worst <= 1e-12)


def test_criterion_03_coefficient_tables():
    scheme = FDScheme(1e-4, order=2)
    start = time.perf_counter()
    ok = True

    scalar = rep_generators(poincare_family(FieldRep.scalar()), scheme)
    ok &= np.abs(scalar).max() <= 1e-8

    vector = rep_generators(poincare_family(FieldRep.vector()), scheme)
    for w, (mu, nu) in enumerate(PLANES):
        expected = np.zeros((4, 4))
        for s in range(4):
            for r in range(4):
                expected[s, r] = (s == mu) * ETA[nu, r] - (s == nu) * ETA[mu, r]
        ok &= np.abs(vector[w] - expected).max() <= 1e-8
    ok &= np.abs(vector[6:]).max() <= 1e-8

    rep = FieldRep.spinor()
    spinor = rep_generators(poincare_family(rep), scheme)
    sig = sigma_tensor(rep.gamma)
    for w, (mu, nu) in enumerate(PLANES):
        ok &= np.abs(spinor[w] - (-0.5j) * sig[mu, nu]).max() <= 1e-8
    ok &= np.abs(spinor[6:]).max() <= 1e-8

    elapsed = time.perf_counter() - start
    _announce(3, "coefficient tables", bool(ok) and elapsed < 1.0)


def test_criterion_04_local_heisenberg_relations():
    points = sample_points(count=200, seed=5, box=1.5)
    steps = (4e-3, 2e-3, 1e-3)
    suite = [
        (wave_packet([0.0, 0.2, -0.1, 0.0], 1.0, 1), FieldRep.scalar()),
        (wave_packet([0.1, 0.0, 0.3, -0.2], 1.2, [1.0, [(0.5, (1, 0, 0, 0))], -0.4, 0.8]), FieldRep.vector()),
        (wave_packet([0.0, 0.1, 0.0, 0.2], 1.1, [1.0, 0.5j, -0.25, 0.75]), FieldRep.spinor()),
    ]
    start = time.perf_counter()
    ok = True
    for field, rep in suite:
        report = verify_local_relation(
            field,
            poincare_family(rep),
            FDScheme(1e-4, order=2),
            points,
            tolerance=1e-6,
            convergence_steps=steps,
        )
        ok &= report.all_passed
        ratios = report.convergence_ratios
        ok &= bool(np.all((ratios >= 3.5) & (ratios <= 4.5)))

    # infinitesimal form of the exponentiated phase law
    rep = FieldRep.phase(1.0, 1.0)
    phase_report = verify_local_relation(
        wave_packet([0, 0, 0, 0], 1.0, 1), internal_family(rep), FDScheme(1e-4, order=2), points, tolerance=1e-8
    )
    ok &= phase_report.all_passed

    elapsed = time.perf_counter() - start
    _announce(4, "local Heisenberg relations", bool(ok) and elapsed < 10.0)


def test_criterion_05_pairing_invariance():
    from covariant_kit.geometry import PoincareElement

    start = time.perf_counter()
    rep = FieldRep.scalar()
    phi = wave_packet([0.3, -0.2, 0.1, 0.0], 1.0, 1)
    f = wave_packet([-0.25, 0.4, 0.0, 0.2], 1.2, 1)
    g = PoincareElement.from_params([0.3, 0, 0, 0, 0, 0], [0.5, 0.0, 0.0, 0.0])

    grid = GridSpec(((-7.0, 7.0),) * 4, (9,) * 4)
    values = [pairing(phi, f, grid)]
    converged = None
    for _ in range(3):
        grid = grid.refine()
        values.append(pairing(phi, f, grid))
        if abs(values[-1] - values[-2]) / abs(values[-1]) <= 1e-7:
            converged = grid
            break
    ok = converged is not None

    if ok:
        moved = pairing(active_transform(phi, rep, g), f, converged)
        pulled = pairing(phi, transform_test_function(f, rep, g), converged)
        ok &= abs(moved - pulled) / abs(pulled) <= 1e-6

    elapsed = time.perf_counter() - start
    _announce(5, "pairing invariance", bool(ok) and elapsed < 60.0)


def test_criterion_06_det_trace_identity():
    scheme = FDScheme(1e-5, order=2)
    N = np.zeros((4, 4))
    N[0, 1] = N[1, 2] = N[2, 3] = 1.0
    families = [
        (lambda b: math.exp(b[0]) * np.eye(4), np.zeros(1)),
        (lorentz_exp, np.zeros(6)),
        (lambda b: np.eye(4) + b[0] * N, np.zeros(1)),
    ]
    worst = max(det_trace_residual(fam, b0, scheme).max() for fam, b0 in families)
    _announce(6, "det-trace identity", worst <= 1e-8)


def test_criterion_07_toy_charge_relation():
    ok = True
    for q in (1.0, 2.5):
        report = toy_commutator_check(number_operator_model(dim=16, q=q), b=0.3)
        comm = report.sup_residuals[report.labels.index("commutator_0")]
        conj = report.sup_residuals[report.labels.index("conjugation_0")]
        ok &= comm <= 1e-14 and conj <= 1e-10
    _announce(7, "toy charge relation", bool(ok))


def test_criterion_08_bundle_relations():
    points = sample_points(count=200, seed=7, box=1.5)
    family = poincare_frame_family(FieldRep.vector())
    field = wave_packet([0.1, 0.0, -0.2, 0.0], 1.0, 4)
    report = verify_bundle_relation(field, family, FDScheme(1e-4, order=2), points, tolerance=1e-8)
    trans = [i for i, lab in enumerate(report.labels) if lab.startswith("T_")]
    rots = [i for i, lab in enumerate(report.labels) if lab.startswith("S_")]
    ok = np.array_equal(report.sup_residuals[trans], np.zeros(4))
    ok &= report.sup_residuals[rots].max() <= 1e-8
    _announce(8, "bundle relations", bool(ok))


def test_criterion_09_groupoid_law():
    from scipy.linalg import expm

    model = number_operator_model(dim=8, q=1.0, e=1.0)
    U = lambda t: expm(np.diag(model.diagonal) * (t / 1j))
    clean = observer_groupoid_check(U(0.4), U(0.25), U(0.65), self_maps=(U(0.0),))
    defect = observer_groupoid_check(U(0.4), U(0.25), (1.0 + 1e-3) * U(0.65))
    ok = clean.max_residual <= 1e-10 and defect.composition_residual >= 5e-4
    _announce(9, "groupoid law", bool(ok))


def test_criterion_10_cli_contract(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected_exit = {
        "group_check.json": 0,
        "rep_check_spinor.json": 0,
        "rep_check_scalar.json": 0,
        "transform_vector_boost.json": 0,
        "verify_local_vector_rotation.json": 0,
        "verify_local_phase.json": 0,
        "verify_bundle_vector.json": 0,
        "toy_charge.json": 0,
        "pairing_invariance.json": 0,
        "failing_tolerance.json": 1,
        "malformed.json": 2,
        "bad_schema.json": 2,
    }
    ok = True
    kinds = set()
    for name, want in expected_exit.items():
        out = tmp_path / f"{name}.report.json"
        code = cli_main(["run", str(SCENARIOS / name), "--out", str(out)])
        ok &= code == want
        if want != 2:
            report = json.loads(out.read_text())
            validate(report, REPORT_SCHEMA)
            kinds.add(report["check"])
    ok &= len(expected_exit) >= 8
    ok &= kinds == {"group-check", "rep-check", "transform", "verify-local", "verify-bundle", "toy", "pairing"}

    # reproducibility modulo timestamp/timing fields
    for name in ("group_check.json", "toy_charge.json"):
        dumps = []
        for i in range(2):
            out = tmp_path / f"repro_{i}.json"
            cli_main(["run", str(SCENARIOS / name), "--out", str(out)])
            report = json.loads(out.read_text())
            report.pop("timestamp")
            report.pop("timings")
            dumps.append(json.dumps(report))
        ok &= dumps[0] == dumps[1]

    _announce(10, "CLI contract", bool(ok))
