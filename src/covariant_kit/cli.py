"""Batch front-end: run scenario files and emit machine-readable reports.

Usage:
    covariant-kit run <scenario.json> [--threads N] [--out PATH]
                                      [--override key=value ...]
    covariant-kit schema

Exit codes: 0 all checks passed, 1 at least one check failed its
tolerance, 2 configuration or I/O error.  Reports are JSON with every
number rendered as 17-significant-digit decimal text; rerunning a
scenario reproduces the report byte-for-byte except the timestamp and
timing fields.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from decimal import Decimal
from pathlib import Path

import numpy as np
from jsonschema import ValidationError
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for
from scipy.linalg import expm

from . import __version__
from .fields import (
    GridSpec,
    active_transform,
    dump_field_csv,
    gradient_fd_residual,
    pairing,
    passive_transform,
    transform_test_function,
    wave_packet,
)
from .generators import (
    FDScheme,
    analytic_rep_derivatives,
    internal_family,
    poincare_family,
    poincare_frame_family,
    rep_generators,
)
from .geometry import ETA, PLANES, AffineChart, PoincareElement, chart_transition, lorentz_exp
from .heisenberg import (
    number_operator_model,
    observer_groupoid_check,
    sample_points,
    toy_commutator_check,
    verify_bundle_relation,
    verify_local_relation,
)
from .representations import FieldRep, homomorphism_check, rep_matrix, sigma_tensor
from .schemas import REPORT_SCHEMA, SCENARIO_SCHEMA


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _result(name: str, sup: float, tol: float, detail: dict | None = None) -> dict:
    out = {
        "name": name,
        "passed": bool(sup <= tol),
        "sup_residual": _fmt(sup),
        "tolerance": _fmt(tol),
    }
    if detail is not None:
        out["detail"] = detail
    return out


def _report_result(name: str, report, tol_for_summary: float) -> dict:
    return {
        "name": name,
        "passed": report.all_passed,
        "sup_residual": _fmt(float(report.sup_residuals.max())),
        "tolerance": _fmt(tol_for_summary),
        "detail": report.to_dict(),
    }


def _tol(scenario: dict, name: str, default: float) -> float:
    return float(scenario.get("tolerances", {}).get(name, default))


def _build_rep(scenario: dict) -> FieldRep:
    spec = scenario.get("rep", {"variant": "scalar"})
    variant = spec.get("variant", "scalar")
    if variant == "scalar":
        return FieldRep.scalar()
    if variant == "vector":
        return FieldRep.vector()
    if variant == "spinor":
        return FieldRep.spinor()
    if variant == "phase":
        return FieldRep.phase(spec.get("q", 1.0), spec.get("e", 1.0))
    raise ValueError(f"unknown representation variant {variant!r}")


def _build_packet(spec: dict, n: int):
    return wave_packet(
        spec.get("center", [0.0, 0.0, 0.0, 0.0]),
        spec.get("width", 1.0),
        spec.get("components", n),
    )


def _build_field(scenario: dict, rep: FieldRep):
    spec = scenario.get("field", {})
    if "phi" in spec or "test" in spec:
        raise ValueError("this check expects a single field spec, not a phi/test pair")
    field = _build_packet(spec, rep.n)
    if field.n != rep.n:
        raise ValueError(f"field has {field.n} components but the representation needs {rep.n}")
    return field


def _build_grid(scenario: dict) -> GridSpec:
    spec = scenario.get("grid", {})
    bounds = spec.get("bounds", [[-8.0, 8.0]] * 4)
    counts = spec.get("counts", [9] * 4)
    return GridSpec(tuple(tuple(b) for b in bounds), tuple(counts))


def _build_points(scenario: dict) -> np.ndarray:
    spec = scenario.get("grid", {})
    return sample_points(
        count=spec.get("sample_count", 200),
        seed=spec.get("sample_seed", 0),
        box=spec.get("sample_box", 2.0),
    )


def _build_scheme(scenario: dict) -> FDScheme:
    spec = scenario.get("fd", {})
    return FDScheme(spec.get("step", 1e-4), spec.get("order", 2))


def _convergence_steps(scenario: dict) -> tuple:
    return tuple(scenario.get("fd", {}).get("convergence_steps", ()))


def _group_element(scenario: dict) -> PoincareElement:
    spec = scenario.get("group", {})
    omega = np.asarray(spec.get("omega", [0.0] * 6), dtype=float)
    a = np.asarray(spec.get("a", [0.0] * 4), dtype=float)
    return PoincareElement.from_params(omega, a)


def _build_family(scenario: dict, rep: FieldRep):
    kind = scenario.get("group", {}).get("family", "poincare")
    if kind == "poincare":
        return poincare_family(rep)
    if kind == "frame":
        return poincare_frame_family(rep)
    if kind == "internal":
        if rep.kind != "phase":
            raise ValueError("the internal family needs a phase representation")
        return internal_family(rep)
    raise ValueError(f"unknown family kind {kind!r}")


def _generator_table(family, scheme) -> dict:
    table = {}
    for label, mat in zip(family.labels, rep_generators(family, scheme)):
        table[label] = [[[_fmt(v.real), _fmt(v.imag)] for v in row] for row in mat]
    return table


def run_group_check(scenario: dict) -> tuple[list, dict]:
    spec = scenario.get("group", {})
    draws = spec.get("draws", 200)
    rng = np.random.default_rng(spec.get("seed", 0))
    metric_res = 0.0
    det_res = 0.0
    for _ in range(draws):
        lam = lorentz_exp(rng.uniform(-1.0, 1.0, 6))
        metric_res = max(metric_res, lam.metric_residual())
        det_res = max(det_res, abs(np.linalg.det(lam.matrix) - 1.0))

    subgroup_res = 0.0
    for i in range(6):
        s, t = rng.uniform(-0.8, 0.8, 2)
        e = np.zeros(6)
        e[i] = 1.0
        prod = lorentz_exp(s * e).matrix @ lorentz_exp(t * e).matrix
        subgroup_res = max(subgroup_res, float(np.abs(prod - lorentz_exp((s + t) * e).matrix).max()))

    assoc_res = 0.0
    for _ in range(20):
        gs = [
            PoincareElement.from_params(rng.uniform(-0.6, 0.6, 6), rng.uniform(-1, 1, 4))
            for _ in range(3)
        ]
        left = gs[2].compose(gs[1]).compose(gs[0])
        right = gs[2].compose(gs[1].compose(gs[0]))
        assoc_res = max(
            assoc_res,
            float(np.abs(left.matrix - right.matrix).max()),
            float(np.abs(left.translation - right.translation).max()),
        )

    g = PoincareElement.from_params(rng.uniform(-0.5, 0.5, 6), rng.uniform(-1, 1, 4))
    u = AffineChart()
    u_prime = AffineChart(g.matrix, g.translation)
    trans = chart_transition(u, u_prime)
    round_trip = trans.coord_map.compose(trans.coord_map_inv)
    chart_res = max(
        float(np.abs(round_trip.linear - np.eye(4)).max()),
        float(np.abs(round_trip.offset).max()),
    )

    results = [
        _result("metric_preservation", metric_res, _tol(scenario, "metric", 1e-12), {"draws": draws}),
        _result("unit_determinant", det_res, _tol(scenario, "det", 1e-12)),
        _result("one_parameter_subgroup", subgroup_res, _tol(scenario, "group_law", 1e-10)),
        _result("composition_associativity", assoc_res, _tol(scenario, "group_law", 1e-10)),
        _result("chart_transition_roundtrip", chart_res, _tol(scenario, "algebraic", 1e-12)),
    ]
    return results, {}


def run_rep_check(scenario: dict) -> tuple[list, dict]:
    rep = _build_rep(scenario)
    rng = np.random.default_rng(scenario.get("group", {}).get("seed", 0))
    ident = float(np.abs(rep_matrix(rep, np.zeros(rep.nparams)) - np.eye(rep.n)).max())
    results = [_result("identity_at_zero", ident, _tol(scenario, "identity", 1e-12))]

    hom_res = 0.0
    signs = []
    for _ in range(8):
        if rep.kind == "phase":
            p1, p2 = rng.uniform(-1.0, 1.0, 2)
        else:
            p1 = rng.uniform(-0.4, 0.4, 6)
            p2 = rng.uniform(-0.4, 0.4, 6)
        res, sign = homomorphism_check(rep, p1, p2)
        hom_res = max(hom_res, res)
        signs.append(sign)
    results.append(
        _result("homomorphism", hom_res, _tol(scenario, "homomorphism", 1e-9), {"signs": signs})
    )

    if rep.kind == "spinor":
        results.append(
            _result(
                "gamma_anticommutator",
                rep.gamma.anticommutator_residual(),
                _tol(scenario, "anticommutator", 1e-12),
            )
        )
        omega = np.zeros(6)
        omega[3], omega[4], omega[5] = 0.7, -0.3, 0.4  # spatial planes only
        S = rep_matrix(rep, omega)
        unitary = float(np.abs(S.conj().T @ S - np.eye(4)).max())
        results.append(_result("spatial_rotation_unitarity", unitary, _tol(scenario, "unitarity", 1e-10)))
    return results, {}


def run_transform(scenario: dict) -> tuple[list, dict]:
    rep = _build_rep(scenario)
    field = _build_field(scenario, rep)
    g = _group_element(scenario)
    pts = _build_points(scenario)

    moved = active_transform(field, rep, g)
    back = active_transform(moved, rep, g.inverse())
    round_res = float(np.abs(back.evaluate(pts) - field.evaluate(pts)).max())

    grad_res = gradient_fd_residual(moved, pts[:32])

    twice = passive_transform(passive_transform(field, rep, g), rep, g)
    composed = passive_transform(field, rep, g.compose(g))
    comp_res = float(np.abs(twice.evaluate(pts) - composed.evaluate(pts)).max())

    results = [
        _result("active_roundtrip", round_res, _tol(scenario, "roundtrip", 1e-10)),
        _result("gradient_chain_rule", grad_res, _tol(scenario, "gradient", 1e-6)),
        _result("passive_composition", comp_res, _tol(scenario, "roundtrip", 1e-10)),
    ]
    tables = {}
    out_spec = scenario.get("output", {})
    if out_spec.get("dump_fields"):
        csv_path = Path(out_spec.get("field_csv", "field_dump.csv"))
        dump_field_csv(moved, _build_grid(scenario), csv_path)
        tables["field_csv"] = str(csv_path)
    # Echo the representation matrices in play.
    mat = rep_matrix(rep, g.params if rep.kind != "phase" else 0.0)
    tables["rep_matrix"] = [[[_fmt(v.real), _fmt(v.imag)] for v in row] for row in mat]
    return results, tables


def run_verify_local(scenario: dict) -> tuple[list, dict]:
    import dataclasses

    rep = _build_rep(scenario)
    if rep.kind == "phase":
        # Compare the differenced law against the closed-form charge
        # coefficient; without it the internal check is trivially zero.
        family = dataclasses.replace(internal_family(rep), rep_derivative=analytic_rep_derivatives(rep))
    else:
        family = _build_family(scenario, rep)
    field = _build_field(scenario, rep)
    scheme = _build_scheme(scenario)
    pts = _build_points(scenario)
    report = verify_local_relation(
        field,
        family,
        scheme,
        pts,
        tolerance=_tol(scenario, "local", 1e-6),
        convergence_steps=_convergence_steps(scenario),
    )
    tables = {"generator_matrices": _generator_table(family, scheme)}
    return [_report_result("local_relation", report, _tol(scenario, "local", 1e-6))], tables


def run_verify_bundle(scenario: dict) -> tuple[list, dict]:
    import dataclasses

    rep = _build_rep(scenario)
    base = internal_family(rep) if rep.kind == "phase" else poincare_frame_family(rep)
    # Closed-form derivatives make the residual compare the differenced
    # frame law against known coefficients rather than against itself.
    family = dataclasses.replace(base, rep_derivative=analytic_rep_derivatives(rep))
    field = _build_field(scenario, rep)
    scheme = _build_scheme(scenario)
    pts = _build_points(scenario)
    report = verify_bundle_relation(
        field, family, scheme, pts, tolerance=_tol(scenario, "bundle", 1e-8)
    )
    tables = {"generator_matrices": _generator_table(family, scheme)}
    return [_report_result("bundle_relation", report, _tol(scenario, "bundle", 1e-8))], tables


def run_toy(scenario: dict) -> tuple[list, dict]:
    spec = scenario.get("group", {})
    model = number_operator_model(spec.get("dim", 16), spec.get("q", 1.0), spec.get("e", 1.0))
    b = spec.get("b", 0.3)
    report = toy_commutator_check(
        model,
        b=b,
        commutator_tolerance=_tol(scenario, "commutator", 1e-14),
        conjugation_tolerance=_tol(scenario, "conjugation", 1e-10),
    )
    results = [_report_result("charge_commutator", report, _tol(scenario, "commutator", 1e-14))]

    U = lambda t: expm(model.generator * (t / (1j * model.unit_charge)))
    groupoid = observer_groupoid_check(U(b), U(0.7 * b), U(1.7 * b), self_maps=(U(0.0),))
    results.append(
        _result(
            "observer_groupoid",
            groupoid.max_residual,
            _tol(scenario, "groupoid", 1e-10),
            {
                "composition_residual": _fmt(groupoid.composition_residual),
                "identity_residual": _fmt(groupoid.identity_residual),
            },
        )
    )
    return results, {}


def run_pairing(scenario: dict) -> tuple[list, dict]:
    spec = scenario.get("field", {})
    if "phi" not in spec or "test" not in spec:
        raise ValueError("the pairing check needs field.phi and field.test packet specs")
    rep = _build_rep(scenario)
    phi = _build_packet(spec["phi"], rep.n)
    test = _build_packet(spec["test"], rep.n)
    if phi.n != test.n or phi.n != rep.n:
        raise ValueError("pairing fields and representation must share one component count")

    grid = _build_grid(scenario)
    doublings = scenario.get("grid", {}).get("doublings", 3)
    grids = [grid]
    for _ in range(doublings):
        grids.append(grids[-1].refine())
    values = [pairing(phi, test, g) for g in grids]
    rel_diffs = [
        abs(values[i + 1] - values[i]) / max(abs(values[i + 1]), 1e-300)
        for i in range(len(values) - 1)
    ]
    conv_tol = _tol(scenario, "pairing_convergence", 1e-7)
    conv_res = rel_diffs[-1] if rel_diffs else 0.0
    table = {
        "counts": [list(g.counts) for g in grids],
        "values": [[_fmt(v.real), _fmt(v.imag)] for v in values],
        "relative_diffs": [_fmt(d) for d in rel_diffs],
    }
    results = [_result("pairing_convergence", conv_res, conv_tol, {"levels": len(grids)})]

    group_spec = scenario.get("group", {})
    if "omega" in group_spec or "a" in group_spec:
        g = _group_element(scenario)
        fine = grids[-1]
        moved = pairing(active_transform(phi, rep, g), test, fine)
        pulled = pairing(phi, transform_test_function(test, rep, g), fine)
        rel = abs(moved - pulled) / max(abs(pulled), 1e-300)
        results.append(
            _result(
                "pairing_invariance",
                rel,
                _tol(scenario, "pairing", 1e-6),
                {
                    "active_side": [_fmt(moved.real), _fmt(moved.imag)],
                    "test_side": [_fmt(pulled.real), _fmt(pulled.imag)],
                },
            )
        )
    return results, {"pairing_convergence": table}


_RUNNERS = {
    "group-check": run_group_check,
    "rep-check": run_rep_check,
    "transform": run_transform,
    "verify-local": run_verify_local,
    "verify-bundle": run_verify_bundle,
    "toy": run_toy,
    "pairing": run_pairing,
}


def run_scenario(scenario: dict, threads: int = 0, overrides: list[str] | None = None) -> dict:
    """Execute one validated scenario and return the report dict."""
    start = time.perf_counter()
    results, tables = _RUNNERS[scenario["check"]](scenario)
    report = {
        "schema_version": "1",
        "artifact_version": __version__,
        "check": scenario["check"],
        "scenario": scenario,
        "overrides": list(overrides or []),
        "threads": int(threads),
        "results": results,
        "tables": tables,
        "pass": all(r["passed"] for r in results),
        "timings": {"total_seconds": _fmt(time.perf_counter() - start)},
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    return report


@functools.cache
def _scenario_validator():
    cls = validator_for(SCENARIO_SCHEMA)
    cls.check_schema(SCENARIO_SCHEMA)
    return cls(SCENARIO_SCHEMA)


def validate(scenario: dict) -> None:
    """Raise what ``jsonschema.validate(scenario, SCENARIO_SCHEMA)`` raises.

    The schema is checked and its validator built once per process, on
    first use, instead of on every call.
    """
    error = best_match(_scenario_validator().iter_errors(scenario))
    if error is not None:
        raise error


#: Most points a scenario may ask for, in its finest grid or its sample:
#: about 56 times the 65^4 production grid.
POINT_BUDGET = 10**9
# Past this many doublings every grid is far above the budget, so the
# count stops there instead of building a huge integer.
_MAX_COUNTED_DOUBLINGS = 64


def _over_budget(scenario: dict) -> str | None:
    """Why the scenario needs more than POINT_BUDGET points, or None.

    Computed from the scenario's numbers alone; nothing is allocated.
    """
    spec = scenario.get("grid", {})
    samples = spec.get("sample_count", 200)
    if samples > POINT_BUDGET:
        return f"grid.sample_count asks for {samples} points"
    levels = spec.get("doublings", 3) if scenario["check"] == "pairing" else 0
    counted = min(levels, _MAX_COUNTED_DOUBLINGS)
    finest = math.prod((k - 1) * 2**counted + 1 for k in spec.get("counts", [9] * 4))
    if finest > POINT_BUDGET:
        more = "more than " if levels > counted else ""
        return f"the finest grid has {more}{Decimal(finest):.4g} points"
    return None


def _finite_number(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"non-finite number {text} is not allowed")
    return value


def _loads(text: str):
    """json.loads without NaN, Infinity or numbers that overflow to inf."""
    return json.loads(text, parse_constant=_finite_number, parse_float=_finite_number)


def _apply_override(scenario: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ValueError(f"override {assignment!r} is not of the form key=value")
    key, raw = assignment.split("=", 1)
    try:
        value = _loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = scenario
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ValueError(f"override path {key!r} crosses a non-object value")
    node[parts[-1]] = value


def cmd_run(args) -> int:
    path = Path(args.scenario)
    if args.threads < 0:
        print(f"--threads must be 0 or more, got {args.threads}", file=sys.stderr)
        return 2
    try:
        text = path.read_text()
    except OSError as exc:
        print(f"cannot read scenario file {path}: {exc}", file=sys.stderr)
        return 2
    try:
        scenario = _loads(text)
    except json.JSONDecodeError as exc:
        print(
            f"scenario parse error in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except ValueError as exc:
        print(f"scenario parse error in {path}: {exc}", file=sys.stderr)
        return 2
    try:
        for assignment in args.override or []:
            _apply_override(scenario, assignment)
    except ValueError as exc:
        print(f"bad override: {exc}", file=sys.stderr)
        return 2
    try:
        validate(scenario)
    except ValidationError as exc:
        where = ".".join(str(p) for p in exc.absolute_path) or "(root)"
        print(f"scenario field {where}: {exc.message}", file=sys.stderr)
        return 2
    why = _over_budget(scenario)
    if why is not None:
        print(f"scenario exceeds the budget of {POINT_BUDGET} points: {why}", file=sys.stderr)
        return 2
    out = args.out or scenario.get("output", {}).get("report") or f"{path.stem}.report.json"
    out_path = Path(out)
    blocker = next((d for d in out_path.parents if d.exists() and not d.is_dir()), None)
    if out_path.is_dir() or blocker is not None:
        code, name = (errno.EISDIR, out_path) if blocker is None else (errno.ENOTDIR, blocker)
        exc = OSError(code, os.strerror(code), str(name))
        print(f"cannot write report {out_path}: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_scenario(scenario, threads=args.threads, overrides=args.override)
    except (ValueError, TypeError, KeyError) as exc:
        print(f"scenario could not be executed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"scenario output could not be written: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"scenario ran out of memory: {exc}", file=sys.stderr)
        return 2

    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(report, indent=2) + "\n")
    except OSError as exc:
        print(f"cannot write report {out_path}: {exc}", file=sys.stderr)
        return 2
    status = "PASS" if report["pass"] else "FAIL"
    print(f"{status} {scenario['check']}: report written to {out_path}")
    return 0 if report["pass"] else 1


def cmd_schema(_args) -> int:
    print(json.dumps({"scenario": SCENARIO_SCHEMA, "report": REPORT_SCHEMA}, indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="covariant-kit",
        description="Group actions on sampled fields and numerical commutator checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file and write a JSON report")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--threads", type=int, default=0, help="worker cap (0 = implementation default)")
    run_p.add_argument("--out", default=None, help="report output path")
    run_p.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a scenario entry via dotted path, e.g. fd.step=0.001",
    )
    run_p.set_defaults(func=cmd_run)

    schema_p = sub.add_parser("schema", help="print the scenario and report JSON schemas")
    schema_p.set_defaults(func=cmd_schema)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
