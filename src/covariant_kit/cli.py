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

from . import __version__
from .fields import (
    GaussianBound,
    GridSpec,
    active_transform,
    active_transform_bound,
    dump_field_csv,
    gradient_fd_residual,
    pairing,  # unused here; the benchmark's tracer self-test wraps cli.pairing
    pairings,
    passive_transform,
    transform_test_function,
    transform_test_function_bound,
    wave_packet,
)
from .generators import (
    FDScheme,
    internal_family,
    poincare_family,
    poincare_frame_family,
    rep_generators,
)
from .geometry import (
    AffineMap,
    PoincareElement,
    chart_transition,
    lorentz_exp,
    lorentz_residuals,
)
from .heisenberg import (
    charge_unitary,
    number_operator_model,
    observer_groupoid_check,
    sample_points,
    toy_commutator_check,
    verify_bundle_relation,
    verify_local_relation,
)
from .representations import FieldRep, homomorphism_check, rep_matrix, rep_matrix_for_element
# cmd_run calls validate as cli.validate, the name the benchmark's tracer wraps
from .schemas import REPORT_SCHEMA, SCENARIO_SCHEMA, TOLERANCES, ValidationError, number_text, validate


def _complex_text(v) -> list:
    return [number_text(v.real), number_text(v.imag)]


def _matrix_text(mat) -> list:
    return [[_complex_text(v) for v in row] for row in mat]


def _result(name: str, sup: float, tol: float, detail: dict | None = None) -> dict:
    out = {
        "name": name,
        "passed": bool(sup <= tol),
        "sup_residual": number_text(sup),
        "tolerance": number_text(tol),
    }
    if detail is not None:
        out["detail"] = detail
    return out


#: Why a row whose compared values are all exactly 0 fails: it compared nothing.
_COMPARED_NOTHING = "the compared values are exactly 0 at every sample point, so the row compares nothing"


def _compared(row: dict, *values) -> dict:
    """``row``, failed with ``detail.failure`` when every one of ``values`` is exactly 0."""
    if any(np.any(v) for v in values):
        return row
    return {**row, "passed": False, "detail": {**row.get("detail", {}), "failure": _COMPARED_NOTHING}}


def _report_result(name: str, report) -> dict:
    """The report's row with the largest sup/tolerance (ties to the larger residual, NaN first)."""
    sup, tol = report.sup_residuals, report.tolerances
    worst = np.lexsort((sup, sup / tol))[-1]
    return {**_result(name, sup[worst], tol[worst], report.to_dict()), "passed": report.all_passed}


def _tol(scenario: dict, name: str) -> float:
    """The scenario's tolerance ``name``, else its default in ``schemas.TOLERANCES``."""
    return float(scenario["tolerances"].get(name, TOLERANCES[name]))


def _build_rep(scenario: dict) -> FieldRep:
    spec = scenario["rep"]
    return FieldRep.phase(spec["q"], spec["e"]) if spec["variant"] == "phase" else getattr(FieldRep, spec["variant"])()


def _build_packet(spec: dict, n: int):
    return wave_packet(spec["center"], spec["width"], spec.get("components", n))


def _packet_bound(spec: dict, n: int) -> GaussianBound:
    """The bound of ``_build_packet(spec, n)``, from the same spec."""
    return GaussianBound.of_packet(spec["center"], spec["width"], spec.get("components", n))


def _count(spec: dict, n: int) -> int:
    """The number of components a packet spec asks for, counted without building the packet."""
    components = spec.get("components", n)
    return components if isinstance(components, int) else len(components)


def _build_field(scenario: dict, rep: FieldRep):
    spec = scenario["field"]
    if "phi" in spec or "test" in spec:
        raise ValueError("this check expects a single field spec, not a phi/test pair")
    count = _count(spec, rep.n)
    if count != rep.n:
        raise ValueError(f"field has {count} components but the representation needs {rep.n}")
    return _build_packet(spec, rep.n)


def _build_grid(scenario: dict) -> GridSpec:
    spec = scenario["grid"]
    return GridSpec(tuple(tuple(b) for b in spec["bounds"]), tuple(spec["counts"]))


def _build_points(scenario: dict) -> np.ndarray:
    spec = scenario["grid"]
    return sample_points(spec["sample_count"], spec["sample_seed"], spec["sample_box"])


def _group_element(scenario: dict) -> PoincareElement:
    spec = scenario["group"]
    omega = np.asarray(spec.get("omega", [0.0] * 6), dtype=float)
    a = np.asarray(spec.get("a", [0.0] * 4), dtype=float)
    return PoincareElement.from_params(omega, a)


_FAMILIES = {"poincare": poincare_family, "frame": poincare_frame_family, "internal": internal_family}


def run_group_check(scenario: dict) -> tuple[list, dict]:
    draws = scenario["group"]["draws"]
    rng = np.random.default_rng(scenario["group"]["seed"])
    metric_res, det_res = lorentz_residuals(lorentz_exp(rng.uniform(-1.0, 1.0, (draws, 6))))

    subgroup_res = 0.0
    for i in range(6):
        s, t = rng.uniform(-0.8, 0.8, 2)
        e = np.zeros(6)
        e[i] = 1.0
        prod = lorentz_exp(s * e) @ lorentz_exp(t * e)
        subgroup_res = max(subgroup_res, float(np.abs(prod - lorentz_exp((s + t) * e)).max()))

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
            float(np.abs(left.linear - right.linear).max()),
            float(np.abs(left.offset - right.offset).max()),
        )

    g = PoincareElement.from_params(rng.uniform(-0.5, 0.5, 6), rng.uniform(-1, 1, 4))
    # A general chart u, drawn after g so the rows above keep their bits: with u = 1 the two
    # composition orders of chart_transition agree.  Both maps must carry u-coordinates to g's.
    u = AffineMap(np.diag(rng.uniform(0.5, 2.0, 4)) @ lorentz_exp(rng.uniform(-0.5, 0.5, 6)), rng.uniform(-1, 1, 4))
    trans, x = chart_transition(u, g), rng.uniform(-2.0, 2.0, (16, 4))
    chart_res = float(max(np.abs(trans.coord_map(u(x)) - g(x)).max(), np.abs(u(trans.point_map(x)) - g(x)).max()))

    results = [
        _result("metric_preservation", metric_res, _tol(scenario, "metric"), {"draws": draws}),
        _result("unit_determinant", det_res, _tol(scenario, "det")),
        _result("one_parameter_subgroup", subgroup_res, _tol(scenario, "group_law")),
        _result("composition_associativity", assoc_res, _tol(scenario, "group_law")),
        _result("chart_transition_roundtrip", chart_res, _tol(scenario, "algebraic")),
    ]
    return results, {}


def run_rep_check(scenario: dict) -> tuple[list, dict]:
    rep = _build_rep(scenario)
    rng = np.random.default_rng(scenario["group"]["seed"])
    ident = float(np.abs(rep_matrix(rep, np.zeros(rep.nparams)) - np.eye(rep.n)).max())
    results = [_result("identity_at_zero", ident, _tol(scenario, "identity"))]

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
    results.append(_result("homomorphism", hom_res, _tol(scenario, "homomorphism"), {"signs": signs}))

    if rep.kind == "spinor":
        anti = rep.gamma.anticommutator_residual
        results.append(_result("gamma_anticommutator", anti, _tol(scenario, "anticommutator")))
        omega = np.zeros(6)
        omega[3], omega[4], omega[5] = 0.7, -0.3, 0.4  # spatial planes only
        S = rep_matrix(rep, omega)
        unitary = float(np.abs(S.conj().T @ S - np.eye(4)).max())
        results.append(_result("spatial_rotation_unitarity", unitary, _tol(scenario, "unitarity")))
    return results, {}


def run_transform(scenario: dict) -> tuple[list, dict]:
    rep = _build_rep(scenario)
    field = _build_field(scenario, rep)
    g = _group_element(scenario)
    pts = _build_points(scenario)

    moved = active_transform(field, rep, g)
    back = active_transform(moved, rep, g.inverse())
    values, back_values = field.evaluate(pts), back.evaluate(pts)
    round_res = float(np.abs(back_values - values).max())

    # A step scaled by 1/max|L| spans the same fraction of the moved packet at any boost.
    grad_res = gradient_fd_residual(moved, pts[:32], 1e-4 / np.abs(g.linear).max())

    twice = passive_transform(passive_transform(field, rep, g), rep, g).evaluate(pts)
    composed = passive_transform(field, rep, g.compose(g)).evaluate(pts)
    comp_res = float(np.abs(twice - composed).max())
    # Both fields can underflow to 0 on the whole sample at a large boost;
    # the row then compares nothing, and fails with its detail showing that as 0.
    compared_max_abs = max(float(np.abs(twice).max()), float(np.abs(composed).max()))

    # Their roundoff grows with the entries of L squared, as in geometry._check_lorentz.
    round_tol = _tol(scenario, "roundtrip") * max(1.0, np.abs(g.linear).max()) ** 2
    grad_tol = _tol(scenario, "gradient")
    results = [
        _compared(_result("active_roundtrip", round_res, round_tol), values, back_values),
        # grad_res is relative to max(|grad|, 1e-30): with an exactly 0 gradient it is 0 only if the differences are
        _compared(_result("gradient_chain_rule", grad_res, grad_tol), moved.gradient(pts[:32]), grad_res),
        _compared(
            _result("passive_composition", comp_res, round_tol, {"compared_max_abs": number_text(compared_max_abs)}),
            compared_max_abs,
        ),
    ]
    tables = {}
    if scenario["output"]["dump_fields"]:
        csv_path = Path(scenario["output"]["field_csv"])
        dump_field_csv(moved, _build_grid(scenario), csv_path)
        tables["field_csv"] = str(csv_path)
    # Echo the representation matrix in play.
    tables["rep_matrix"] = _matrix_text(rep_matrix_for_element(rep, g))
    return results, tables


def _run_relation(scenario: dict, default_family: str, verify, name: str, tol: float, **options):
    """Representation, family, field, scheme and sample of the scenario, then ``verify``: result and table.

    Without ``group.family`` the family is ``internal`` for a phase representation, else ``default_family``.
    """
    rep = _build_rep(scenario)
    family = _FAMILIES[scenario["group"].get("family", "internal" if rep.kind == "phase" else default_family)](rep)
    field = _build_field(scenario, rep)
    scheme = FDScheme(scenario["fd"]["step"], scenario["fd"]["order"])
    pts = _build_points(scenario)
    report = verify(field, family, scheme, pts, tolerance=tol, **options)
    gens = rep_generators(family, scheme)
    tables = {"generator_matrices": {label: _matrix_text(mat) for label, mat in zip(family.labels, gens)}}
    return [_report_result(name, report)], tables


def run_verify_local(scenario: dict) -> tuple[list, dict]:
    tol = _tol(scenario, "local")
    steps = tuple(scenario["fd"]["convergence_steps"])
    return _run_relation(scenario, "poincare", verify_local_relation, "local_relation", tol, convergence_steps=steps)


def run_verify_bundle(scenario: dict) -> tuple[list, dict]:
    return _run_relation(scenario, "frame", verify_bundle_relation, "bundle_relation", _tol(scenario, "bundle"))


def run_toy(scenario: dict) -> tuple[list, dict]:
    spec = scenario["group"]
    model = number_operator_model(spec["dim"], spec["q"], spec["e"])
    b = spec["b"]
    report = toy_commutator_check(
        model,
        b=b,
        commutator_tolerance=_tol(scenario, "commutator"),
        conjugation_tolerance=_tol(scenario, "conjugation"),
    )
    results = [_report_result("charge_commutator", report)]

    U = lambda t: charge_unitary(model, t)
    groupoid = observer_groupoid_check(U(b), U(0.7 * b), U(1.7 * b), self_maps=(U(0.0),))
    results.append(
        _result(
            "observer_groupoid",
            groupoid.max_residual,
            _tol(scenario, "groupoid"),
            {
                "composition_residual": number_text(groupoid.composition_residual),
                "identity_residual": number_text(groupoid.identity_residual),
            },
        )
    )
    return results, {}


def run_pairing(scenario: dict) -> tuple[list, dict]:
    spec = scenario["field"]
    if "phi" not in spec or "test" not in spec:
        raise ValueError("the pairing check needs field.phi and field.test packet specs")
    rep = _build_rep(scenario)
    if _count(spec["phi"], rep.n) != rep.n or _count(spec["test"], rep.n) != rep.n:
        raise ValueError("pairing fields and representation must share one component count")
    phi = _build_packet(spec["phi"], rep.n)
    test = _build_packet(spec["test"], rep.n)

    grid = _build_grid(scenario)
    doublings = scenario["grid"]["doublings"]
    if doublings < 1:
        raise ValueError("the pairing check needs grid.doublings >= 1 to measure convergence")
    grids = [grid]
    for _ in range(doublings):
        grids.append(grids[-1].refine())
    # One pass over the finest grid: the ladder's coarser levels are its
    # sub-lattices, and the invariance sides share phi and test with it.
    # Each pair carries its integrand bound, the product of its fields'
    # bounds, so the pass can skip the grid points where every integrand is
    # negligible and return a bound on what it skipped.
    phi_bound, test_bound = _packet_bound(spec["phi"], rep.n), _packet_bound(spec["test"], rep.n)
    pairs = [(phi, test, phi_bound * test_bound)]
    invariance = "omega" in scenario["group"] or "a" in scenario["group"]
    if invariance:
        g = _group_element(scenario)
        pairs += [
            (active_transform(phi, rep, g), test, active_transform_bound(phi_bound, rep, g) * test_bound),
            (phi, transform_test_function(test, rep, g), phi_bound * transform_test_function_bound(test_bound, rep, g)),
        ]
    sums, skipped = pairings(pairs, grids[-1], levels=len(grids))
    values = sums[0]
    # No floor on the divisor: two zeros read nan and a nonzero over zero
    # reads inf, and either fails its tolerance.
    rel_diffs = np.abs(np.diff(values)) / np.abs(values[1:])
    conv_tol = _tol(scenario, "pairing_convergence")
    conv_res = rel_diffs[-1]
    table = {
        "counts": [list(g.counts) for g in grids],
        "values": [_complex_text(v) for v in values],
        "relative_diffs": [number_text(d) for d in rel_diffs],
        "skipped_bounds": [number_text(b) for b in skipped[0]],
    }
    results = [_result("pairing_convergence", conv_res, conv_tol, {"levels": len(grids)})]

    if invariance:
        moved, pulled = sums[1:, -1]
        rel = abs(moved - pulled) / abs(pulled)
        sides = {
            "active_side": _complex_text(moved),
            "test_side": _complex_text(pulled),
            "active_side_skipped_bound": number_text(skipped[1, -1]),
            "test_side_skipped_bound": number_text(skipped[2, -1]),
        }
        results.append(_result("pairing_invariance", rel, _tol(scenario, "pairing"), sides))
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
    """Execute one scenario that ``validate`` passed and resolved, and return the report dict."""
    start = time.perf_counter()
    # An overflow shows as a non-finite residual, which fails its tolerance; it does not also warn.
    with np.errstate(all="ignore"):
        results, tables = _RUNNERS[scenario["check"]](scenario)
    return {
        "schema_version": "1",
        "artifact_version": __version__,
        "check": scenario["check"],
        "scenario": scenario,
        "overrides": list(overrides or []),
        "threads": int(threads),
        "results": results,
        "tables": tables,
        "pass": all(r["passed"] for r in results),
        "timings": {"total_seconds": number_text(time.perf_counter() - start)},
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


#: Most points a scenario's finest grid may have, which a pairing streams in
#: blocks: about 56 times the 65^4 production grid.
POINT_BUDGET = 10**9
# Past this many doublings every grid is far above the budget, so the
# count stops there instead of building a huge integer.
_MAX_COUNTED_DOUBLINGS = 64
#: Largest ``group.dim`` of a toy scenario.  ``run_toy`` works entry by
#: entry on a few dim x dim complex matrices (16 MB each at this size), at
#: O(dim^2): dim 1024 took 0.06-0.1 s and 90 MB peak (56 MB over import)
#: on a 2-core Xeon, and each doubling costs four times the time and memory.
TOY_DIM_BUDGET = 1024
#: Largest ``group.draws`` of a group check, which makes (draws, 6) parameters and (draws, 4, 4)
#: Lorentz matrices at once: 1e5 draws took 0.65 s and 130 MB peak (30 MB of it the import) and
#: 1e6 took 7.4 s and 942 MB on a 2-core Xeon; both grow linearly in draws.
DRAWS_BUDGET = 10**5
#: Largest ``grid.sample_count``.  ``transform``, ``verify-local`` and ``verify-bundle`` hold the
#: whole sample and its fields at once: 2e5 points over 1e3 took a vector rotation check 740 B
#: of peak RSS and 18 us per point (a spinor at order 4, 770 B and 25 us), a bundle check 310 B
#: and a transform 200 B, on a 2-core Xeon.  So 1e6 points is about 0.8 GB and 20 s.
SAMPLE_BUDGET = 10**6
#: The checks that build the sample, and so the only ones ``SAMPLE_BUDGET`` applies to.
_SAMPLED_CHECKS = ("transform", "verify-local", "verify-bundle")


def _over_budget(scenario: dict) -> str | None:
    """The diagnostic of a resolved scenario too large to run, or None.

    Computed from the scenario's numbers alone; nothing is allocated.
    """
    group, spec = scenario["group"], scenario["grid"]
    if scenario["check"] == "toy" and group["dim"] > TOY_DIM_BUDGET:
        return f"scenario exceeds the toy model budget of dimension {TOY_DIM_BUDGET}: group.dim is {group['dim']}"
    if scenario["check"] == "group-check" and group["draws"] > DRAWS_BUDGET:
        return f"scenario exceeds the group check budget of {DRAWS_BUDGET} draws: group.draws is {group['draws']}"
    if scenario["check"] in _SAMPLED_CHECKS and spec["sample_count"] > SAMPLE_BUDGET:
        return f"scenario exceeds the sample budget of {SAMPLE_BUDGET} points: grid.sample_count asks for {spec['sample_count']} points"
    levels = spec["doublings"] if scenario["check"] == "pairing" else 0
    counted = min(levels, _MAX_COUNTED_DOUBLINGS)
    finest = math.prod((k - 1) * 2**counted + 1 for k in spec["counts"])
    if finest > POINT_BUDGET:
        more = "more than " if levels > counted else ""
        return f"scenario exceeds the budget of {POINT_BUDGET} points: the finest grid has {more}{Decimal(finest):.4g} points"
    return None


def _finite_number(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"non-finite number {text} is not allowed")
    return value


def _loads(text: str):
    """json.loads without NaN, Infinity or numbers that overflow to inf.

    JSON nested past the interpreter's recursion limit raises ValueError.
    """
    try:
        return json.loads(text, parse_constant=_finite_number, parse_float=_finite_number)
    except RecursionError:
        raise ValueError("JSON is nested too deeply to parse") from None


def _apply_override(scenario: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ValueError(f"override {assignment!r} is not of the form key=value")
    key, raw = assignment.split("=", 1)
    try:
        value = _loads(raw)
    except json.JSONDecodeError:
        value = raw
    *parents, name = key.split(".")
    node = scenario
    for part in parents:
        node = node.setdefault(part, {}) if isinstance(node, dict) else None
    if not isinstance(node, dict):
        raise ValueError(f"override path {key!r} crosses a non-object value")
    node[name] = value


def _config_error(message: str) -> int:
    """Print the one-line diagnostic of a configuration or I/O error on stderr; exit code 2."""
    print(message, file=sys.stderr)
    return 2


def cmd_run(args) -> int:
    path = Path(args.scenario)
    if args.threads < 0:
        return _config_error(f"--threads must be 0 or more, got {args.threads}")
    try:
        text = path.read_text()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path or bytes that are not UTF-8
        return _config_error(f"cannot read scenario file {path}: {exc}")
    try:
        scenario = _loads(text)
    except json.JSONDecodeError as exc:
        return _config_error(
            f"scenario parse error in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    except ValueError as exc:
        return _config_error(f"scenario parse error in {path}: {exc}")
    try:
        for assignment in args.override or []:
            _apply_override(scenario, assignment)
    except ValueError as exc:
        return _config_error(f"bad override: {exc}")
    try:
        validate(scenario)
    except ValidationError as exc:
        where = ".".join(str(p) for p in exc.path) or "(root)"
        return _config_error(f"scenario field {where}: {exc.message}")
    too_large = _over_budget(scenario)
    if too_large is not None:
        return _config_error(too_large)
    out = args.out or scenario["output"].get("report") or f"{path.stem}.report.json"
    out_path = Path(out)
    if "\0" in out:
        return _config_error(f"cannot write report {out_path}: embedded null byte")
    blocker = next((d for d in out_path.parents if d.exists() and not d.is_dir()), None)
    if out_path.is_dir() or blocker is not None:
        code, name = (errno.EISDIR, out_path) if blocker is None else (errno.ENOTDIR, blocker)
        exc = OSError(code, os.strerror(code), str(name))
        return _config_error(f"cannot write report {out_path}: {exc}")

    try:
        report = run_scenario(scenario, threads=args.threads, overrides=args.override)
    except (ValueError, TypeError, KeyError) as exc:
        return _config_error(f"scenario could not be executed: {exc}")
    except OSError as exc:
        return _config_error(f"scenario output could not be written: {exc}")
    except MemoryError as exc:
        return _config_error(f"scenario ran out of memory: {exc}")

    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(report, indent=2) + "\n")
    except OSError as exc:
        return _config_error(f"cannot write report {out_path}: {exc}")
    status = "PASS" if report["pass"] else "FAIL"
    print(f"{status} {scenario['check']}: report written to {out_path}")
    return 0 if report["pass"] else 1


def cmd_schema(_args) -> int:
    print(json.dumps({"scenario": SCENARIO_SCHEMA, "report": REPORT_SCHEMA}, indent=2))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="covariant-kit",
        description="Group actions on sampled fields and numerical commutator checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file and write a JSON report")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--threads", type=int, default=0, help="recorded in the report; execution is sequential")
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
