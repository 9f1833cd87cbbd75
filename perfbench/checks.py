"""Output checks for every scenario a run executes.

A scenario execution fails when any of these holds:

* ``cli.main`` raised an exception;
* its exit code differs from the README/ROADMAP contract
  (0 pass, 1 a tolerance failed, 2 configuration or I/O error);
* its report is not strict JSON or does not validate against
  ``REPORT_SCHEMA``, or disagrees with the exit code and stdout line;
* a rerun of the same scenario is not byte-identical apart from
  ``timestamp`` and ``timings`` (and ``threads`` for a rerun that
  changed ``--threads``);
* a pairing value lies outside the entry's bound from the closed form;
* a field CSV dump has the wrong number of rows or columns.
"""

from __future__ import annotations

import json
from pathlib import Path

import oracle


# Failures the checks find in the program as it stands, counted in
# ``error_rate`` and printed on every run but kept out of ``failed``, which
# then flags only new failures: (scenario name part, reason prefix, cause).
KNOWN_DEFECTS = (
    (
        "rep-check-spinor",
        "rerun is not byte-identical",
        "the homomorphism residual of rep-check spinor (a sup of roundoff near 5e-16)"
        " differs in its last digits between runs, in one process and across processes",
    ),
)


def known_defect(name: str, why: str) -> str | None:
    for part, prefix, cause in KNOWN_DEFECTS:
        if part in name and why.startswith(prefix):
            return cause
    return None


def _strict_constant(token: str):
    raise ValueError(f"non-finite number {token} is not valid JSON")


def canonical(report_text: str, drop=("timestamp", "timings")) -> str:
    report = json.loads(report_text, parse_constant=_strict_constant)
    for key in drop:
        report.pop(key, None)
    return json.dumps(report, indent=2)


class Checker:
    def __init__(self):
        from jsonschema import Draft7Validator

        from covariant_kit.representations import FieldRep, rep_matrix
        from covariant_kit.schemas import REPORT_SCHEMA

        self.validator = Draft7Validator(REPORT_SCHEMA)
        reps = {"scalar": FieldRep.scalar(), "vector": FieldRep.vector(), "spinor": FieldRep.spinor()}
        self.rep_matrix = lambda variant, omega: rep_matrix(reps[variant], omega)
        self.oracle_max = 0.0
        self.first: dict = {}

    def problem(self, entry: dict, rec: dict, drop=("timestamp", "timings")) -> str | None:
        """Why this execution fails, or None when every check holds."""
        if rec["exception"] is not None:
            return f"cli.main raised {rec['exception']}"
        if rec["rc"] != entry["expect"]:
            return f"exit code {rec['rc']}, contract expects {entry['expect']}"
        if rec["rc"] == 2:
            if not rec["stderr"].strip() or "Traceback" in rec["stderr"]:
                return "exit 2 without a one-line diagnostic"
            text = rec["stderr"]
        else:
            try:
                text = Path(rec["out"]).read_text()
                report = json.loads(text, parse_constant=_strict_constant)
            except (OSError, ValueError) as err:
                return f"unreadable report: {err}"
            errors = list(self.validator.iter_errors(report))
            if errors:
                return f"report violates REPORT_SCHEMA: {errors[0].message}"
            status = "PASS" if rec["rc"] == 0 else "FAIL"
            if report["pass"] != (rec["rc"] == 0) or not rec["stdout"].startswith(status):
                return "report, stdout and exit code disagree"
            if entry.get("oracle_bound") is not None:
                scenario = json.loads(entry["text"])
                errs = oracle.relative_errors(report, scenario, self.rep_matrix)
                worst = max(errs.values())
                self.oracle_max = max(self.oracle_max, worst)
                if worst > entry["oracle_bound"]:
                    return f"pairing off the closed form by {worst:.3g} relative (bound {entry['oracle_bound']:g})"
        first = self.first.setdefault(entry["name"], text)
        if first is not text:
            same = text == first if rec["rc"] == 2 else canonical(text, drop) == canonical(first, drop)
            if not same:
                return "rerun is not byte-identical apart from timestamp and timings"
        return None

    @staticmethod
    def csv_problem(entry: dict) -> str | None:
        scenario = json.loads(entry["text"])
        path = Path(scenario["output"]["field_csv"])
        n = 4 if scenario["rep"]["variant"] == "vector" else 1
        try:
            with path.open() as fh:
                header = fh.readline().rstrip("\n").split(",")
                rows = sum(1 for _ in fh)
        except OSError as err:
            return f"field CSV missing: {err}"
        if len(header) != 4 + 2 * n or rows != entry["csv_rows"]:
            return f"field CSV has {rows} rows of {len(header)} columns"
        return None


def check_run(plan: dict, passes: list, extra: list, holes: list) -> dict:
    """Check every execution of a run; returns counts and the reasons."""
    checker = Checker()
    entries = {e["name"]: e for e in plan["entries"] + plan["probes"] + plan["holes"]}
    failures, known = [], []
    attempted = 0
    for rec, drop in [(r, ()) for p in passes for r in p] + [(r, ("threads",)) for r in extra]:
        attempted += 1  # ``extra`` reruns a scenario at --threads 1, so ``threads`` may differ
        why = checker.problem(entries[rec["name"]], rec, drop=("timestamp", "timings", *drop))
        if why:
            (known if known_defect(rec["name"], why) else failures).append([rec["name"], why])
    for entry in entries.values():
        if entry.get("csv_rows") and entry["name"] in checker.first:
            why = checker.csv_problem(entry)
            if why:
                failures.append([entry["name"], why])
    hole_results = []
    for rec in holes:
        why = checker.problem(entries[rec["name"]], rec)
        hole_results.append([rec["name"], why])
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "known": known,
        "holes": hole_results,
        "oracle_max_rel": checker.oracle_max,
    }
