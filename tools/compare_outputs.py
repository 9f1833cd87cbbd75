"""Compare every output of two source trees of covariant-kit.

Usage:
    python tools/compare_outputs.py PARENT_TREE CHANGE_TREE [--seed N]
                                    [--bound rel=R,abs=A]

For each tree, in a fresh temporary directory (under ``$TMPDIR``) and
with that tree's ``src`` first on the path, this runs:

* every ``scenarios/*.json`` through ``covariant_kit.cli.main``;
* ``covariant-kit schema``, whose printed JSON is compared leaf by leaf;
* the entries, probes and holes of the ``quadrature``, ``relations`` and
  ``corpus`` workloads of the tree's
  ``perfbench/workloads.generate(name, seed)`` (imported read-only; only
  the scenario texts and arguments are used);
* every ``demos/*.py``, each in its own process;
* every case of the change tree's ``tests/fuzz_cases.json`` (written by
  ``tools/fuzz_cases.py``), when it has one, in both trees alike, under
  the key prefix ``fuzz-cases/``, with the case's ``args`` after its own.

It then compares, key by key: each report without ``timestamp`` and
``timings``, each exit code, stdout, stderr and the warnings raised, and
the SHA-256 digest of every CSV file the runs leave behind.  Every differing key is printed,
then the count of differing keys per leaf path (the key without its output
name, list indices as ``*``, e.g. ``report.scenario.grid.bounds.*.*: 44``),
so a stray change shows among many expected ones; the exit code is 1 on
any difference, 0 when the outputs are identical.
Both trees run the same relative paths, so paths in stdout and stderr
compare equal.  A comparison of two trees, one with the bounded 65^4
pairings of ``scenarios/`` and the quadrature workload and one without,
took 12-13 s in all on a 2-core Xeon.

``--bound rel=R,abs=A`` lets numbers move.  A number matches when
``|a - b| <= max(R |a|, A)``, with ``a`` the parent's value.  A float leaf
is one number; a text leaf (report values, stdout, stderr) matches when
its text outside the numbers is identical and each number in it matches.
CSV files are compared by content, cell by cell, instead of by digest.
Exit codes and every other leaf (pass flags, integers, null) must still be
identical.  Each key that moved within the bound is printed with its
worst absolute and relative change, and counted; a key outside the bound
is printed as differing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

WORKLOADS = ("quadrature", "relations", "corpus")
#: A decimal number as the reports, demos and CSV dumps print them.
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _flatten(value, prefix: str, out: dict) -> None:
    """Leaves of a JSON value under dotted keys."""
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{prefix}.{key}", out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, f"{prefix}.{i}", out)
    else:
        out[prefix] = value


def _invoke(cli, key: str, argv: list, out: str, outputs: dict) -> None:
    """Run cli.main(argv) in this process and record what it printed and wrote.

    Warnings are recorded apart from stderr, as their distinct category and
    message texts without the source path and line that Python prints.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(stdout))
        stack.enter_context(contextlib.redirect_stderr(stderr))
        caught = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")
        try:
            rc = cli.main(argv)
        except SystemExit as err:
            rc = err.code
        except Exception as err:  # a raising cli.main is an output like any other
            rc = f"raised {type(err).__name__}: {err}"
    outputs[f"{key}:rc"] = rc
    outputs[f"{key}:stdout"] = stdout.getvalue()
    outputs[f"{key}:stderr"] = stderr.getvalue()
    outputs[f"{key}:warnings"] = list(dict.fromkeys(f"{w.category.__name__}: {w.message}" for w in caught))
    report = Path(out)
    if report.is_file():
        data = json.loads(report.read_text())
        data.pop("timestamp", None)
        data.pop("timings", None)
        _flatten(data, f"{key}:report", outputs)


def collect(tree: Path, seed: int, csv_text: bool = False, cases: Path | None = None) -> dict:
    """Every output of one tree, with the fuzz ``cases`` file replayed; the working directory must be empty.

    CSV files are recorded by SHA-256 digest, or by content with ``csv_text``.
    """
    from covariant_kit import cli

    if not Path(cli.__file__).resolve().is_relative_to(tree / "src"):
        raise SystemExit(f"covariant_kit was imported from {cli.__file__}, not from {tree / 'src'}")
    outputs: dict = {}
    Path("reports").mkdir()
    scenario_dir = Path("scenarios")
    scenario_dir.mkdir()
    for src in sorted((tree / "scenarios").glob("*.json")):
        (scenario_dir / src.name).write_text(src.read_text())
        out = f"reports/{src.stem}.json"
        _invoke(cli, f"scenario/{src.name}", ["run", str(scenario_dir / src.name), "--out", out], out, outputs)
    _invoke(cli, "schema", ["schema"], "reports/schema.json", outputs)  # writes no report
    stdout = outputs.pop("schema:stdout")
    try:
        _flatten(json.loads(stdout), "schema:stdout", outputs)
    except json.JSONDecodeError:
        outputs["schema:stdout"] = stdout

    spec = importlib.util.spec_from_file_location("_workloads", tree / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up there
    spec.loader.exec_module(workloads)
    for name in WORKLOADS:
        work = workloads.generate(name, seed)
        for entry in work.entries + work.probes + work.holes:
            Path(entry.file).write_text(entry.text)
            if entry.out_dir:
                Path(entry.name).mkdir()
            out = entry.name if entry.out_dir else f"reports/{entry.name}.json"
            argv = ["run", entry.file, "--out", out, *entry.args]
            _invoke(cli, f"{name}/{entry.name}", argv, out, outputs)

    if cases is not None:
        Path("fuzz-cases").mkdir()
        for i, case in enumerate(json.loads(cases.read_text())):
            key = f"fuzz-cases/{i:03d}"
            scenario = case["scenario"]
            if isinstance(scenario, dict):
                scenario["output"] = {**scenario.get("output", {}), "field_csv": f"{key}.csv"}
            Path(f"{key}.json").write_text(json.dumps(scenario))
            argv = ["run", f"{key}.json", "--out", f"{key}.report.json", *case.get("args", [])]
            _invoke(cli, key, argv, f"{key}.report.json", outputs)

    for demo in sorted((tree / "demos").glob("*.py")):
        run = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True)
        outputs[f"demo/{demo.name}:rc"] = run.returncode
        outputs[f"demo/{demo.name}:stdout"] = run.stdout
        outputs[f"demo/{demo.name}:stderr"] = run.stderr

    for csv in sorted(Path(".").rglob("*.csv")):
        if csv_text:
            outputs[f"csv/{csv.as_posix()}"] = csv.read_text()
        else:
            outputs[f"csv/{csv.as_posix()}:sha256"] = hashlib.sha256(csv.read_bytes()).hexdigest()
    return outputs


def _run_tree(tree: Path, seed: int, workdir: Path, csv_text: bool, cases: Path | None) -> dict:
    """Collect one tree's outputs in a child process with the tree's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(tree / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    result = workdir.parent / f"{workdir.name}.outputs.json"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--collect", str(tree), str(result), "--seed", str(seed)]
    cmd += ["--csv-text"] * csv_text + ["--cases", str(cases)] * (cases is not None)
    subprocess.run(cmd, cwd=workdir, env=env, check=True)
    return json.loads(result.read_text())


def parse_bound(text: str) -> tuple[float, float]:
    """``rel=R,abs=A`` -> (R, A), both finite and non-negative."""
    try:
        parts = dict(item.split("=", 1) for item in text.split(","))
        rel, abs_ = float(parts.pop("rel")), float(parts.pop("abs"))
    except (KeyError, ValueError):
        raise argparse.ArgumentTypeError(f"expected rel=R,abs=A, got {text!r}") from None
    if parts or not all(0 <= v < float("inf") for v in (rel, abs_)):
        raise argparse.ArgumentTypeError(f"expected rel=R,abs=A with finite R, A >= 0, got {text!r}")
    return rel, abs_


def _move(a, b, bound: tuple[float, float]) -> tuple[float, float, bool] | None:
    """(worst absolute change, worst relative change, all within bound) between two leaves.

    None when the leaves cannot be compared number by number: an exit
    code, a leaf that is neither a float nor text, or text whose words or
    count of numbers differ.
    """
    if isinstance(a, float) and isinstance(b, float):
        numbers = [(a, b)]
    elif isinstance(a, str) and isinstance(b, str) and _NUMBER.split(a) == _NUMBER.split(b):
        numbers = [(float(x), float(y)) for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b))]
    else:
        return None
    rel, abs_ = bound
    worst_abs = max(abs(x - y) for x, y in numbers)
    worst_rel = max(abs(x - y) / abs(x) if x else float("inf") if y else 0.0 for x, y in numbers)
    within = all(abs(x - y) <= max(rel * abs(x), abs_) for x, y in numbers)
    return worst_abs, worst_rel, within


def compare(parent: dict, change: dict, bound: tuple[float, float] | None = None) -> tuple[list[str], list[str]]:
    """Lines for the keys that differ, and for the keys that moved within ``bound``.

    Without a bound every differing value differs; exit codes (keys
    ending in ``:rc``) always must be identical.
    """
    differ, moved = [], []
    for key in sorted(parent.keys() | change.keys()):
        if key not in change:
            differ.append(f"{key}: only in the parent tree")
        elif key not in parent:
            differ.append(f"{key}: only in the changed tree")
        elif parent[key] != change[key]:
            move = None if bound is None or key.endswith(":rc") else _move(parent[key], change[key], bound)
            if move is None:
                differ.append(f"{key}: {parent[key]!r} != {change[key]!r}")
            else:
                worst_abs, worst_rel, within = move
                line = f"{key}: moved by {worst_abs:.3g} absolute, {worst_rel:.3g} relative"
                if within:
                    moved.append(line)
                else:
                    differ.append(f"{line}, outside the bound")
    return differ, moved


def by_leaf(lines: list[str]) -> dict[str, int]:
    """The number of ``compare`` lines per leaf path, sorted by path.

    A key's leaf path follows its output name and ``:``, with each list
    index shown as ``*``; a key with no ``:`` (a CSV compared as text) is
    a whole output, shown as ``(whole output)``.
    """
    counts: dict[str, int] = {}
    for line in lines:
        _, sep, leaf = line.split(": ", 1)[0].partition(":")
        leaf = ".".join("*" if part.isdigit() else part for part in leaf.split(".")) if sep else "(whole output)"
        counts[leaf] = counts.get(leaf, 0) + 1
    return dict(sorted(counts.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, nargs="?", help="source tree of the parent commit")
    parser.add_argument("change", type=Path, nargs="?", help="source tree of the change")
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    parser.add_argument(
        "--bound", type=parse_bound, metavar="rel=R,abs=A", help="let numbers move by up to max(R |a|, A)"
    )
    parser.add_argument("--collect", nargs=2, metavar=("TREE", "RESULT"), help=argparse.SUPPRESS)
    parser.add_argument("--csv-text", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cases", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        tree, result = args.collect
        Path(result).write_text(json.dumps(collect(Path(tree).resolve(), args.seed, args.csv_text, args.cases)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT_TREE and CHANGE_TREE are required")

    cases = (args.change / "tests" / "fuzz_cases.json").resolve()
    cases = cases if cases.is_file() else None
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        sides = []
        for label, tree in (("parent", args.parent), ("change", args.change)):
            workdir = Path(tmp) / label / "run"
            workdir.mkdir(parents=True)
            sides.append(_run_tree(tree.resolve(), args.seed, workdir, args.bound is not None, cases))
    diffs, moved = compare(*sides, args.bound)
    for line in diffs + moved:
        print(line)
    if diffs:
        print("differing keys by leaf path:")
    for leaf, count in by_leaf(diffs).items():
        print(f"  {leaf}: {count}")
    summary = f"{len(sides[0])} parent and {len(sides[1])} changed outputs compared; {len(diffs)} differ"
    if args.bound is not None:
        summary += f"; {len(moved)} moved within rel={args.bound[0]:g}, abs={args.bound[1]:g}"
    print(summary)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
