"""Record the fuzz corpus ``tests/fuzz_cases.json`` of ``covariant-kit run``.

Usage:
    python tools/fuzz_cases.py draw N
    python tools/fuzz_cases.py add FILE [FILE ...] [--args JSON_LIST]

``draw N`` replaces the corpus with N scenarios drawn, derandomized, from
``tests/test_cli_fuzz.py::scenarios()``, none filtered by outcome.  ``add``
appends scenario files to it, such as a scenario the fuzz test found; a
file may hold any JSON value, not only an object.  ``--args`` gives the
command-line arguments that follow the run's own, as a JSON list of
strings, e.g. ``'["--override", "rep.q=2"]'``; a later ``--out`` wins.
Each case is stored as ``{"scenario": ..., "args": [...], "exit": code}``
(``args`` only when given), one per line, the code being what
``cli.main`` returns for it in this tree (whose ``src`` is imported).
``tests/test_cli_fuzz.py`` replays every case and
``tools/compare_outputs.py`` runs them in both trees it compares.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "fuzz_cases.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_cli_fuzz  # noqa: E402  (needs the paths above)


def record(scenarios: list, args: list | None = None) -> list:
    """Each scenario with ``args`` and the exit code of its run, the run's printing silenced."""
    cases = []
    for scenario in scenarios:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = test_cli_fuzz.run_scenario(scenario, args or [])
        cases.append({"scenario": scenario, **({"args": args} if args else {}), "exit": code})
    return cases


def arg_list(text: str) -> list:
    """``--args``: a JSON list of strings."""
    value = json.loads(text)
    if not isinstance(value, list) or not all(isinstance(a, str) for a in value):
        raise argparse.ArgumentTypeError(f"expected a JSON list of strings, got {text!r}")
    return value


def draw(n: int) -> list:
    """The first n scenarios of a derandomized run of the fuzz strategy."""
    from hypothesis import Phase, given, settings

    drawn = []

    @settings(derandomize=True, deadline=None, max_examples=n, database=None, phases=[Phase.generate])
    @given(test_cli_fuzz.scenarios())
    def keep(scenario):
        drawn.append(json.loads(json.dumps(scenario)))

    keep()
    return drawn


def write(cases: list) -> None:
    CORPUS.write_text("[\n" + ",\n".join(json.dumps(case) for case in cases) + "\n]\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("draw", help="replace the corpus with N drawn scenarios").add_argument("n", type=int)
    add = sub.add_parser("add", help="append scenario files to the corpus")
    add.add_argument("files", nargs="+", type=Path)
    add.add_argument("--args", type=arg_list, help="command-line arguments of the runs, as a JSON list of strings")
    args = parser.parse_args(argv)
    if args.command == "draw":
        cases = record(draw(args.n))
    else:
        cases = json.loads(CORPUS.read_text()) + record([json.loads(f.read_text()) for f in args.files], args.args)
    write(cases)
    codes = [case["exit"] for case in cases]
    counts = ", ".join(f"{codes.count(c)} exit {c}" for c in (0, 1, 2))
    print(f"{CORPUS.relative_to(ROOT)}: {len(cases)} cases; {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
