"""Fuzz the 0/1/2 exit-code contract of ``covariant-kit run``.

Hand-written strategies (no ``hypothesis-jsonschema``) draw schema-valid
scenarios of every check kind at small sizes, with extreme widths,
rapidities, finite-difference steps and tolerances among them.  Whatever
the scenario, ``cli.main`` must return 0, 1 or 2 and never raise, and a
0 or 1 must come with a report that validates.  ``fuzz_cases.json`` keeps
a recorded draw of such scenarios with the exit code of each, replayed on
every run.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import validate

from covariant_kit import cli
from covariant_kit.schemas import CHECK_KINDS, REPORT_SCHEMA, TOLERANCE_NAMES

#: Recorded scenarios and their exit codes, replayed below.
FUZZ_CASES = Path(__file__).with_name("fuzz_cases.json")

# A run reports an overflow as a non-finite residual; it must not also warn.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# Any finite double: extreme magnitudes are the point.
NUMBERS = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.sampled_from([1e-300, 1e-200, 1e-155, 1e-150, 1e150, 1e154, 1e200, 1e300]),
)
WIDTHS = st.one_of(st.floats(0.3, 3.0), POSITIVE)
PARAMS = st.one_of(st.floats(-1.0, 1.0), st.floats(-50.0, 50.0), NUMBERS)  # rapidities and angles


def _vector(size, elements=NUMBERS):
    return st.lists(elements, min_size=size, max_size=size)


_TERM = st.fixed_dictionaries(
    {
        "coeff": st.one_of(NUMBERS, _vector(2)),
        "powers": _vector(4, st.integers(0, 3)),
    }
)
# Components of each representation's size, or of any size.
_COMPONENTS = {
    n: st.one_of(
        st.just(n),
        st.lists(st.one_of(st.floats(-2.0, 2.0), st.lists(_TERM, min_size=1, max_size=2)), min_size=n, max_size=n),
        st.integers(1, 4),
    )
    for n in (1, 4)
}
SIZES = {"scalar": 1, "vector": 4, "spinor": 4, "phase": 1}


def _packets(n):
    center = _vector(4, st.one_of(st.floats(-2.0, 2.0), NUMBERS))
    return st.fixed_dictionaries({}, optional={"center": center, "width": WIDTHS, "components": _COMPONENTS[n]})


REPS = st.fixed_dictionaries(
    {"variant": st.sampled_from(list(SIZES))},
    optional={"q": NUMBERS, "e": NUMBERS},
)
SPACETIME_REPS = st.fixed_dictionaries({"variant": st.sampled_from(["vector", "spinor"])})
GROUPS = st.fixed_dictionaries(
    {},
    optional={
        "family": st.sampled_from(["poincare", "frame", "internal"]),
        "omega": _vector(6, PARAMS),
        "a": _vector(4, st.one_of(st.floats(-2.0, 2.0), NUMBERS)),
        "b": NUMBERS,
        "q": NUMBERS,
        "e": NUMBERS,
        "dim": st.integers(2, 32),
        "draws": st.integers(1, 50),
        "seed": st.integers(0, 2**32),
    },
)
GRIDS = st.fixed_dictionaries(
    {
        "counts": _vector(4, st.integers(2, 5)),
        "doublings": st.sampled_from([1, 1, 1, 0]),  # the pairing check needs one
        "sample_count": st.integers(1, 30),
    },
    optional={
        "bounds": st.lists(st.one_of(st.just([-6.0, 6.0]), _vector(2)), min_size=4, max_size=4),
        "sample_seed": st.integers(0, 2**32),
        "sample_box": POSITIVE,
    },
)
FD = st.fixed_dictionaries(
    {},
    optional={
        "step": st.one_of(st.floats(1e-6, 1e-2), POSITIVE),
        "order": st.sampled_from([2, 4]),
        "convergence_steps": st.lists(POSITIVE, max_size=3),
    },
)
TOLERANCES = st.dictionaries(st.sampled_from(TOLERANCE_NAMES), POSITIVE, max_size=4)


@st.composite
def scenarios(draw):
    check = draw(st.sampled_from(CHECK_KINDS))
    scenario = {"check": check}
    for key, strategy in (("rep", REPS), ("group", GROUPS), ("fd", FD), ("tolerances", TOLERANCES)):
        if draw(st.booleans()):
            scenario[key] = draw(strategy)
    # Two transforms in three act by a vector or spinor representation and a rotation or boost.
    if check == "transform" and draw(st.integers(0, 2)) > 0:
        scenario["rep"] = draw(SPACETIME_REPS)
        scenario["group"] = {**scenario.get("group", {}), "omega": draw(_vector(6, PARAMS))}
    packets = _packets(SIZES[scenario.get("rep", {"variant": "scalar"})["variant"]])
    scenario["field"] = draw(st.fixed_dictionaries({"phi": packets, "test": packets}) if check == "pairing" else packets)
    scenario["grid"] = draw(GRIDS)
    scenario["output"] = {"dump_fields": draw(st.booleans())}
    return scenario


def run_scenario(scenario, args=()) -> int:
    """``cli.main``'s exit code for ``scenario``, run in a temporary directory.

    ``scenario`` is any JSON value; an object has its field CSV put in the
    directory.  ``args`` follow the run's own ``--out``, so a later
    ``--out`` among them wins.  A 0 or 1 must come with a report that
    validates.
    """
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if isinstance(scenario, dict):
            scenario = {**scenario, "output": {**scenario.get("output", {}), "field_csv": str(tmp / "field.csv")}}
        path = tmp / "scenario.json"
        path.write_text(json.dumps(scenario))
        argv = ["run", str(path), "--out", str(tmp / "report.json"), *args]
        code = cli.main(argv)
        if code in (0, 1):
            validate(json.loads(Path(cli._parser().parse_args(argv).out).read_text()), REPORT_SCHEMA)
        return code


@settings(derandomize=True, deadline=None, max_examples=200)
@given(scenarios())
def test_every_schema_valid_scenario_exits_0_1_or_2(scenario):
    cli.validate(scenario)
    assert cli._over_budget(scenario) is None
    assert run_scenario(scenario) in (0, 1, 2)


def test_recorded_fuzz_cases_keep_their_exit_codes():
    """Replay ``fuzz_cases.json`` (written by ``tools/fuzz_cases.py``): every exit code as recorded."""
    cases = json.loads(FUZZ_CASES.read_text())
    assert cases
    moved = [(i, case["exit"], run_scenario(case["scenario"], case.get("args", []))) for i, case in enumerate(cases)]
    assert [m for m in moved if m[1] != m[2]] == []
