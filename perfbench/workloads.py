"""Seeded scenario generation for the three benchmark workloads.

Every workload is a list of entries.  An entry is one CLI invocation: the
scenario file text, extra command-line arguments, the exit code the
README/ROADMAP contract expects, and what the checker must verify.  Only
the scenario files and arguments reach the program.

Costs are kept independent of the seed: the seed draws packet centres,
widths, amplitudes, group elements, RNG seeds and the order of the list,
while the mix of check kinds and the sizes (sample counts, grid counts,
toy dimensions) come from fixed multisets.  Seed-to-seed spread of the
timings is then run-to-run noise, not a different amount of work.

Besides its timed list, a workload may carry ``probes``: scenarios run
only in traced runs, so that every traced layer has measured spans on
every workload (a layer that never runs would report a constant zero).
The corpus workload also carries ``holes``: inputs on which the current
program breaks its exit-code contract (ROADMAP item 2).  They are run in
every corpus run and counted in ``error_rate``, but kept out of the
timed list so that a passing run has no failed operation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("quadrature", "relations", "corpus")

# Production quadrature grid: 9^4 refined three times to 65^4 on [-7, 7]^4,
# as in scenarios/pairing_invariance.json and acceptance criteria 05/10.
PRODUCTION_GRID = {"bounds": [[-7, 7]] * 4, "counts": [9] * 4, "doublings": 3}
# Small grid for pairing scenarios outside the quadrature workload.
SMALL_GRID = {"bounds": [[-6, 6]] * 4, "counts": [9] * 4, "doublings": 1}
# Per grid: packet widths, tolerances (convergence, invariance) and the
# relative bound of the finest values against the closed form.  65^4 at
# step 0.22 is exact to roundoff (about 1e-15 measured).  The small grid
# only reaches the layer: at step 0.75 wide packets keep a trapezoid error
# near 1e-4, and the 9^4 level is off by several per cent.
PAIRING = {
    "production": {"grid": PRODUCTION_GRID, "widths": (0.9, 1.2), "tol": (1e-7, 1e-6), "bound": 1e-10},
    "small": {"grid": SMALL_GRID, "widths": (1.3, 1.6), "tol": (0.5, 1e-3), "bound": 1e-3},
}

CONVERGENCE_STEPS = [4e-3, 2e-3, 1e-3]
LARGE_SAMPLES = 20000


@dataclass
class Entry:
    """One CLI invocation of a workload."""

    name: str
    text: str
    expect: int
    args: list = field(default_factory=list)
    oracle_bound: float | None = None  # pairing: relative bound vs closed form
    csv_rows: int | None = None  # transform with dump_fields: expected data rows
    out_dir: bool = False  # pass a directory as --out

    @property
    def file(self) -> str:
        return f"{self.name}.json"


@dataclass
class Workload:
    name: str
    seed: int
    entries: list
    probes: list = field(default_factory=list)
    holes: list = field(default_factory=list)
    speedup: str = ""  # entry name rerun at --threads 1 in traced runs
    min_passes: int = 2


def _dump(scenario: dict) -> str:
    return json.dumps(scenario, indent=1) + "\n"


def _r(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _vec(rng: random.Random, n: int, lo: float, hi: float) -> list:
    return [_r(rng, lo, hi) for _ in range(n)]


def _packet(rng: random.Random, n: int, monomials: bool, width=(0.9, 1.3)) -> dict:
    """Gaussian packet; with ``monomials`` each component is 1 + c * y^p."""
    pkt = {"center": _vec(rng, 4, -0.3, 0.3), "width": _r(rng, *width)}
    if monomials:
        comps = []
        for _ in range(n):
            powers = [0, 0, 0, 0]
            for _ in range(rng.choice((1, 2))):
                powers[rng.randrange(4)] += 1
            coeff = [_r(rng, -0.5, 0.5), _r(rng, -0.5, 0.5)]
            comps.append([{"coeff": 1.0, "powers": [0, 0, 0, 0]}, {"coeff": coeff, "powers": powers}])
        pkt["components"] = comps
    else:
        pkt["components"] = [_r(rng, 0.5, 1.5) for _ in range(n)]
    return pkt


def _group(rng: random.Random, rapidity: float, shift: float) -> dict:
    return {"omega": _vec(rng, 6, -rapidity, rapidity), "a": _vec(rng, 4, -shift, shift)}


def _spread(lo: int, hi: int, count: int) -> list:
    """``count`` integers evenly spaced over [lo, hi]: a fixed multiset."""
    return [round(lo + (hi - lo) * i / (count - 1)) for i in range(count)]


def pairing_scenario(rng, variant: str, n: int, kind: str, invariance: bool = True) -> dict:
    """Refinement ladder; with ``invariance`` also both sides of the law at the finest level."""
    spec = PAIRING[kind]
    conv_tol, inv_tol = spec["tol"]
    scenario = {
        "check": "pairing",
        "rep": {"variant": variant},
        "field": {
            "phi": _packet(rng, n, False, spec["widths"]),
            "test": _packet(rng, n, False, spec["widths"]),
        },
        "grid": dict(spec["grid"]),
        "tolerances": {"pairing": inv_tol, "pairing_convergence": conv_tol},
    }
    if invariance:
        scenario["group"] = _group(rng, 0.3, 0.5)
    return scenario


def verify_scenario(rng, kind: str, variant: str, samples: int) -> dict:
    n = 4 if variant in ("vector", "spinor") else 1
    rep = {"variant": variant}
    if variant == "phase":
        rep.update(q=_r(rng, 0.5, 3.0), e=_r(rng, 0.5, 2.0))
    if kind == "verify-local":
        family = "internal" if variant == "phase" else "poincare"
        fd = {"step": 1e-4, "order": 2, "convergence_steps": list(CONVERGENCE_STEPS)}
        tol = {"local": 1e-6}
    else:
        family = "frame"
        fd = {"step": 1e-4, "order": 2}
        tol = {"bundle": 1e-8}
    return {
        "check": kind,
        "rep": rep,
        "field": _packet(rng, n, True),
        "group": {"family": family},
        "grid": {"sample_count": samples, "sample_seed": rng.randrange(2**31)},
        "fd": fd,
        "tolerances": tol,
    }


def transform_scenario(rng, variant: str, count: int, csv: str) -> dict:
    n = 4 if variant == "vector" else 1
    return {
        "check": "transform",
        "rep": {"variant": variant},
        "field": _packet(rng, n, True),
        "group": _group(rng, 0.5, 1.0),
        "grid": {"bounds": [[-2, 2]] * 4, "counts": [count] * 4},
        "tolerances": {"roundtrip": 1e-10, "gradient": 1e-6},
        "output": {"dump_fields": True, "field_csv": csv},
    }


def toy_scenario(rng, dim: int) -> dict:
    return {
        "check": "toy",
        "group": {"dim": dim, "q": _r(rng, 0.5, 3.0), "e": _r(rng, 0.5, 2.0), "b": _r(rng, 0.1, 0.5)},
        "tolerances": {"commutator": 1e-12, "conjugation": 1e-10, "groupoid": 1e-10},
    }


def failing_scenario(rng) -> dict:
    """verify-local at tolerance 1e-20: always fails its tolerance (exit 1)."""
    scn = verify_scenario(rng, "verify-local", "scalar", 50)
    scn["fd"].pop("convergence_steps")
    scn["tolerances"] = {"local": 1e-20}
    return scn


class _Builder:
    def __init__(self, prefix: str):
        self.prefix = prefix
        self.items = []

    def add(self, tag: str, scenario_or_text, expect: int = 0, **kw) -> Entry:
        text = scenario_or_text if isinstance(scenario_or_text, str) else _dump(scenario_or_text)
        entry = Entry(f"{self.prefix}{len(self.items):03d}-{tag}", text, expect, **kw)
        self.items.append(entry)
        return entry

    def pairing(self, tag, rng, variant, n, kind, invariance=True):
        scenario = pairing_scenario(rng, variant, n, kind, invariance)
        return self.add(tag, scenario, oracle_bound=PAIRING[kind]["bound"])

    def transform(self, tag, rng, variant, count):
        name = f"{self.prefix}{len(self.items):03d}-{tag}"
        return self.add(tag, transform_scenario(rng, variant, count, f"{name}.csv"), csv_rows=count**4)


def _probes(rng, kinds) -> list:
    """Small scenarios that reach the layers a workload otherwise never calls."""
    b = _Builder("probe")
    if "pairing" in kinds:
        b.pairing("pairing", rng, "scalar", 1, "small")
    if "verify" in kinds:
        b.add("verify-local", verify_scenario(rng, "verify-local", "spinor", 50))
        b.add("verify-bundle", verify_scenario(rng, "verify-bundle", "vector", 50))
    b.add("toy", toy_scenario(rng, 8))
    b.transform("transform", rng, "vector", 4)
    return b.items


def quadrature(seed: int) -> Workload:
    rng = random.Random(f"quadrature:{seed}")
    b = _Builder("q")
    b.pairing("pairing-scalar", rng, "scalar", 1, "production")
    # The 4-component pair runs the ladder only: its two invariance sides
    # would add 18 s per pass to a run budget that the other workloads share.
    b.pairing("pairing-spinor-ladder", rng, "spinor", 4, "production", invariance=False)
    return Workload("quadrature", seed, b.items, _probes(rng, ("verify",)),
                    speedup=b.items[0].name, min_passes=1)


def relations(seed: int) -> Workload:
    rng = random.Random(f"relations:{seed}")
    kinds = [
        ("verify-local", "scalar"),
        ("verify-local", "vector"),
        ("verify-local", "spinor"),
        ("verify-local", "phase"),
        ("verify-bundle", "vector"),
        ("verify-bundle", "spinor"),
    ]
    plan = [(k, v, s) for k, v in kinds for s in _spread(50, 200, 15)]
    # A large vector or spinor verify-local costs about 1 s, so there is one
    # of each and two of every other kind: the pass stays near 10 s.
    large = [kinds[1], kinds[2]] + [k for k in kinds if k not in kinds[1:3]] * 2
    plan += [(k, v, LARGE_SAMPLES) for k, v in large]
    rng.shuffle(plan)
    b = _Builder("r")
    for kind, variant, samples in plan:
        b.add(f"{kind}-{variant}-{samples}", verify_scenario(rng, kind, variant, samples))
    probes = _probes(rng, ("pairing",))
    return Workload("relations", seed, b.items, probes, speedup=probes[0].name)


def _malformed(rng) -> str:
    """A valid scenario cut short: a JSON syntax error (exit 2)."""
    text = _dump(toy_scenario(rng, 8))
    return text[: rng.randrange(5, len(text) - 5)]


def _schema_invalid(rng, i: int) -> dict:
    """Parses as JSON but violates SCENARIO_SCHEMA (exit 2)."""
    bad = [
        {"check": "verify-everything", "tolerances": {"local": 1e-6}},
        {"check": "toy", "group": {"dim": 1}},
        {"check": "transform", "grid": {"counts": [1, 4, 4, 4]}},
        {"check": "rep-check", "rep": {"variant": "tensor"}},
    ]
    scn = dict(bad[i % len(bad)])
    scn["tolerances"] = {"local": _r(rng, 1e-7, 1e-5)}
    return scn


def corpus(seed: int) -> Workload:
    rng = random.Random(f"corpus:{seed}")
    plan = [("group", d) for d in (100, 200, 300, 400) for _ in range(5)]
    plan += [("rep", v) for v in ("scalar", "spinor") for _ in range(10)]
    plan += [("toy", d) for d in _spread(8, 64, 20)]
    plan += [("transform", (v, c)) for c in range(4, 13) for v in ("scalar", "vector")]
    plan += [("transform", ("vector", 8)), ("transform", ("scalar", 8))]
    plan += [("failing", None), ("malformed", None), ("schema", None)] * 4
    plan += [("verify-local", "phase")] * 3 + [("verify-bundle", "spinor")] * 3
    plan += [("pairing", None)] * 2
    rng.shuffle(plan)
    b = _Builder("c")
    speedup = ""
    for i, (tag, arg) in enumerate(plan):
        if tag == "group":
            b.add(f"group-check-{arg}", {"check": "group-check", "group": {"draws": arg, "seed": rng.randrange(2**31)}})
        elif tag == "rep":
            b.add(f"rep-check-{arg}", {"check": "rep-check", "rep": {"variant": arg}, "group": {"seed": rng.randrange(2**31)}})
        elif tag == "toy":
            b.add(f"toy-{arg}", toy_scenario(rng, arg))
        elif tag == "transform":
            b.transform(f"transform-{arg[0]}-{arg[1]}", rng, arg[0], arg[1])
        elif tag == "failing":
            b.add("failing-tolerance", failing_scenario(rng), expect=1)
        elif tag == "malformed":
            b.add("malformed", _malformed(rng), expect=2)
        elif tag == "schema":
            b.add("schema-invalid", _schema_invalid(rng, i), expect=2)
        elif tag in ("verify-local", "verify-bundle"):
            b.add(f"{tag}-{arg}", verify_scenario(rng, tag, arg, 120))
        else:
            speedup = b.pairing("pairing-small", rng, "scalar", 1, "small").name
    return Workload("corpus", seed, b.items, holes=holes(rng), speedup=speedup)


def holes(rng) -> list:
    """ROADMAP item 2 inputs that must exit 2 but do not today.

    The absurd-size grid is left out: running it allocates until it fails.
    """
    b = _Builder("hole")
    b.add("out-is-directory", {"check": "rep-check", "rep": {"variant": "scalar"}}, expect=2, out_dir=True)
    scn = transform_scenario(rng, "scalar", 4, "missing-dir/field.csv")
    b.add("csv-in-missing-dir", scn, expect=2)
    b.add("override-infinity", failing_scenario(rng), expect=2, args=["--override", "tolerances.local=Infinity"])
    return b.items


def generate(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return {"quadrature": quadrature, "relations": relations, "corpus": corpus}[name](seed)
