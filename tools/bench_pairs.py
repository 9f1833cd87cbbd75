"""Run the benchmark of two source trees in alternating pairs and summarise it.

Usage:
    python tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W
                                --pairs N --seconds S --seed0 K

Pair ``i`` (0 to N-1) runs, in each tree with that tree's own
``perfbench/run.py``,

    python3 perfbench/run.py --workload W --seed K+i --seconds S --trace 0

one tree after the other: the parent first in even pairs and the change
first in odd ones, so neither side always meets a warmer machine.  Each run
prints a progress line on stderr.

The last line of stdout is one JSON object: the workload, seeds and
per-run ``correct``/``failed`` of both sides, and for each end-to-end
metric each side's values, quartiles (q1, median, q3, linear
interpolation), the parent's IQR, the change's wins and losses over the
pairs (ties count as neither), ``claim_met``: the change won at least
nine pairs in ten and its median is better than the parent's by more than
the parent's IQR, ``within_bound``: the change's median is worse than
the parent's by at most the metric's relative ``bound`` times the parent's
median, and ``unresolved``: the parent's IQR is wider than that allowance,
so the medians cannot show a regression, and not every change run beats
every parent run (both ``null`` for a metric without a bound).  A
``within_bound`` verdict on an ``unresolved`` metric reads as unresolved,
not as unchanged.  A metric is better lower
unless the change tree's ``BENCHMARK.json`` says ``"better": "higher"``,
and its bound is the one that file gives it.  The exit code is 0 when
every run printed its JSON and said ``correct``, else 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list) -> list:
    """q1, median and q3 of ``values``, interpolated linearly between order statistics."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarise(parent: list, change: list, better: str = "lower", bound: float | None = None) -> dict:
    """One metric's pairwise comparison; ``parent[i]`` and ``change[i]`` are pair i's values."""
    if len(parent) != len(change) or not parent:
        raise ValueError("both sides need one value per pair")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    iqr = pq[2] - pq[0]
    beats_every_parent_run = max(sign * c for c in change) < min(sign * p for p in parent)
    return {
        "parent": parent,
        "change": change,
        "parent_q1_median_q3": pq,
        "change_q1_median_q3": cq,
        "parent_iqr": iqr,
        "change_over_parent_median": cq[1] / pq[1] if pq[1] else None,
        "change_wins": wins,
        "change_losses": losses,
        "claim_met": 10 * wins >= 9 * len(parent) and sign * (pq[1] - cq[1]) > iqr,
        "within_bound": None if bound is None else sign * (cq[1] - pq[1]) <= bound * abs(pq[1]),
        "unresolved": None if bound is None else iqr > bound * abs(pq[1]) and not beats_every_parent_run,
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run of ``tree``; its last stdout line, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: perfbench exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def rules(tree: Path) -> dict:
    """Metric name -> (better, bound), from the tree's BENCHMARK.json when it has one."""
    path = tree / "BENCHMARK.json"
    if not path.is_file():
        return {}
    metrics = json.loads(path.read_text()).get("end_to_end", [])
    return {m["name"]: (m.get("better", "lower"), m.get("bound")) for m in metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seeds = [args.seed0 + i for i in range(args.pairs)]
    runs = {side: [] for side in sides}
    try:
        for i, seed in enumerate(seeds):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                result = run_once(sides[side], args.workload, seed, args.seconds)
                runs[side].append(result)
                print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: correct={result['correct']}", file=sys.stderr)
    except (RuntimeError, OSError, ValueError) as err:
        print(f"bench_pairs: {err}", file=sys.stderr)
        return 1
    rule = rules(sides["change"])
    names = [name for name in runs["parent"][0]["metrics"] if name in runs["change"][0]["metrics"]]
    metrics = {
        name: summarise(*([r["metrics"][name]["value"] for r in runs[side]] for side in sides), *rule.get(name, ()))
        for name in names
    }
    print(json.dumps({
        "workload": args.workload,
        "seconds": args.seconds,
        "seeds": seeds,
        "correct": {side: [r["correct"] for r in runs[side]] for side in sides},
        "failed": {side: [r["failed"] for r in runs[side]] for side in sides},
        "metrics": metrics,
    }))
    return 0 if all(r["correct"] for side in sides for r in runs[side]) else 1


if __name__ == "__main__":
    sys.exit(main())
