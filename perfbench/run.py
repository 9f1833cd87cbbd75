"""Seeded scenario benchmark for covariant-kit.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload {quadrature,relations,corpus}
                             --seed N --seconds S --trace {0,1}

The driver generates the workload's scenario files from the seed in a
fresh directory under ``.perfbench_run/``, then starts one child process
(perfbench/child.py) that runs them as a closed loop with one client
through the public ``covariant_kit.cli.main``, with ``--threads`` set to
nproc capped at 2 and BLAS/OpenMP pools pinned to one thread.  Every
output is checked (see checks.py).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the list
once untraced and once with spans around each layer and reports the
per-layer metrics (see metrics.py).  The spans of the last traced run of
each workload are written to ``.perfbench_run/<workload>.spans.json``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER, percentile  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_IMPORTS = 7  # cold imports per run; setup_s is their median
DEADLINE_S = 170.0  # a run must end within 180 s
PINNED_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = PINNED_THREADS
    return env


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpuinfo(key: str) -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


def machine(blas: str, py: str) -> dict:
    return {
        "nproc": nproc(),
        "cpu_model": _cpuinfo("model name"),
        "llc_size": _cpuinfo("cache size"),
        "python": py,
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas": blas,
        "pinned_threads": {var: PINNED_THREADS for var in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def setup_seconds(deadline: float) -> list:
    """Cold ``import covariant_kit.cli`` in fresh interpreters (one warm-up first)."""
    code = "import time; t = time.perf_counter(); import covariant_kit.cli; print(time.perf_counter() - t)"
    times = []
    for i in range(SETUP_IMPORTS + 1):
        out = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), cwd=ROOT, capture_output=True,
            text=True, timeout=max(1.0, deadline - time.monotonic()), check=True,
        )
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def run_child(plan: dict, work: Path, deadline: float) -> dict:
    (work / "plan.json").write_text(json.dumps(plan))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "plan.json", "result.json"],
        cwd=work, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("the workload process overran the run deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"the workload process exited {proc.returncode}:\n{out}{err}")
    return json.loads((work / "result.json").read_text())


def _print_metric(name: str, value, unit: str, note: str = "") -> None:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<48} {shown:>14} {unit:<7} {note}".rstrip())


def end_to_end(res: dict, setup_times: list) -> dict:
    # One latency per scenario, its median over the passes, scaled to the
    # reference speed of the host (reference.py explains why).
    raw = [statistics.median(col) for col in zip(*res["passes"])]
    speed = reference.speed_factor(res["reference_s"])
    latencies = [t / speed for t in raw]
    print(f"  host speed vs reference: x{1 / speed:.4f} from {len(res['reference_s'])} bursts"
          f" (1 below {reference.MIN_BURSTS}); raw wall {sum(raw):.6g} s")
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(latencies),
        "scenario_s.p50": percentile(latencies, 0.5),
        "scenario_s.p90": percentile(latencies, 0.9),
        "rss_peak_mb": res["rss_peak_kb"] / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} imports",
        "wall_s": f"{len(res['passes'])} passes (raw pass walls {', '.join(f'{w:.3f}' for w in res['walls'])})",
        "scenario_s.p50": f"n={len(latencies)} scenarios",
        "scenario_s.p90": f"n={len(latencies)} scenarios",
    }
    for name, unit, _, _ in END_TO_END:
        _print_metric(name, values[name], unit, notes.get(name, ""))
    return values


def per_layer(res: dict, error_rate: float, holes_open: int) -> tuple[dict, bool]:
    layers = dict(res["layers"], error_rate=error_rate)
    layers["contract.holes_open"] = holes_open
    consistent = layers["trace.self_sum_s"] <= layers["trace.wall_s"]
    print(f"  summed self time {layers['trace.self_sum_s']:.6g} s"
          f" {'<=' if consistent else 'EXCEEDS'} traced wall {layers['trace.wall_s']:.6g} s")
    for name, unit, _, moves in PER_LAYER:
        _print_metric(name, layers[name], unit, f"moves {moves}")
    return layers, consistent


def report(args, wl, plan, res, setup) -> tuple[bool, int, int, dict]:
    verdicts = res["verdicts"]
    holes_open = [name for name, why in verdicts["holes"] if why]
    attempted, failed = verdicts["attempted"], verdicts["failed"]
    known = verdicts["known"]
    error_rate = (failed + len(known) + len(holes_open)) / (attempted + len(verdicts["holes"]))
    print(f"machine: {json.dumps(machine(res['blas'], res['python']), sort_keys=True)}")
    print(f"workload {wl.name} seed {wl.seed} trace {args.trace}: {len(plan['entries'])} scenarios per pass"
          f" (+{len(plan['probes'])} layer probes traced), {len(res['passes'])} passes,"
          f" --threads {plan['threads']}, closed loop, 1 client")
    for name, why in verdicts["failures"][:20]:
        print(f"  FAILED {name}: {why}")
    for name, why in known:
        print(f"  known defect {name}: {why} (counted in error_rate, not in failed)")
    for name, why in verdicts["holes"]:
        print(f"  contract hole {name}: {'still open: ' + why if why else 'closed'}")
    if verdicts["oracle_max_rel"]:
        print(f"  pairing vs closed form: worst relative error {verdicts['oracle_max_rel']:.3g}")
    print(f"  error_rate {error_rate:.6g} = ({failed} failed + {len(known)} known defects + {len(holes_open)} open holes)"
          f" / ({attempted} attempted + {len(verdicts['holes'])} hole probes)")
    correct = failed == 0
    if args.trace:
        values, consistent = per_layer(res, error_rate, len(holes_open))
        correct = correct and consistent
        listed = PER_LAYER
    else:
        values, listed = end_to_end(res, setup), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in listed}
    return correct, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "covariant_kit" / "cli.py").is_file():
        print(f"perfbench: no covariant_kit sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    wl = workloads.generate(args.workload, args.seed)
    plan = {
        "entries": [], "probes": [], "holes": [],
        "threads": min(2, nproc()), "seconds": args.seconds, "trace": args.trace,
        "min_passes": wl.min_passes, "speedup": wl.speedup,
    }
    RUN_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=RUN_DIR))
    try:
        for key in ("entries", "probes", "holes"):
            for entry in getattr(wl, key):
                (work / entry.file).write_text(entry.text)
                plan[key].append(dict(vars(entry), file=entry.file))
        setup = [] if args.trace else setup_seconds(deadline)
        res = run_child(plan, work, deadline)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        (RUN_DIR / f"{wl.name}.spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "count"], "spans": res.pop("spans")}))
    correct, attempted, failed, metrics = report(args, wl, plan, res, setup)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
