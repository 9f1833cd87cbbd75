"""One workload in one process: a closed loop with a single client.

Usage (started by run.py, never by hand):
    python child.py PLAN_JSON RESULT_JSON

The working directory is a fresh temporary directory holding the
scenario files; ``transform`` writes its ``field_csv`` relative to it.
Every invocation goes through the public ``covariant_kit.cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import metrics  # noqa: E402
import reference  # noqa: E402
from tracing import Tracer  # noqa: E402

# Reference kernels timed before the first scenario and after each: at
# least 2, and about 1 % of the scenario's own time, so that the samples
# weight each stretch of the run by its length.
REFERENCE_REPS = 2
REFERENCE_SHARE = 0.01


def invoke(cli, entry: dict, out: str, threads: int) -> dict:
    """Run one scenario through cli.main; never raises."""
    argv = ["run", entry["file"], "--threads", str(threads), "--out", out, *entry["args"]]
    stdout, stderr = io.StringIO(), io.StringIO()
    rc, exc = None, None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as err:
            rc = err.code if isinstance(err.code, int) else 2
        except Exception as err:  # a raising cli.main is a failed scenario, not a crash
            exc = f"{type(err).__name__}: {err}"
        latency = time.perf_counter() - start
    report = Path(out)
    return {
        "report_bytes": report.stat().st_size if report.is_file() else 0,
        "name": entry["name"],
        "out": out,
        "rc": rc,
        "exception": exc,
        "latency": latency,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
    }


def run_pass(cli, entries: list, tag: str, threads: int, refs: list | None = None) -> tuple[list, float]:
    """One pass over the list; with ``refs``, bursts of reference kernels are timed between scenarios."""
    start = time.perf_counter()
    records = []
    if refs is not None:
        refs.append(reference.sample(REFERENCE_REPS))
    for i, entry in enumerate(entries):
        out = entry["name"] if entry.get("out_dir") else f"reports/{tag}-{i:03d}.json"
        records.append(invoke(cli, entry, out, threads))
        if refs is not None:
            share = round(REFERENCE_SHARE * records[-1]["latency"] / reference.NOMINAL_S)
            refs.append(reference.sample(max(REFERENCE_REPS, share)))
    return records, time.perf_counter() - start


def closed_loop(cli, entries, seconds, min_passes, threads, refs: list) -> tuple[list, list]:
    """Whole passes over the list until the next one would overrun ``seconds``."""
    passes, walls = [], []
    start = time.perf_counter()
    while True:
        records, wall = run_pass(cli, entries, f"p{len(passes)}", threads, refs)
        passes.append(records)
        walls.append(wall)
        if len(passes) >= min_passes and time.perf_counter() - start + wall > seconds:
            return passes, walls


def machine_blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception as err:  # the layout of show_config differs across numpy versions
        return f"unknown ({type(err).__name__})"


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    result_path = Path(sys.argv[2])
    Path("reports").mkdir()
    for entry in plan["entries"] + plan["probes"] + plan["holes"]:
        if entry.get("out_dir"):
            Path(entry["name"]).mkdir()

    from covariant_kit import cli

    threads, seconds = plan["threads"], plan["seconds"]
    result = {"blas": machine_blas(), "python": platform.python_version()}
    if not plan["trace"]:
        result["reference_s"] = []
        passes, walls = closed_loop(cli, plan["entries"], seconds, plan["min_passes"], threads, result["reference_s"])
        extra = []
    else:
        entries = plan["entries"] + plan["probes"]
        plain, plain_wall = run_pass(cli, entries, "plain", threads)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_wall = run_pass(cli, entries, "traced", threads)
        finally:
            tracer.uninstall()
        speed_idx = next(i for i, e in enumerate(entries) if e["name"] == plan["speedup"])
        single = invoke(cli, entries[speed_idx], "reports/threads1.json", 1)
        passes, walls = [plain, traced], [plain_wall, traced_wall]
        extra = [single]
        result["layers"] = metrics.layer_metrics(tracer, traced, traced_wall)
        result["layers"]["fields.pairing.threads_speedup"] = single["latency"] / plain[speed_idx]["latency"]
        result["layers"]["trace.overhead_ratio"] = traced_wall / plain_wall
        result["spans"] = tracer.spans
    result["rss_peak_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    holes = [invoke(cli, h, h["name"] if h.get("out_dir") else f"reports/{h['name']}.json", threads)
             for h in plan["holes"]]
    verdicts = checks.check_run(plan, passes, extra, holes)
    result.update(passes=[[r["latency"] for r in p] for p in passes], walls=walls, verdicts=verdicts)
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
