"""One workload process: runs the points of a plan through gaussbath.cli.main.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json

The parent (run.py) pins the BLAS thread count in this process's environment
before numpy is imported here.  Passes run back to back for the plan's
number of seconds.  With tracing on, untraced and traced passes alternate, so
both times come from this process and their difference is the tracing
overhead.  The worker only times and records; run.py checks the outputs.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _run_pass(cli, points):
    """One pass over every point; returns (wall, per-point records)."""
    records = []
    start = time.perf_counter()
    for point in points:
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                status = cli.main(point["argv"])
            except SystemExit as exc:
                status = exc.code
            except Exception as exc:  # a failed point is recorded, not fatal
                status = f"{type(exc).__name__}: {exc}"
        records.append({"seconds": time.perf_counter() - t0, "status": status,
                        "messages": sink.getvalue()[-2000:]})
    return time.perf_counter() - start, records


def _digest(path):
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


def main(plan_path, result_path):
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    import numpy
    import scipy

    import gaussbath
    import gaussbath.cli
    from spans import Tracer

    points = plan["points"]
    passes = []
    all_spans = []
    deadline = time.perf_counter() + plan["seconds"]
    while True:
        traced = plan["trace"] and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        try:
            wall, records = _run_pass(gaussbath.cli, points)
        finally:
            if tracer is not None:
                tracer.uninstall()
        record = {"traced": traced, "wall": wall, "points": records,
                  "digests": [_digest(p["out"]) for p in points]}
        if tracer is not None:
            record["layers"] = tracer.summary(wall)
            record["missing"] = tracer.missing
            all_spans.append(tracer.spans)
        passes.append(record)
        # stop before a pass that would end past the deadline
        enough = len(passes) >= (2 if plan["trace"] else 1)
        if enough and time.perf_counter() + wall > deadline:
            break

    result = {
        "gaussbath_file": gaussbath.__file__,
        "backend": getattr(gaussbath, "backend_name", lambda: "n/a")(),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "passes": passes,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    if all_spans:
        Path(result_path).with_name("spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "passes": all_spans}), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:3])
