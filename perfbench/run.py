"""gaussbath benchmark: time to a converged solution, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ohmic_deep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py            # every workload in turn, seed 0

Each workload (see workloads.py) is a list of gaussbath CLI calls made
in-process through ``gaussbath.cli.main`` by one worker process with the BLAS
thread count pinned to one.  The worker repeats the list for ``--seconds``.
Afterwards this process checks every output against gaussbath's independent
oracles, untimed, and prints one line per metric and, last, one JSON object.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: ``setup_s``
(median over fresh interpreters of the time to import gaussbath and
gaussbath.cli), ``run_s`` (median wall time of one pass over the workload),
``point_s.p50`` (median wall time of one CLI call) and ``peak_rss_mb`` (peak
resident memory of the worker).  --trace 1 alternates untraced and traced
passes and reports the per-layer metrics: self time and counts at each
module boundary (spans.py), the tracing overhead and ``oracle_err``.  Both
modes also print ``oracle_err`` (largest |u|^2 error of a finite-ring
Volterra point against the exact lattice) and ``failed_frac``.

Exit code 0 when every check passes, 1 when a check fails (the result is
still printed), 2 when the checkout holds no gaussbath sources.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, make_points

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
SETUP_CODE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import gaussbath, gaussbath.cli\n"
    "print(time.perf_counter() - start)\n"
)
WORKER_GRACE_S = 120


def _pinned_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)  # gaussbath comes from this checkout's src/ only
    return env


def _definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _measure_setup(env):
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout))
    return samples


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text(encoding="utf-8").strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _median_layers(passes):
    layers = [p["layers"] for p in passes if p["traced"]]
    return {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns (correct, attempted, failed, metrics)."""
    end_to_end, per_layer = _definitions()
    workdir = OUT / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    points = make_points(name, seed, workdir)
    env = _pinned_env()

    setup_samples = [] if trace else _measure_setup(env)
    plan, result_path = workdir / "plan.json", workdir / "result.json"
    plan.write_text(json.dumps({"src": str(SRC), "seconds": seconds, "trace": trace,
                                "points": points}), encoding="utf-8")
    worker = subprocess.run([sys.executable, str(Path(__file__).with_name("worker.py")),
                             str(plan), str(result_path)],
                            env=env, cwd=ROOT, timeout=seconds + WORKER_GRACE_S)
    if worker.returncode != 0:
        print(f"{name}: worker exited with {worker.returncode}", file=sys.stderr)
        return False, len(points), len(points), {}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    passes = result["passes"]

    from checks import check_point  # imports gaussbath from SRC, which main() put on sys.path

    problems, errors = [], []
    failed = 0
    for i, point in enumerate(points):
        point_problems, err = check_point(point)
        if err is not None:
            errors.append(err)
        problems += [f"{point['name']}: {p}" for p in point_problems]
        final_digest = passes[-1]["digests"][i]
        for p in passes:
            record = p["points"][i]
            bad_run = record["status"] != 0 or p["digests"][i] != final_digest
            if record["status"] != 0:
                problems.append(f"{point['name']}: status {record['status']!r}, "
                                f"{record['messages'].strip()[-300:]!r}")
            elif bad_run:
                problems.append(f"{point['name']}: output bytes differ between passes")
            failed += bool(point_problems) or bad_run
    attempted = len(points) * len(passes)
    if not Path(result["gaussbath_file"]).resolve().is_relative_to(SRC.resolve()):
        problems.append(f"gaussbath imported from {result['gaussbath_file']}, not {SRC}")
        failed = attempted

    untraced = [p for p in passes if not p["traced"]]
    point_s = [r["seconds"] for p in untraced for r in p["points"]]
    run_s = statistics.median(p["wall"] for p in untraced)
    oracle_err = max(errors, default=0.0)
    if trace:
        metrics = _median_layers(passes)
        metrics["trace.run_s"] = statistics.median(p["wall"] for p in passes if p["traced"])
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - run_s
        metrics["oracle_err"] = oracle_err
        units = per_layer
        for missing in sorted({m for p in passes for m in p.get("missing", ())}):
            print(f"warning: {missing} not found, its layer reads 0", file=sys.stderr)
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "run_s": run_s,
            "point_s.p50": statistics.median(point_s),
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        }
        units = end_to_end
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "threads": {var: env[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(), "cpu": _cpu_model(), **result["versions"],
        "commit": _commit(), "backend": result["backend"],
        "passes": len(passes), "points": len(points), "point_samples": len(point_s),
        "setup_samples": [round(x, 4) for x in setup_samples],
    }
    print("# " + json.dumps(meta))
    for problem in problems:
        print(f"FAIL {name}: {problem}")
    shown = {"oracle_err": oracle_err, **metrics, "failed_frac": failed / attempted}
    for metric, value in shown.items():
        print(f"{name:14s} {metric:40s} {value:.6g} {units.get(metric, '1')}")
    reported = {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}
    return failed == 0, attempted, failed, reported


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gaussbath" / "cli.py").is_file():
        print(f"no gaussbath sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before checks.py imports numpy in this process
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, a, f, m = run_workload(name, args.seed, args.seconds, bool(args.trace))
        correct, attempted, failed = correct and ok, attempted + a, failed + f
        metrics.update({f"{name}.{k}": v for k, v in m.items()} if len(names) > 1 else m)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
