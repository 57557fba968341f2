"""Run one floppynet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload decompose_control --seed 1 --seconds 45 --trace 0

Run from the repository root; floppynet is imported from ``src/``.  The run
imports floppynet three times (once itself, twice in fresh interpreters) and
builds its inputs and warms up every layer three times, and bills the two
medians to ``setup_s``; then it runs whole rounds of items back to back until
``--seconds`` of item time is spent, checking every output.  With
``--trace 0`` the last line holds the end-to-end metrics, with ``--trace 1``
the per-layer ones.  ``--workload all`` runs every workload, each in its own
process, and prints a table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
NAMES = ("decompose_control", "rigidify_predict")

#: BLAS threads the run allows itself (at most ``nproc``); one thread keeps
#: dense SVD times steady and avoids the slow first calls of a cold pool.
BLAS_THREADS = 1

#: Set-ups per run.  The first import is the run's own, the others are timed
#: in fresh interpreters; ``setup_s`` is the median import time plus the
#: median time of the set-ups (inputs and warm-up).
SETUP_REPS = 3


def git_commit() -> str:
    """The checked-out commit, or "unknown" outside a git work tree."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "process_threads": threads,
    }


def tail(times: list[float]):
    """Highest percentile with at least ten items beyond it (None below 40 items)."""
    n = len(times)
    if n < 40:
        return None
    return math.floor(100 * (n - 10) / n), sorted(times)[n - 11]


def import_times(reps: int) -> list[float]:
    """Import time of the benchmark's modules, floppynet with them, in fresh interpreters."""
    code = ("import time; t0 = time.perf_counter(); import perfbench.workloads; "
            "print(time.perf_counter() - t0)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    times = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    t0 = time.perf_counter()
    from perfbench import tracing, workloads
    imports = [time.perf_counter() - t0] + import_times(SETUP_REPS - 1)

    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[name]()
        items = wl.inputs(seed, 0)
        wl.warm_up()
        setups.append(time.perf_counter() - t0)

    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    times, problems, errors = [], [], []
    failed = rounds = 0
    spent = 0.0
    try:
        while True:
            for item in items:
                if tracer:
                    tracer.begin_item(len(times))
                t0 = time.perf_counter()
                try:
                    out = wl.run(item)
                except Exception:
                    dt = time.perf_counter() - t0
                    failed += 1
                    errors.append(traceback.format_exc(limit=3))
                else:
                    dt = time.perf_counter() - t0
                    found = wl.check(item, out)
                    if found:
                        failed += 1
                        problems += found
                if tracer:
                    tracer.begin_item(-1)
                times.append(dt)
                spent += dt
            rounds += 1
            if spent + 0.5 * spent / rounds > seconds:
                break
            items = wl.inputs(seed, rounds)
    finally:
        if tracer:
            tracer.uninstall()

    done = len(times) - failed
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": environment(), "rounds": rounds, "attempted": len(times),
        "failed": failed, "correct": not problems,
        "problems": problems[:20], "errors": errors[:5],
        "import_reps_s": imports, "setup_reps_s": setups,
        "item_s": times,
        "notes": getattr(wl, "notes", {}),
    }
    if tracer:
        metrics = tracing.layer_metrics(tracer.spans, tracer.counts, rounds)
        top = tracing.top_level_time(tracer.spans)
        metrics["trace.items_per_s"] = done / spent
        metrics["trace.coverage"] = sum(top.values()) / spent
        result["units"] = {k: layer_unit(k) for k in metrics}
        write_trace(tracer.spans, name, seed)
    else:
        metrics = {
            "setup_s": statistics.median(imports) + statistics.median(setups),
            "items_per_s": done / spent,
            "item_s_p50": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "participation": sum(nullspace_participation(wl)),
        }
        result["units"] = dict(UNITS)
        result["item_s_tail"] = tail(times)
    result["metrics"] = metrics
    return result


UNITS = {"setup_s": "s", "items_per_s": "items/s", "item_s_p50": "s",
         "peak_rss_mb": "MB", "participation": "entries"}


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".step_us"):
        return "us"
    if name == "trace.items_per_s":
        return "items/s"
    if name == "trace.coverage":
        return "ratio"
    return "count"


def nullspace_participation(wl):
    from floppynet import nullspace, rigidity
    return [nullspace.snd_basis(rigidity.build(n)).participation
            for n in wl.participation_panel()]


def write_trace(spans, name: str, seed: int) -> None:
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"trace-{name}-seed{seed}.jsonl", "w") as fh:
        for i, (span, start, end, parent, item) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": span, "start": start, "end": end,
                                 "parent": parent, "item": item}) + "\n")


def report(result: dict) -> None:
    env = result["env"]
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload={result['workload']} seed={result['seed']} rounds={result['rounds']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    for error in result["errors"]:
        print(f"item raised: {error}", file=sys.stderr)
    for key, value in result["metrics"].items():
        print(f"{key} {value:.6g} {result['units'][key]}")
    for key, value in result["notes"].items():
        print(f"note {key} {value}")
    if result.get("item_s_tail"):
        pct, value = result["item_s_tail"]
        print(f"item_s_tail p{pct} {value:.6g} s ({result['attempted']} items)")
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": result["units"][k]}
                    for k, v in result["metrics"].items()},
    }))


def run_all(args) -> int:
    rows, status = [], 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            status = proc.returncode
            continue
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, last))
        status = status or int(not last["correct"])
    print("\nworkload   attempted failed correct  " + "  ".join(
        f"{k}" for k in (rows[0][1]["metrics"] if rows else [])))
    for name, last in rows:
        print(f"{name:10} {last['attempted']:9} {last['failed']:6} {str(last['correct']):7}  "
              + "  ".join(f"{m['value']:.4g} {m['unit']}" for m in last["metrics"].values()))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "floppynet" / "__init__.py").is_file():
        print(f"floppynet sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    report(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
