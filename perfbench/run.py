"""soilprobe benchmark: simulate -> validate -> map, timed end to end.

    python3 perfbench/run.py --workload paper_field --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One client drives the three user-facing commands through
``soilprobe.cli.main`` in a child process (``worker.py``), one after
the other, for ``--seconds`` seconds and at least ``MIN_PASSES``
passes.  Everything runs single-threaded: the BLAS/OpenMP thread
variables are set to 1 for every child process, before any of them
imports numpy.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a
separate run whose traced passes report the per-layer metrics, plus
the tracing overhead against the untraced passes of the same run.
Every pass is checked (see checks.py); any failed check makes the run
incorrect and the exit status 1.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import workloads

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
MIN_PASSES = 3          # fewer passes leave a run at the mercy of one slow pass
SETUP_REPEATS = 5       # fresh interpreters timed for setup_s
TRIM = 0.1              # share of the fastest and of the slowest passes dropped
WORKER_TIMEOUT_S = 170  # a run must end within 180 s

END_TO_END_UNITS = {
    "pipeline_s": "s", "simulate_s": "s", "validate_s": "s", "map_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB", "success_ratio": "ratio", "grid_mae": "m3/m3",
}


def _environment(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    return env


def measure_setup(root: Path) -> list[float]:
    """Wall time of fresh interpreters importing the package."""
    env = _environment(root)
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import soilprobe"], env=env,
                       check=True, cwd=root)
        times.append(perf_counter() - start)
    return times


def run_worker(spec: dict, root: Path, workdir: Path) -> dict:
    spec_path = workdir / "spec.json"
    result_path = workdir / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path),
                    str(result_path)], env=_environment(root), cwd=root,
                   check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads(result_path.read_text(encoding="utf-8"))


def trimmed_mean(values) -> float:
    """Mean pass time after dropping the fastest and slowest ``TRIM`` share.

    On a shared virtual machine CPU speed drifts in phases of seconds
    to minutes; a mean over the whole run averages across the short
    ones, and the trim drops one-off stalls.
    """
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM)
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, the spread measure the benchmark is judged by."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def run_workload(name: str, seed: int, seconds: int, trace: bool, root: Path):
    """Run one workload; return (metrics, attempted, failed, notes)."""
    workdir = HERE / "work" / name
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "out").mkdir(parents=True)
    spec = workloads.build(name, seed, root, workdir)
    spec.update(outdir=str(workdir / "out"), seconds=seconds, trace=trace,
                min_passes=2 if trace else MIN_PASSES)
    setup = [] if trace else measure_setup(root)
    result = run_worker(spec, root, workdir)

    passes = result["passes"]
    attempted = 3 * len(passes)
    failed = sum(sum(p["failed"]) for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    untraced = [p["times"] for p in passes if not p["traced"]]
    pipeline = [sum(t) for t in untraced]
    notes = {"passes": len(passes), "problems": problems[:10],
             "diag": result["diag"].strip().splitlines(),
             "pass_spread": quartile_spread(pipeline),
             "pass_median_s": statistics.median(pipeline)}
    if trace:
        metrics = {k: tuple(v) for k, v in result["layers"].items()}
        # each traced pass against the untraced pass just before it, so a
        # drift in machine speed over the run cancels out
        overheads = [sum(b["times"]) - sum(a["times"]) for a, b in zip(passes, passes[1:])
                     if b["traced"] and not a["traced"]]
        overhead = statistics.median(overheads) if overheads else 0.0
        metrics["trace.overhead_s"] = (overhead, "s")
        return metrics, attempted, failed, notes

    facts = result["facts"]
    values = {
        "pipeline_s": trimmed_mean(pipeline),
        "simulate_s": trimmed_mean([t[0] for t in untraced]),
        "validate_s": trimmed_mean([t[1] for t in untraced]),
        "map_s": trimmed_mean([t[2] for t in untraced]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["rss_mb"],
        "success_ratio": (attempted - failed) / attempted,
        "grid_mae": facts.get("grid_mae"),
    }
    return ({k: (v, END_TO_END_UNITS[k]) for k, v in values.items()},
            attempted, failed, notes)


def recorded_spread(name: str) -> dict[str, float]:
    """Run-to-run spread of each end-to-end metric in the first baseline."""
    doc = json.loads(BASELINE.read_text(encoding="utf-8"))
    return {metric: runs[name]["spread"]
            for metric, runs in doc["end_to_end"].items() if name in runs}


def machine_record() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # every child process inherits these before it imports numpy
    os.environ.update({var: "1" for var in THREAD_VARS})

    root = Path.cwd()
    if not (root / "src" / "soilprobe" / "__init__.py").is_file():
        print(f"perfbench: no soilprobe sources under {root / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    machine = machine_record()
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        found, tried, bad, notes = run_workload(name, args.seed, args.seconds,
                                                bool(args.trace), root)
        attempted += tried
        failed += bad
        print(f"# {name} seed {args.seed}: {notes['passes']} passes, {tried} commands, "
              f"{bad} failed; untraced pass median {notes['pass_median_s']:.6g} s, "
              f"pass-to-pass spread {notes['pass_spread']:.3f}")
        for line in notes["diag"]:
            print(f"#   {line}")
        for problem in notes["problems"]:
            print(f"#   FAILED: {problem}")
        for metric, (value, unit) in found.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"{name:12s} {metric:36s} {shown:>14s} {unit}")
            key = metric if len(names) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": value, "unit": unit}
        machine.setdefault("pass_spread", {})[name] = notes["pass_spread"]
        machine.setdefault("baseline_run_spread", {})[name] = recorded_spread(name)
    print("# machine " + json.dumps(machine))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
