"""Run simulate -> validate -> map passes in one process, for run.py.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

One client, closed loop: each command starts when the previous one
returns, and every command goes through ``soilprobe.cli.main`` in
this process.  After each pass the five artefacts are hashed; the
first pass is checked in full and every later pass must reproduce its
bytes, so no timing is counted for an output that is wrong.  With
``trace`` set, passes alternate between untraced and traced, so the
tracing overhead comes from the same run.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from soilprobe import cli

from checks import artefact_hashes, check_outputs
from tracing import Tracer

# later passes run untraced once this many spans are held, which bounds the
# worker's memory and the span dump on workloads with short passes
MAX_SPANS = 200_000


def _command(argv: list[str], tracer: Tracer | None) -> tuple[object, str]:
    """Run one CLI command; return its exit status and its stderr."""
    err = io.StringIO()
    span = tracer.span("cli." + argv[0]) if tracer else contextlib.nullcontext()
    with contextlib.redirect_stderr(err), span:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed command, not a dead benchmark
            code = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
    return code, err.getvalue()


def run_pass(spec: dict, outdir: Path, tracer: Tracer | None):
    """One pipeline pass; returns (seconds per command, exit statuses, stderr)."""
    o = str(outdir)
    commands = (
        ["simulate", "--config", spec["config"], "--out-log", f"{o}/run.jsonl",
         "--out-summary", f"{o}/summary.json"],
        ["validate", "--log", f"{o}/run.jsonl", "--out", f"{o}/valid.jsonl"],
        ["map", "--log", f"{o}/run.jsonl", "--out-points", f"{o}/points.geojson",
         "--out-grid", f"{o}/grid.asc", *spec["map_flags"]],
    )
    times, codes, diag = [], [], []
    for argv in commands:
        start = perf_counter()
        code, text = _command(argv, tracer)
        times.append(perf_counter() - start)
        codes.append(code)
        diag.append(text)
    return times, codes, "".join(diag)


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    outdir = Path(spec["outdir"])
    tracer = Tracer() if spec["trace"] else None
    passes, facts, rss_mb, first_hashes, diag = [], {}, None, None, ""
    durations = []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        traced = (tracer is not None and len(passes) % 2 == 1
                  and len(tracer.spans) < MAX_SPANS)
        if traced:
            tracer.install()
        try:
            times, codes, diag = run_pass(spec, outdir, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        failed = [c != 0 for c in codes]
        problems = [f"{argv} exited {c!r}" for argv, c in
                    zip(("simulate", "validate", "map"), codes) if c != 0]
        if not problems:
            if first_hashes is None:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                problems, facts = check_outputs(outdir, spec)
                first_hashes = artefact_hashes(outdir)
            elif artefact_hashes(outdir) != first_hashes:
                problems = ["artefacts differ from the first pass"]
            if problems:
                failed = [True] * 3
        passes.append({"times": times, "failed": failed, "traced": traced,
                       "problems": problems})
        # stop before a pass that would end after the deadline, so a run
        # lasts --seconds however long its passes are
        durations.append(perf_counter() - pass_start)
        ends_at = perf_counter() - start + statistics.median(durations)
        if problems or (len(passes) >= spec["min_passes"] and ends_at > spec["seconds"]):
            break
    result = {"passes": passes, "facts": facts, "rss_mb": rss_mb, "diag": diag}
    if tracer is not None:
        traced_passes = sum(p["traced"] for p in passes)
        result["layers"] = tracer.layer_metrics(max(1, traced_passes))
        tracer.write(outdir / "spans.tsv")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
