"""Show that the benchmark's output check catches a single flipped byte.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout.  Runs one paper_field pass,
confirms the check accepts its artefacts, then flips one bit of one
byte (first, middle and last) in a copy of each of the five artefacts
and confirms the check reports every copy as a failure.  Exits 0 only
if every flipped copy is caught.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402
from checks import ARTEFACTS, check_outputs  # noqa: E402
from worker import run_pass  # noqa: E402


def main() -> int:
    workdir = Path(__file__).resolve().parent / "work" / "selfcheck"
    shutil.rmtree(workdir, ignore_errors=True)
    clean = workdir / "clean"
    clean.mkdir(parents=True)
    spec = workloads.build("paper_field", workloads.DEFAULT_SEED, Path.cwd(), workdir)
    _times, codes, _diag = run_pass(spec, clean, None)
    problems, _facts = check_outputs(clean, spec)
    if codes != [0, 0, 0] or problems:
        print(f"selfcheck: the clean pass is already rejected: {codes} {problems}")
        return 1

    tried = missed = 0
    for name in ARTEFACTS:
        size = (clean / name).stat().st_size
        for offset in (0, size // 2, size - 1):
            copy = workdir / "flipped"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(clean, copy)
            data = bytearray((copy / name).read_bytes())
            data[offset] ^= 0x01
            (copy / name).write_bytes(bytes(data))
            problems, _facts = check_outputs(copy, spec)
            verdict = "caught" if problems else "MISSED"
            tried += 1
            missed += not problems
            print(f"{name:15s} byte {offset:6d}: {verdict}: "
                  f"{problems[0] if problems else 'no problem reported'}")
    print(f"selfcheck: {tried - missed} of {tried} flipped copies caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
