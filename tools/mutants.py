"""Run the mutant catalogue: each mutant of tools/mutants.json breaks the
program in one place, and the tests it names must fail.

An entry has an ``id``, a ``file`` (relative to the repository root), one
exact ``snippet`` of that file, its ``replacement`` and the ``tests``
(pytest node ids) that must each fail once the snippet is replaced.  The
runner extracts ``git archive HEAD`` into a temporary directory, checks
that the named tests pass there unmutated, then applies one mutant at a
time, runs only its tests, and restores the file.  It prints one line per
mutant, killed or survived, and exits 1 when a mutant survives (one of its
tests passes), when a snippet does not occur exactly once in its file, or
when a named test fails before any mutant is applied.  The working tree is
never touched, so commit what the catalogue should see.

Run from the repository root:  python3 tools/mutants.py [ID ...]
"""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "tools" / "mutants.json"
TIMEOUT_S = 600


def run_tests(tree: Path, tests: list[str]) -> tuple[set[str], str]:
    """The node ids among ``tests`` that fail or error in ``tree``, and
    pytest's output; a run past TIMEOUT_S counts every test as failed."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests]
    try:
        result = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                                timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return set(tests), f"timed out after {TIMEOUT_S} s"
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", result.stdout, re.MULTILINE))
    if result.returncode not in (0, 1):  # collection or usage error: nothing ran as named
        failed = set(tests)
    return failed & set(tests), result.stdout + result.stderr


def main(argv: list[str]) -> int:
    mutants = json.loads(CATALOGUE.read_text(encoding="utf-8"))
    if argv:
        unknown = set(argv) - {m["id"] for m in mutants}
        if unknown:
            print(f"unknown mutant ids: {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
        mutants = [m for m in mutants if m["id"] in argv]
    start = time.perf_counter()
    archive = subprocess.run(["git", "archive", "HEAD"], cwd=ROOT, capture_output=True,
                             check=True).stdout
    bad = 0
    with tempfile.TemporaryDirectory(prefix="regkernel-mutants-") as tmp:
        tree = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree)
        named = sorted({t for m in mutants for t in m["tests"]})
        failed, output = run_tests(tree, named)
        if failed:
            print(output)
            print(f"unmutated tree fails: {', '.join(sorted(failed))}")
            return 1
        for m in mutants:
            path = tree / m["file"]
            original = path.read_text(encoding="utf-8")
            found = original.count(m["snippet"])
            if found != 1:
                print(f"{m['id']}\tSNIPPET\tfound {found} times in {m['file']}")
                bad += 1
                continue
            path.write_text(original.replace(m["snippet"], m["replacement"]), encoding="utf-8")
            try:
                failed, output = run_tests(tree, m["tests"])
            finally:
                path.write_text(original, encoding="utf-8")
            passed = [t for t in m["tests"] if t not in failed]
            if passed:
                print(f"{m['id']}\tSURVIVED\tpassing: {', '.join(passed)}")
                bad += 1
            else:
                print(f"{m['id']}\tKILLED\t{len(m['tests'])} tests fail")
    print(f"summary\t{len(mutants) - bad}/{len(mutants)} killed\t"
          f"{time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
