"""Run the mutation ledger: every mutant must be killed by its test files.

    python tools/mutants.py

For each row of ``tests/mutants.py`` the tool copies ``src/`` into a
temporary directory, replaces the row's anchor (which must occur
exactly once in its file) with the row's replacement, and runs
``python -m pytest -x -q`` on the row's test files with that copy
first on ``PYTHONPATH``.  A failing run kills the mutant.  It prints
one line per mutant and exits 1 if any mutant survived or any anchor
is not found exactly once.

A row's ``survived_before`` names the test file it survived before the
change that added it; the tool does not run that, but its report says
so, so a run on an older checkout can be read against it.
"""

import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
#: A mutant whose killers run longer than this is counted killed (a hang).
TIMEOUT_S = 300


def load_ledger(repo: Path) -> list:
    spec = importlib.util.spec_from_file_location("mutants", repo / "tests" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def anchor_count(repo: Path, mutant) -> int:
    return (repo / "src" / "repro" / mutant.path).read_text().count(mutant.anchor)


def run_mutant(repo: Path, mutant) -> str:
    """``killed``, ``killed (timeout)`` or ``survived``."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(repo / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "repro" / mutant.path
        target.write_text(target.read_text().replace(mutant.anchor, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   *(f"tests/{name}" for name in mutant.killers)]
        try:
            result = subprocess.run(command, cwd=repo, env=env, capture_output=True,
                                    timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed (timeout)"
        return "survived" if result.returncode == 0 else "killed"


def main() -> int:
    mutants = load_ledger(REPO_ROOT)
    failures = 0
    started = time.perf_counter()
    for index, mutant in enumerate(mutants, 1):
        count = anchor_count(REPO_ROOT, mutant)
        began = time.perf_counter()
        verdict = run_mutant(REPO_ROOT, mutant) if count == 1 else f"anchor found {count}x"
        failures += not verdict.startswith("killed")
        note = f" (survived {mutant.survived_before} before)" if mutant.survived_before else ""
        print(f"{index:2d} {verdict:16s} {time.perf_counter() - began:5.1f}s  "
              f"{mutant.path}: {mutant.bug.splitlines()[0]} <- {', '.join(mutant.killers)}{note}",
              flush=True)
    print(f"{len(mutants) - failures}/{len(mutants)} killed in "
          f"{time.perf_counter() - started:.0f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
