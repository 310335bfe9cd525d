"""The test census: per tier-1 test, the ``src/repro`` lines it runs and
the ledger mutants it kills.

    python tools/test_census.py [--json PATH] [--compare OLD.json] [--write-doc]

Three kinds of tier-1 run, each of the whole collection (no ``-x``),
each one pytest session in one child process, all with
``--hypothesis-seed=0``, ``PYTHONHASHSEED=0`` and the ``census``
hypothesis profile (no example database, no shrinking, no deadline):

1. **baseline**: untraced; each test's outcome and seconds (setup, call
   and teardown).
2. **lines**: under ``sys.settrace``; per test (pytest node id) the set
   of ``src/repro`` lines it executes, fixtures included.  Lines run
   while collecting (module bodies) belong to no test.
3. **kills**: once per row of ``tests/mutants.py``, on a copy of
   ``src/`` with the row applied (``tools/mutants.py``'s
   ``mutated_src``).  A test kills the mutant when it passed in the
   baseline and does not pass under the mutant (``WALL_CLOCK`` tests
   kill nothing: their verdict reads a timed share).  Each test runs under
   a ``PER_TEST_TIMEOUT_S`` alarm, so a mutant that hangs one test
   fails that test and not the session.

It prints the per-file table that ``docs/architecture.md`` publishes
as "Test census" (``--write-doc`` replaces it there): the file's
lines, its tier-1 seconds, the ``src/`` lines that only this file's
tests reach, and the mutants that only this file's tests kill.  Then
it prints the **redundant** tests: each one reaches only lines that
the tests kept after it reach, kills only mutants they kill, and is not
a named gate (``GATES``).  The list is greedy, slowest first, so
deleting all of it together keeps every line and every kill.  For each
it names the kept test that shares the most of its lines.

``--json PATH`` writes everything (per test: outcome, seconds, lines,
kills) for a later comparison; ``--compare OLD.json`` prints the lines
and kills that the union of the suite lost or gained against it.

``JOBS`` sessions run at once: about 30 minutes on 2 cores for 47
mutant sessions.
"""

import argparse
import importlib.util
import json
import os
import platform
import re
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
#: The tier-1 command's arguments, less ``-x``.
PYTEST_ARGS = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
               "--hypothesis-seed=0"]
#: Sessions run at once.
JOBS = 2
#: A test that runs longer than this under a mutant fails (a hang).
PER_TEST_TIMEOUT_S = 60
#: The whole session of one run may take this long.
SESSION_TIMEOUT_S = 3600
CENSUS_DOC = "docs/architecture.md"
CENSUS_HEADING = "## Test census"
TABLE_HEADER = ("| Test file | lines | tier-1 s | `src/` lines only it reaches "
                "| mutants only it kills |\n| --- | ---: | ---: | ---: | ---: |")

#: Tests that are never deletion candidates, whatever the census says:
#: (what they are, a pattern on the node id).
GATES = (
    ("clock-free budget", r"Budget::"),
    # A differential suite's floors: how much of the oracle a run must
    # have exercised (bursts, hazards, cache hits, cases).
    ("differential floor", r"^tests/test_specialized_differential\.py::TestSpecializedDifferential::"
                           r"|^tests/test_burst_differential\.py::TestBatchDifferential::"
                           r"|^tests/test_classifier_differential\.py::\w+::test_(classifier_matches"
                           r"_linear_reference|pipeline_outputs_and_counters_identical"
                           r"|outputs_identical_under_sustained_churn)$"
                           r"|^tests/test_legacy_differential\.py::test_(cached_switch_matches_general"
                           r"_path_only_switch|a_cache_hit_moves_only_counters_and_the_sources"
                           r"_learned_at)$"
                           r"|^tests/test_probe_order_invariance\.py::"),
    ("claims row", r"^tests/test_paper_claims\.py::test_claim\["),
    ("frame-path walk", r"^tests/test_frame_path_drops\.py::"),
    ("transparency scope", r"^tests/test_transparency_scope\.py::"),
    ("census lint", r"^tests/test_docs_lint\.py::|^tests/test_differential_kit\.py::"),
    ("frozen benchmark", r"^benchmarks/e2e/"),
    # What no src/ line shows: the examples' own code runs, and the
    # policy machine's orders of operations.
    ("example smoke", r"^tests/test_examples_smoke\.py::"),
    ("use-case machine", r"^tests/test_dmz_machine\.py::"),
)


#: Tests whose pass or fail hangs on the wall clock: the frozen smoke
#: test's traced self-check reads a timed share (``traffic.share``), so
#: a run beside other work can fail it under any mutant.  Their lines
#: and seconds count; their failures under a mutant are not kills.
WALL_CLOCK = r"^benchmarks/e2e/test_e2e_smoke\.py::test_every_named_metric_is_emitted\["


def gate_of(test_id: str) -> "str | None":
    for label, pattern in GATES:
        if re.search(pattern, test_id):
            return label
    return None


def file_of(test_id: str) -> str:
    return test_id.split("::", 1)[0]


# ---------------------------------------------------------------- worker


class Recorder:
    """A pytest plugin: one JSON line per test into *out*, with the
    ``src/repro`` lines it ran when *src* is given."""

    def __init__(self, out, src: "str | None") -> None:
        self.out = out
        self.prefix = os.path.join(src, "repro", "") if src else None
        #: filename -> its index << 16 (a src/repro file) or None.  A line
        #: is recorded as index << 16 | line, an int: the tracer keeps no
        #: new gc-tracked object, so the suite's own allocation budgets
        #: read under it what they read without it.
        self.files: "dict[str, int | None]" = {}
        self.names: "list[str]" = []
        self.lines: set = set()
        self.local = self._local
        self.failed = False
        self.skipped = False

    # --- tracing: only frames of src/repro get a local tracer.
    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        base = self.files.get(filename, -1)
        if base == -1:
            base = None
            if filename.startswith(self.prefix):
                base = len(self.names) << 16
                self.names.append(filename[len(self.prefix):])
            self.files[filename] = base
        return None if base is None else self.local

    def _local(self, frame, event, arg):
        if event == "line":
            self.lines.add(self.files[frame.f_code.co_filename] | frame.f_lineno)
        return self.local

    def _start(self) -> None:
        if self.prefix:
            self.lines.clear()
            sys.settrace(self._global)

    def _stop(self) -> list:
        if not self.prefix:
            return []
        sys.settrace(None)
        return sorted(f"{self.names[line >> 16]}:{line & 0xFFFF}" for line in self.lines)

    def _write(self, record: dict) -> None:
        self.out.write(json.dumps(record) + "\n")
        self.out.flush()

    # --- hooks
    def pytest_configure(self, config) -> None:
        from hypothesis import HealthCheck, Phase, settings

        settings.register_profile(
            "census", database=None, deadline=None,
            suppress_health_check=list(HealthCheck),
            phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
        )
        settings.load_profile("census")

    def pytest_collection(self, session):
        self._start()

    def pytest_collection_finish(self, session):
        self._write({"id": "<collection>", "lines": self._stop()})

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        self.failed = self.skipped = False
        signal.alarm(PER_TEST_TIMEOUT_S)
        began = time.perf_counter()
        self._start()
        try:
            yield
        finally:
            lines = self._stop()
            signal.alarm(0)
        outcome = "failed" if self.failed else "skipped" if self.skipped else "passed"
        self._write({"id": item.nodeid, "outcome": outcome,
                     "seconds": round(time.perf_counter() - began, 4), "lines": lines})

    def pytest_runtest_logreport(self, report) -> None:
        self.failed |= report.failed
        self.skipped |= report.skipped


def on_alarm(signum, frame):
    raise TimeoutError(f"test ran over {PER_TEST_TIMEOUT_S} s")


def worker(out_path: str, src: "str | None") -> int:
    signal.signal(signal.SIGALRM, on_alarm)
    with open(out_path, "w") as out:
        return int(pytest.main(PYTEST_ARGS, plugins=[Recorder(out, src)]))


# ---------------------------------------------------------------- census


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(f"{name}_tool", REPO_ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_session(scratch: Path, label: str, src: Path, trace: bool) -> "dict[str, dict]":
    """One tier-1 session in a child with *src* first on the path;
    its records by node id."""
    out = scratch / f"{label}.jsonl"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, str(Path(__file__).resolve()), "--worker", str(out)]
    if trace:
        command += ["--trace-src", str(src)]
    try:
        subprocess.run(command, cwd=REPO_ROOT, env=env, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=SESSION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"  {label}: session ran over {SESSION_TIMEOUT_S} s; kept what it recorded",
              file=sys.stderr)
    records = {}
    if out.exists():
        for line in out.read_text().splitlines():
            record = json.loads(line)
            records[record["id"]] = record
    return records


def census() -> dict:
    ledger_tool = load_tool("mutants")
    mutants = ledger_tool.load_ledger(REPO_ROOT)
    src = REPO_ROOT / "src"
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="test-census-") as scratch:
        scratch = Path(scratch)

        def mutant_session(index: int):
            mutant = mutants[index]
            with ledger_tool.mutated_src(REPO_ROOT, mutant) as mutated:
                began = time.perf_counter()
                records = run_session(scratch, f"mutant-{index + 1}", mutated, trace=False)
            print(f"  mutant {index + 1:2d}/{len(mutants)} {time.perf_counter() - began:5.0f}s "
                  f"{mutant.path}: {mutant.bug.splitlines()[0]}", file=sys.stderr, flush=True)
            return records

        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            baseline = pool.submit(run_session, scratch, "baseline", src, False)
            traced = pool.submit(run_session, scratch, "lines", src, True)
            sessions = [pool.submit(mutant_session, index) for index in range(len(mutants))]
            baseline, traced = baseline.result(), traced.result()
            sessions = [future.result() for future in sessions]
    tests = {}
    for test_id, record in baseline.items():
        if test_id == "<collection>":
            continue
        tests[test_id] = {
            "outcome": record["outcome"],
            "seconds": record["seconds"],
            "lines": traced.get(test_id, {}).get("lines", []),
            "kills": [],
        }
    for index, records in enumerate(sessions, 1):
        for test_id, test in tests.items():
            if re.search(WALL_CLOCK, test_id) or test["outcome"] != "passed":
                continue
            if records.get(test_id, {}).get("outcome") != "passed":
                test["kills"].append(index)
    traced_outcomes = Counter(record["outcome"] for test_id, record in traced.items()
                              if test_id != "<collection>")
    return {
        "python": platform.python_version(),
        "mutants": [f"{m.path}: {m.bug.splitlines()[0]}" for m in mutants],
        "collection_lines": traced.get("<collection>", {}).get("lines", []),
        "traced_outcomes": dict(traced_outcomes),
        "seconds": round(time.perf_counter() - started, 1),
        "tests": tests,
    }


def by_file(data: dict) -> "dict[str, dict]":
    files: "dict[str, dict]" = defaultdict(
        lambda: {"seconds": 0.0, "lines": set(), "kills": set(), "tests": 0})
    for test_id, test in data["tests"].items():
        entry = files[file_of(test_id)]
        entry["seconds"] += test["seconds"]
        entry["lines"].update(test["lines"])
        entry["kills"].update(test["kills"])
        entry["tests"] += 1
    return dict(sorted(files.items()))


def only_here(files: dict, key: str) -> "dict[str, set]":
    seen = Counter(item for entry in files.values() for item in entry[key])
    return {name: {item for item in entry[key] if seen[item] == 1}
            for name, entry in files.items()}


def table(data: dict) -> str:
    files = by_file(data)
    lines_only, kills_only = only_here(files, "lines"), only_here(files, "kills")
    rows = [TABLE_HEADER]
    for name, entry in files.items():
        size = len((REPO_ROOT / name).read_text().splitlines())
        rows.append(f"| `{name}` | {size} | {entry['seconds']:.1f} | "
                    f"{len(lines_only[name])} | {len(kills_only[name])} |")
    total = sum(entry["seconds"] for entry in files.values())
    union = set().union(*(entry["lines"] for entry in files.values()))
    killed = set().union(*(entry["kills"] for entry in files.values()))
    rows.append(f"\n{len(data['tests'])} tests in {len(files)} files, {total:.1f} s of "
                f"tier-1 (sum of per-test seconds, untraced), {len(union)} `src/` lines "
                f"reached, {len(killed)}/{len(data['mutants'])} mutants killed; "
                f"Python {data['python']}.")
    return "\n".join(rows)


def redundant(data: dict) -> "list[tuple[str, str]]":
    """Greedy, slowest first: (test, the kept test sharing most of its
    lines) for every non-gate test whose lines and kills the tests kept
    after it still cover."""
    tests = data["tests"]
    line_count = Counter(line for test in tests.values() for line in test["lines"])
    kill_count = Counter(kill for test in tests.values() for kill in test["kills"])
    plan = []
    for test_id in sorted(tests, key=lambda name: (-tests[name]["seconds"], name)):
        test = tests[test_id]
        if gate_of(test_id) or test["outcome"] != "passed":
            continue
        if any(line_count[line] < 2 for line in test["lines"]):
            continue
        if any(kill_count[kill] < 2 for kill in test["kills"]):
            continue
        for line in test["lines"]:
            line_count[line] -= 1
        for kill in test["kills"]:
            kill_count[kill] -= 1
        plan.append(test_id)
    gone = set(plan)
    kept = {name: set(test["lines"]) for name, test in tests.items() if name not in gone}
    covers = []
    for test_id in plan:
        mine = set(tests[test_id]["lines"])
        covers.append((test_id, max(kept, key=lambda name: (len(mine & kept[name]), name))))
    return covers


def compare(old: dict, new: dict) -> "list[str]":
    def union(data, key):
        found = set(data.get("collection_lines", ())) if key == "lines" else set()
        for test in data["tests"].values():
            found.update(test[key])
        return found

    report = []
    for key, name in (("lines", "src lines"), ("kills", "mutants killed")):
        before, after = union(old, key), union(new, key)
        report.append(f"{name}: {len(before)} before, {len(after)} after; "
                      f"lost {sorted(before - after)[:20]} gained {sorted(after - before)[:20]}")
    return report


def write_doc(text: str) -> None:
    path = REPO_ROOT / CENSUS_DOC
    doc = path.read_text()
    start = doc.index(f"\n{CENSUS_HEADING}\n")
    table_start = doc.index(TABLE_HEADER.splitlines()[0], start)
    end = doc.find("\n#", table_start)
    end = len(doc) if end < 0 else end + 1
    path.write_text(doc[:table_start] + text + "\n" + ("\n" if end < len(doc) else "")
                    + doc[end:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", metavar="PATH", help="write the per-test census here")
    parser.add_argument("--compare", metavar="OLD", help="a census JSON to compare against")
    parser.add_argument("--write-doc", action="store_true",
                        help=f"replace the table in {CENSUS_DOC}")
    parser.add_argument("--worker", metavar="OUT", help=argparse.SUPPRESS)
    parser.add_argument("--trace-src", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args.worker, args.trace_src)

    data = census()
    text = table(data)
    print(text)
    unpassed = sorted(name for name, test in data["tests"].items() if test["outcome"] != "passed")
    if unpassed or data["traced_outcomes"].get("failed"):
        print(f"\nnot passed in the baseline: {unpassed}; "
              f"traced outcomes {data['traced_outcomes']}")
    print("\nRedundant (lines and kills covered by the tests kept after it; not a gate):")
    for test_id, cover in redundant(data):
        print(f"  {data['tests'][test_id]['seconds']:6.2f}s {test_id}  ~ {cover}")
    print(f"\ncensus took {data['seconds']:.0f} s")
    if args.json:
        Path(args.json).write_text(json.dumps(data))
    if args.compare:
        print("\n".join(compare(json.loads(Path(args.compare).read_text()), data)))
    if args.write_doc:
        write_doc(text)
    # A WALL_CLOCK test that failed on a busy box is reported, not an error.
    return 1 if any(not re.search(WALL_CLOCK, name) for name in unpassed) else 0


if __name__ == "__main__":
    sys.exit(main())
