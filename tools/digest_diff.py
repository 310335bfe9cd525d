"""Which simulated state a change moved: ``sim_digest``'s input, key by key.

    python tools/digest_diff.py PARENT [CHANGE]

Both trees are unpacked as ``tools/bench_pairs.py`` unpacks them (its
``unpack``; CHANGE defaults to the working tree's tracked files).  For
each workload of ``BENCHMARK.json`` and each of ``SEEDS``, one pass runs
in each tree with the frozen harness's ``sim_digest`` observed from
outside: the state dict it hashes (``now``, ``events``, ``endpoints``,
every soft switch's ``stats()``, every legacy switch's counters, every
link direction) is captured as it is handed to ``repr``, and printed.
Every key path whose value differs between the trees goes to stdout
as ``workload seed path: parent -> change``; a summary per workload,
with ``bench_pairs``' masked digest of both trees, goes to stderr.

No file under ``benchmarks/e2e/`` changes.  Exit code 1 when any key
moved, so ``python tools/digest_diff.py HEAD`` on a clean tree is an
A/A test: it prints nothing to stdout and exits 0.
"""

import argparse
import importlib.util
import json
import pathlib
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = (1,)

#: Run inside a tree: one pass of a workload, printing the state dict
#: its ``sim_digest`` hashes.  ``sim_digest`` hashes ``repr(state)``;
#: the module-level ``repr`` seen by the harness is swapped for one that
#: keeps the dict.
STATE_SCRIPT = """
import builtins, json, sys
sys.path[:0] = ["benchmarks/e2e", "src"]
from harmless_e2e import workloads

states = []

def keeping_repr(value):
    if isinstance(value, dict) and "events" in value:
        states.append(value)
    return builtins.repr(value)

def plain(value):
    if isinstance(value, dict):
        return {str(key): plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return builtins.repr(value)

workloads.repr = keeping_repr
workload = workloads.WORKLOADS[sys.argv[1]]
result = workloads.run_pass(workload, int(sys.argv[2]), workload.default_frames)
print("state " + json.dumps({"digest": result.digest, "problems": result.problems,
                             "state": plain(states[-1])}))
"""


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", REPO_ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def flatten(value, path: str = "") -> dict:
    """*value* as ``{key path: leaf}``: ``a.b`` for dict keys, ``a[0]``
    for list items; an empty dict or list is a leaf."""
    if isinstance(value, dict) and value:
        items = ((f"{path}.{key}" if path else str(key), item) for key, item in value.items())
    elif isinstance(value, list) and value:
        items = ((f"{path}[{index}]", item) for index, item in enumerate(value))
    else:
        return {path: value}
    flat = {}
    for key, item in items:
        flat.update(flatten(item, key))
    return flat


#: How a key missing on one side prints.
ABSENT = "<absent>"


def diff_states(parent: dict, change: dict) -> "list[tuple[str, object, object]]":
    """``(path, parent value, change value)`` for every key path whose
    value differs, in path order."""
    old, new = flatten(parent), flatten(change)
    return [
        (path, old.get(path, ABSENT), new.get(path, ABSENT))
        for path in sorted(old.keys() | new.keys())
        if old.get(path, ABSENT) != new.get(path, ABSENT)
    ]


def state_of(tree: pathlib.Path, workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", STATE_SCRIPT, workload, str(seed)],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    lines = [line for line in done.stdout.splitlines() if line.startswith("state ")]
    if not lines:
        sys.exit(f"{tree}: {workload} seed {seed} printed no state (exit {done.returncode})")
    return json.loads(lines[-1][len("state "):])


def main(argv=None) -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="revision to compare against")
    parser.add_argument("change", nargs="?", help="revision compared (default: working tree)")
    args = parser.parse_args(argv)

    bench_pairs = load_bench_pairs()
    moved = 0
    with tempfile.TemporaryDirectory(prefix="digest-diff-") as scratch:
        trees = {side: pathlib.Path(scratch) / side for side in ("parent", "change")}
        commits = {
            "parent": bench_pairs.unpack(args.parent, trees["parent"]),
            "change": bench_pairs.unpack(
                args.change or bench_pairs.working_tree_revision(), trees["change"]),
        }
        print(f"parent {commits['parent']}, change {commits['change']}", file=sys.stderr)
        for workload in names:
            for seed in SEEDS:
                runs = {side: state_of(tree, workload, seed) for side, tree in trees.items()}
                masked = {side: bench_pairs.masked_digest(tree, workload, seed)
                          for side, tree in trees.items()}
                rows = diff_states(runs["parent"]["state"], runs["change"]["state"])
                moved += len(rows)
                for path, old, new in rows:
                    print(f"{workload} {seed} {path}: {old} -> {new}")
                digest = "same" if runs["parent"]["digest"] == runs["change"]["digest"] else "moved"
                masked = "same" if masked["parent"] == masked["change"] else "moved"
                print(f"== {workload} seed {seed}: {len(rows)} key(s) moved; sim_digest "
                      f"{digest}, masked digest {masked}; output checks parent "
                      f"{runs['parent']['problems'] or 'ok'}, change "
                      f"{runs['change']['problems'] or 'ok'}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
