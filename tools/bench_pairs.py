"""Alternating parent/change pairs of the end-to-end benchmark.

Both sides are unpacked the same way, with ``git archive``, into
sibling temporary directories whose paths have the same length
(``…/parent`` and ``…/change``): the parent revision, and the working
tree as ``git stash create`` records it (``HEAD`` when the tree is
clean; untracked files are not part of it).  Then it runs ``--pairs``
pairs of

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds 20 --trace 0

per workload — one run on each side, the side that goes first
alternating from pair to pair, both sides of a pair on the same seed.
Workloads, metrics, their direction and their regression bound are
read from ``BENCHMARK.json``.  ``--parent HEAD`` on an unmodified tree
is an A/A test: every verdict must read ``same``.

Printed per workload and metric: each side's median and quartiles, the
ratio of medians, pairs won (ties count for neither side) and a verdict
— ``gain`` when at least ten pairs ran, the change won at least nine
tenths of them and the medians differ by more than the parent's
interquartile distance (``better (<10 pairs)`` when only the pair count
is short), ``REGRESSION`` when the change's median is worse than the
parent's by more than the bound, else ``same``.  Per workload it also
says whether ``sim_digest`` and the exact metrics agreed on every pair:
a change that only speeds the simulator must not move them.

``sim_digest`` hashes ``SoftSwitch.stats()`` whole, so a change to
*which executor served a frame* (compiles, patches) moves it
although every frame went where it went before.  Each workload and
seed therefore also gets a **masked digest** from both trees — one
extra pass with the ``specialization`` sub-dict of
``SoftSwitch.stats()`` (and the ``cache`` one of trees that still have
it) left out of the hash, everything else (clock,
events, endpoints, forwarding/legacy/link counters) kept — and it is
the masked digest, with the exact metrics, that must agree.

``--traced N`` adds, per workload, N alternating pairs of the same
command with ``--trace 1``, and prints per side how many of them failed
the harness's own self-checks (``CHECK FAILED`` lines, among them
``traffic.share < 0.10``) and the quartiles of ``traffic.share``.
``--pairs 0`` runs the traced pairs alone.

``--record LABEL`` appends the rows to the repository's perf trajectory,
``BENCH_e2e.json``.  Exit code 1 on a regression, a failed output
check or traced self-check on the change side, a larger share of
failed operations, or a masked-digest or exact-metric mismatch.

    python tools/bench_pairs.py --parent HEAD~1 --record "PR 13"
    python tools/bench_pairs.py --workloads fabric_steady --pairs 4 --seeds 19850601
    python tools/bench_pairs.py --workloads migration_wave --pairs 0 --traced 6
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_e2e.json"
#: Pairs needed, and the share of them the change must win, before a
#: gain is claimed.
MIN_PAIRS = 10
WIN_SHARE = 0.9

#: Run inside a tree (parent or change): one pass of a workload with
#: that tree's own ``sim_digest``, reading ``SoftSwitch.stats()``
#: without its tier-bookkeeping sub-dicts.
MASKED_DIGEST_SCRIPT = """
import sys
sys.path[:0] = ["benchmarks/e2e", "src"]
from harmless_e2e import workloads
from repro.softswitch import SoftSwitch

full_stats, full_digest = SoftSwitch.stats, workloads.sim_digest

def masked_stats(switch):
    stats = full_stats(switch)
    for key in ("specialization", "cache"):  # trees before PR 15 have "cache"
        stats.pop(key, None)
    return stats

def masked_digest(rig):
    SoftSwitch.stats = masked_stats
    try:
        return full_digest(rig)
    finally:
        SoftSwitch.stats = full_stats

workloads.sim_digest = masked_digest
workload = workloads.WORKLOADS[sys.argv[1]]
result = workloads.run_pass(workload, int(sys.argv[2]), workload.default_frames)
print("masked_digest", result.digest, "ok" if not result.problems else result.problems)
"""


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO_ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def working_tree_revision() -> str:
    """The working tree's tracked files as a commit id: ``git stash
    create`` (which touches neither the tree nor the stash list), or
    ``HEAD`` when there is nothing to record."""
    return git("stash", "create") or "HEAD"


def unpack(revision: str, target: pathlib.Path) -> str:
    """Extract *revision* into the new directory *target*; returns its
    short commit id."""
    commit = git("rev-parse", "--short", revision)
    target.mkdir()
    archive = target.with_suffix(".tar")
    git("archive", "-o", str(archive), revision)
    with tarfile.open(archive) as tar:
        tar.extractall(target, filter="data")
    archive.unlink()
    return commit


def run_once(tree: pathlib.Path, command: list, workload: str, seed: int, seconds: float,
             traced: bool = False):
    """One benchmark run in *tree*: (driver line, exact line), both
    parsed, and the self-check failures it printed."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(traced))],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    lines = [line for line in done.stdout.splitlines() if line.startswith("{")]
    if len(lines) < 2:
        sys.exit(f"{tree}: {workload} printed no result (exit {done.returncode})\n{done.stdout}")
    checks = [line for line in done.stdout.splitlines() if line.startswith("CHECK FAILED")]
    return json.loads(lines[-1]), json.loads(lines[-2]), checks


def masked_digest(tree: pathlib.Path, workload: str, seed: int) -> str:
    """Digest of one pass in *tree* with the tier bookkeeping masked out."""
    done = subprocess.run(
        [sys.executable, "-c", MASKED_DIGEST_SCRIPT, workload, str(seed)],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    lines = [line for line in done.stdout.splitlines() if line.startswith("masked_digest ")]
    if not lines or not lines[-1].endswith(" ok"):
        sys.exit(f"{tree}: masked digest of {workload} seed {seed} failed "
                 f"(exit {done.returncode})\n{done.stdout}")
    return lines[-1].split()[1]


def quartiles(values: list) -> "tuple[float, float, float]":
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse the change is, as a fraction of the parent."""
    if not parent:
        return 0.0
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def summarise(metric: dict, parent: list, change: list) -> dict:
    better = metric["better"]
    won = sum(
        (c < p) if better == "lower" else (c > p) for p, c in zip(parent, change)
    )
    lost = sum(
        (c > p) if better == "lower" else (c < p) for p, c in zip(parent, change)
    )
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    regressed = worse_by(p_median, c_median, better) > metric["bound"]
    better_everywhere = (
        won >= WIN_SHARE * len(parent)
        and abs(c_median - p_median) > p_q3 - p_q1
        and worse_by(p_median, c_median, better) < 0
    )
    if regressed:
        verdict = "REGRESSION"
    elif not better_everywhere:
        verdict = "same"
    else:
        verdict = "gain" if len(parent) >= MIN_PAIRS else f"better (<{MIN_PAIRS} pairs)"
    p_q1, p_median, p_q3, c_q1, c_median, c_q3 = (
        float(f"{value:.6g}") for value in (p_q1, p_median, p_q3, c_q1, c_median, c_q3)
    )
    return {
        "metric": metric["name"],
        "unit": metric["unit"],
        "parent_median": p_median, "parent_q1": p_q1, "parent_q3": p_q3,
        "change_median": c_median, "change_q1": c_q1, "change_q3": c_q3,
        "ratio": round(c_median / p_median, 4) if p_median else None,
        "pairs": len(parent), "won": won, "lost": lost,
        "verdict": verdict,
    }


def dump(trajectory: list) -> str:
    """The trajectory as JSON, one row per line so diffs stay readable."""
    entries = []
    for entry in trajectory:
        head = json.dumps({k: v for k, v in entry.items() if k != "rows"})
        rows = ",\n  ".join(json.dumps(row) for row in entry["rows"])
        entries.append(f' {head[:-1]}, "rows": [\n  {rows}\n ]}}')
    return "[\n" + ",\n".join(entries) + "\n]\n"


def fmt(value: float) -> str:
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.3f}" if abs(value) >= 1 else f"{value:.4g}"


def cell(row: dict, side: str) -> str:
    median, q1, q3 = (row[f"{side}_{part}"] for part in ("median", "q1", "q3"))
    return f"{fmt(median)} ({fmt(q1)}-{fmt(q3)})"


def traced_pairs(trees: dict, command: list, workload: str, seeds: list, pairs: int,
                 seconds: float) -> bool:
    """*pairs* alternating ``--trace 1`` pairs of *workload*; prints each
    side's failed self-checks and ``traffic.share`` quartiles, and
    returns whether the change side failed one."""
    shares = {side: [] for side in trees}
    failures = {side: [] for side in trees}
    for pair in range(pairs):
        seed = seeds[pair % len(seeds)]
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            driver, _, checks = run_once(trees[side], command, workload, seed, seconds,
                                         traced=True)
            shares[side].append(driver["metrics"]["traffic.share"]["value"])
            if checks or not driver["correct"]:
                failures[side].append((pair + 1, seed, checks))
        print(f"  {workload} traced pair {pair + 1}/{pairs} seed {seed} done",
              file=sys.stderr, flush=True)
    print(f"== {workload}: {pairs} traced pairs (--trace 1)")
    for side in trees:
        q1, median, q3 = quartiles(shares[side])
        print(f"{side:<8} self-checks failed {len(failures[side])}/{pairs}; traffic.share "
              f"{median:.5f} ({q1:.5f}-{q3:.5f}); runs "
              + " ".join(f"{share:.4f}" for share in shares[side]))
        for pair, seed, checks in failures[side]:
            print(f"  {side} pair {pair} seed {seed}: " + ("; ".join(checks) or "not correct"))
    return bool(failures["change"])


def main(argv=None) -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", nargs="+", type=int,
                        help="cycled over the pairs (default: 1..pairs)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced", type=int, default=0, metavar="N",
                        help="also run N alternating --trace 1 pairs per workload")
    parser.add_argument("--record", metavar="LABEL",
                        help=f"append the rows to {TRAJECTORY.name} under this label")
    args = parser.parse_args(argv)
    if args.record and not args.pairs:
        parser.error("--record needs untraced pairs to record")
    seeds = args.seeds or list(range(1, max(args.pairs, args.traced, 1) + 1))

    failed = False
    rows = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees = {side: pathlib.Path(scratch) / side for side in ("parent", "change")}
        parent_commit = unpack(args.parent, trees["parent"])
        change_commit = unpack(working_tree_revision(), trees["change"])
        print(f"parent {parent_commit} in {trees['parent']}, "
              f"change {change_commit} in {trees['change']}")
        for workload in args.workloads:
            if args.traced:
                failed |= traced_pairs(trees, spec["command"], workload, seeds,
                                       args.traced, args.seconds)
            if not args.pairs:
                continue
            samples = {side: {m["name"]: [] for m in spec["end_to_end"]} for side in trees}
            same_simulation = same_exact = True
            failed_share = dict.fromkeys(trees, 0.0)
            for pair in range(args.pairs):
                seed = seeds[pair % len(seeds)]
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                exact = {}
                for side in order:
                    driver, exact[side], _ = run_once(
                        trees[side], spec["command"], workload, seed, args.seconds
                    )
                    if not driver["correct"]:
                        print(f"{workload} seed {seed}: {side} failed its output checks")
                        failed = True
                    failed_share[side] += driver["failed"] / driver["attempted"]
                    for name, entry in driver["metrics"].items():
                        samples[side][name].append(entry["value"])
                if exact["parent"] != exact["change"]:
                    same_simulation = False
                    same_exact &= exact["parent"]["exact"] == exact["change"]["exact"]
                    print(f"{workload} seed {seed}: sim_digest or exact metrics differ\n"
                          f"  parent {exact['parent']}\n  change {exact['change']}")
                print(f"  {workload} pair {pair + 1}/{args.pairs} seed {seed} done",
                      file=sys.stderr, flush=True)
            same_forwarding = same_exact
            for seed in sorted(set(seeds[:args.pairs])):
                masked = {side: masked_digest(tree, workload, seed)
                          for side, tree in trees.items()}
                if masked["parent"] != masked["change"]:
                    same_forwarding = False
                    print(f"{workload} seed {seed}: masked digest differs {masked}")
            failed |= not same_forwarding
            if failed_share["change"] > failed_share["parent"]:
                failed = True
                print(f"{workload}: share of failed operations rose "
                      f"{failed_share['parent'] / args.pairs:.3g} -> "
                      f"{failed_share['change'] / args.pairs:.3g}")
            print(f"== {workload}: {args.pairs} pairs, parent {parent_commit}, "
                  f"sim_digest and exact metrics "
                  f"{'identical on every pair' if same_simulation else 'differ'}; "
                  f"masked digest (no specialization/cache stats) and exact metrics "
                  f"{'identical on every seed' if same_forwarding else 'DIFFER'}")
            print(f"{'metric':<14}{'parent median (q1-q3)':>34}"
                  f"{'change median (q1-q3)':>34}{'ratio':>8}{'won':>7}  verdict")
            for metric in spec["end_to_end"]:
                row = summarise(
                    metric, samples["parent"][metric["name"]],
                    samples["change"][metric["name"]],
                )
                failed |= row["verdict"] == "REGRESSION"
                rows.append({"workload": workload, "digests_equal": same_simulation,
                             "masked_digests_equal": same_forwarding, **row})
                print(
                    f"{row['metric']:<14}{cell(row, 'parent'):>34}{cell(row, 'change'):>34}"
                    f"{row['ratio']:>8.3f}{row['won']:>4}/{row['pairs']:<2}  {row['verdict']}"
                )

    if args.record:
        trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        trajectory.append({
            "label": args.record,
            "date": time.strftime("%Y-%m-%d"),
            "parent": parent_commit,
            "pairs": args.pairs,
            "seeds": seeds,
            "seconds": args.seconds,
            "rows": rows,
        })
        TRAJECTORY.write_text(dump(trajectory))
        print(f"recorded under {args.record!r} in {TRAJECTORY.name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
