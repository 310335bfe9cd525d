"""Bench-regression gate: fresh artefacts vs committed baselines.

CI runs the gated benches in smoke mode, then this script compares the fresh ``results/*.json`` against the committed
``baselines/*.json`` and fails the workflow on a regression.

Comparison rules:

* **pps metrics** are wall-clock and machine-dependent, so raw ratios
  against a baseline recorded on a different machine are meaningless.
  Every pps metric's current/baseline ratio is therefore normalised by
  the *median* ratio across all pps metrics of that artefact — the
  median cancels the machine-speed factor, a genuine regression shows
  up as one row falling away from the pack.  A normalised ratio below
  ``1 - threshold`` (default: 25% regression) fails the gate.
* **hit_rate and specialized_share metrics** are machine-independent
  fractions and are compared absolutely: current below baseline by
  more than 0.10 fails.
* **speedup metrics** (ratios of two pps numbers measured on the same
  machine) are compared directly against ``1 - threshold``.

A baseline metric missing from a result of the same ``mode`` fails the
gate: a smoke run that stopped producing a gated row must not pass.
Across modes (a full-mode run against the smoke-mode baselines, as the
nightly job does) metrics present only on one side are reported and
skipped, and the common rows are compared.  A *results file* with no
committed baseline at all fails the gate loudly: a freshly added bench
artefact must land with its baseline (``--update`` creates it),
otherwise the gate would silently never cover it.

Refresh the baselines after an intentional perf change with::

    PYTHONPATH=src python benchmarks/bench_churn.py --fast
    PYTHONPATH=src python benchmarks/bench_specialized.py --fast
    PYTHONPATH=src python benchmarks/bench_fabric.py --fast
    PYTHONPATH=src python benchmarks/bench_usecase_dmz.py --fast
    PYTHONPATH=src python benchmarks/bench_usecase_lb.py --fast
    PYTHONPATH=src python benchmarks/bench_usecase_pc.py --fast
    python benchmarks/check_regression.py --update

and commit the updated ``benchmarks/baselines/*.json``.
"""

import argparse
import json
import pathlib
import shutil
import statistics
import sys

BENCH_DIR = pathlib.Path(__file__).parent
BASELINES_DIR = BENCH_DIR / "baselines"
RESULTS_DIR = BENCH_DIR / "results"

#: Keys that identify a row (workload shape), not measurements.
IDENTITY_KEYS = (
    "bench", "config", "kind", "policy", "flows", "masked_entries", "burst",
    "edges",
)
#: Absolute tolerance for hit-rate and share metrics (fractions in [0, 1]).
HIT_RATE_TOLERANCE = 0.10


def extract_metrics(node, label="", out=None):
    """Flatten an artefact into {stable label: numeric metric}.

    Labels are built from the identity keys found along the path, so
    the same workload row gets the same label in baseline and current
    artefacts regardless of dict ordering.  Only pps, hit_rate,
    *specialized_share and speedup_* leaves are metrics; everything
    else (packet counts, raw counters, timings) is workload
    description or redundant.
    """
    if out is None:
        out = {}
    if isinstance(node, dict):
        identity = ",".join(
            f"{key}={node[key]}"
            for key in IDENTITY_KEYS
            if key in node and isinstance(node[key], (str, int))
        )
        prefix = f"{label}/{identity}" if identity else label
        for key, value in sorted(node.items()):
            if isinstance(value, (dict, list)):
                extract_metrics(value, f"{prefix}/{key}", out)
            elif isinstance(value, (int, float)) and (
                key in ("pps", "hit_rate")
                or key.startswith("speedup")
                or key.endswith("specialized_share")
            ):
                out[f"{prefix}:{key}"] = float(value)
    elif isinstance(node, list):
        for item in node:
            extract_metrics(item, label, out)
    return out


def compare(name, baseline, current, threshold):
    """Compare one artefact pair; returns (failures, report lines)."""
    base = extract_metrics(baseline)
    cur = extract_metrics(current)
    shared = sorted(set(base) & set(cur))
    lines = [f"== {name}: {len(shared)} shared metrics =="]
    failures = []
    same_mode = baseline.get("mode") == current.get("mode")
    for missing in sorted(set(base) - set(cur)):
        if same_mode:
            failures.append(
                f"{name}: {missing} is baselined but missing from the "
                f"{current.get('mode')} results (did the row vanish?)"
            )
            lines.append(f"   {'VANISHED':>10} {missing}")
        else:
            lines.append(f"   (baseline-only, skipped: {missing})")
    for fresh in sorted(set(cur) - set(base)):
        lines.append(f"   (new, unbaselined: {fresh})")
    if not shared:
        failures.append(f"{name}: no shared metrics between baseline and current")
        return failures, lines

    pps_labels = [label for label in shared if label.endswith(":pps")]
    ratios = {label: cur[label] / base[label] for label in pps_labels if base[label]}
    machine_factor = statistics.median(ratios.values()) if ratios else 1.0
    lines.append(f"   machine-speed factor (median pps ratio): {machine_factor:.2f}")

    for label in shared:
        if label.endswith(":pps"):
            if not base[label]:
                continue
            normalised = ratios[label] / machine_factor
            verdict = "ok"
            if normalised < 1.0 - threshold:
                verdict = "REGRESSION"
                failures.append(
                    f"{name}: {label} regressed {1 - normalised:.0%} "
                    f"(baseline {base[label]:.0f} pps, current {cur[label]:.0f} pps, "
                    f"normalised x{normalised:.2f})"
                )
            lines.append(
                f"   {verdict:>10} {label} x{normalised:.2f} (normalised)"
            )
        elif label.endswith((":hit_rate", "specialized_share")):
            delta = cur[label] - base[label]
            verdict = "ok"
            if delta < -HIT_RATE_TOLERANCE:
                verdict = "REGRESSION"
                failures.append(
                    f"{name}: {label} fell {base[label]:.1%} -> {cur[label]:.1%}"
                )
            lines.append(
                f"   {verdict:>10} {label} {base[label]:.1%} -> {cur[label]:.1%}"
            )
        else:  # speedup_*: same-machine ratio, compared directly
            if not base[label]:
                continue
            ratio = cur[label] / base[label]
            verdict = "ok"
            if ratio < 1.0 - threshold:
                verdict = "REGRESSION"
                failures.append(
                    f"{name}: {label} regressed x{ratio:.2f} "
                    f"({base[label]:.2f} -> {cur[label]:.2f})"
                )
            lines.append(f"   {verdict:>10} {label} x{ratio:.2f}")
    return failures, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baselines", type=pathlib.Path, default=BASELINES_DIR)
    parser.add_argument("--results", type=pathlib.Path, default=RESULTS_DIR)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative pps regression that fails the gate (default 0.25)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="copy current results over the baselines instead of comparing",
    )
    args = parser.parse_args(argv)

    if args.update:
        result_files = sorted(
            path
            for path in args.results.glob("*.json")
            if path.name != "regression.json"
        )
        if not result_files:
            print(f"no current results under {args.results}", file=sys.stderr)
            return 1
        args.baselines.mkdir(exist_ok=True)
        for result_path in result_files:
            baseline_path = args.baselines / result_path.name
            verb = "refreshed" if baseline_path.exists() else "created"
            shutil.copyfile(result_path, baseline_path)
            print(f"baseline {verb}: {baseline_path}")
        return 0

    baseline_files = sorted(args.baselines.glob("*.json"))
    if not baseline_files:
        print(f"no baselines under {args.baselines}", file=sys.stderr)
        return 1

    all_failures = []
    report = []
    # A fresh result with no committed baseline is a gate hole, not a
    # skip: fail loudly so new benches land with their baselines.
    baseline_names = {path.name for path in baseline_files}
    for result_path in sorted(args.results.glob("*.json")):
        if result_path.name == "regression.json":
            continue
        if result_path.name not in baseline_names:
            all_failures.append(
                f"{result_path.name}: results present but no baseline at "
                f"{args.baselines / result_path.name} — run "
                "check_regression.py --update and commit it"
            )
    for baseline_path in baseline_files:
        result_path = args.results / baseline_path.name
        if not result_path.exists():
            all_failures.append(
                f"{baseline_path.name}: no current result at {result_path} "
                "(did the bench run?)"
            )
            continue
        baseline = json.loads(baseline_path.read_text())
        current = json.loads(result_path.read_text())
        failures, lines = compare(
            baseline_path.stem, baseline, current, args.threshold
        )
        all_failures.extend(failures)
        report.extend(lines)

    report.append("")
    if all_failures:
        report.append(f"FAIL: {len(all_failures)} regression(s)")
        report.extend(f"  - {failure}" for failure in all_failures)
    else:
        report.append("PASS: no bench regressions against committed baselines")
    text = "\n".join(report)
    print(text)
    args.results.mkdir(exist_ok=True)
    (args.results / "regression.txt").write_text(text + "\n")
    return 1 if all_failures else 0


if __name__ == "__main__":
    sys.exit(main())
