"""One end-to-end benchmark for the HARMLESS detour.

Driver form (the ``BENCHMARK.json`` contract), one workload per process::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

prints a human table, then one JSON line with everything that must
repeat bit for bit (``sim_digest`` and the exact metrics) and, as the
last line of standard output, one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` holding every ``end_to_end`` metric (``--trace
0``) or every ``per_layer`` metric (``--trace 1``).

Suite form, every workload in its own sequential subprocess::

    python3 benchmarks/e2e/run.py [--seed N] [--passes P] [--trace] [--aa] [--profile]

prints all nine end-to-end metrics by name with unit, n, median and
quartiles; ``--trace`` adds the per-layer table from a separate traced
run, ``--aa`` runs the untraced suite twice in alternating order and
compares the two, ``--profile`` prints cProfile's package shares beside
the span-derived ones.  Any failed output check makes the exit code 1.

Load shape: closed, one process, one thread, GC at its default; each
pass builds a fresh rig from the seed; wall seconds are scaled to nominal
host speed (``hostspeed.py``).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import subprocess
import sys
import time

from . import metrics as M
from .crosscheck import profile_shares
from .hostspeed import Reference
from .tracing import Tracer
from .workloads import WORKLOADS, run_pass

HERE = pathlib.Path(__file__).resolve().parent.parent
RESULTS = HERE / "results"
DEFAULT_SEED = 20170821  # SIGCOMM'17 opened on 21 August 2017
#: ``run_seconds`` of ``BENCHMARK.json``.
RUN_SECONDS = 20
MIN_PASSES = 11
TRACED_PASSES = 3


# --------------------------------------------------------------------------
# Measuring one workload (runs inside the workload's own process)
# --------------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, passes: "int | None" = None,
            frames: "int | None" = None, traced: bool = False) -> dict:
    """Run the passes of one workload and check their outputs.

    Untraced: at least :data:`MIN_PASSES` passes, and more until
    *seconds* have gone by (or exactly *passes*).  *frames* shrinks a
    pass for the smoke test; the CLI always runs the workload's size.
    """
    workload = WORKLOADS[name]
    frames = workload.default_frames if frames is None else frames
    started = time.perf_counter()
    tracer = Tracer()
    reference = Reference()
    results, plain = [], []
    if traced:
        # Untraced and traced passes alternate, so the overhead ratio
        # compares neighbours in time; the untraced ones run on the
        # unpatched classes.
        for _ in range(passes or TRACED_PASSES):
            plain.append(run_pass(workload, seed, frames, reference=reference))
            with tracer:
                results.append(run_pass(workload, seed, frames, tracer, reference))
    else:
        while len(results) < (passes or MIN_PASSES) or (
            passes is None and time.perf_counter() - started < seconds
        ):
            results.append(run_pass(workload, seed, frames, reference=reference))
    all_results = plain + results

    problems = [
        f"pass {index}: {problem}"
        for index, result in enumerate(all_results)
        for problem in result.problems
    ]
    digests = {result.digest for result in all_results}
    if len(digests) != 1:
        problems.append(f"sim_digest differs across passes: {sorted(digests)}")
    counters = [result.counters for result in all_results]
    for key in counters[0]:
        if len({row[key] for row in counters}) != 1:
            problems.append(f"exact counter {key} differs across passes")

    detail = {
        "workload": name,
        "seed": seed,
        "frames": frames,
        "traced": traced,
        "sim_digest": sorted(digests)[0],
        "counters": counters[0],
        "host_speed": M.summarise([result.host_speed for result in all_results]),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.attempted - r.units - r.expected_drops for r in results),
        "metrics": {},
    }
    if traced:
        untraced_wall = M.summarise([p.wall_nominal_s for p in plain])["median"]
        rows = [
            M.per_layer_values(result, trace, untraced_wall)
            for result, trace in zip(results, tracer.passes)
        ]
        for spec in M.PER_LAYER:
            values = [row[spec.name] for row in rows]
            entry = {"unit": spec.unit, "better": spec.better, "exact": spec.exact,
                     "moves": spec.moves, "values": values, **M.summarise(values)}
            if spec.exact and len(set(values)) != 1:
                problems.append(f"{spec.name} differs across traced passes: {values}")
            detail["metrics"][spec.name] = entry
        problems.extend(check_layers(name, detail["metrics"]))
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"trace-{name}.json").write_text(
            json.dumps({"workload": name, "seed": seed, **tracer.to_json()}, indent=1)
        )
    else:
        # Read before the legacy-only baseline rig exists.
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        baseline = None
        if name == "site_detour":
            baseline = workload.baseline_p50_us(seed, frames)
        rows = [M.end_to_end_values(name, result, baseline) for result in results]
        for spec in M.END_TO_END:
            if name not in spec.workloads:
                continue
            if spec.name == "peak_rss_mib":
                values = [peak_rss_mib]
            else:
                values = [row[spec.name] for row in rows]
            entry = {"unit": spec.unit, "better": spec.better, "bound": spec.bound,
                     "values": values, **M.summarise(values)}
            if spec.bound is None:
                if len(set(values)) != 1:
                    problems.append(f"{spec.name} differs across passes: {set(values)}")
                # Pinned at the workload's own size, not the smoke test's.
                ceiling = M.CEILINGS.get(spec.name)
                if frames != workload.default_frames:
                    ceiling = None
                if ceiling is not None and values[0] > ceiling * (1 + 1e-9):
                    problems.append(
                        f"{spec.name} {values[0]!r} is worse than {ceiling!r}, its "
                        "value when the benchmark was defined"
                    )
            else:
                entry["stable"] = M.is_stationary(values, spec.better, spec.bound)
            detail["metrics"][spec.name] = entry
    detail["problems"] = problems
    return detail


def check_layers(name: str, entries: dict) -> "list[str]":
    """Output checks on the traced run's per-layer metrics."""
    median = {key: entry["median"] for key, entry in entries.items()}
    problems = []
    tiers = sum(
        median[f"softswitch.{tier}_share"]
        for tier in ("specialized", "cache_hit", "fallback", "interpreted")
    )
    if abs(tiers - 1.0) > 1e-9:
        problems.append(f"softswitch tier shares sum to {tiers}, not 1")
    total = sum(median[f"{layer}.share"] for layer in M.SHARES)
    total += median["trace.unattributed_share"]
    if abs(total - 1.0) > 0.02:
        problems.append(f"layer shares + unattributed sum to {total:.4f}")
    if median["traffic.share"] >= 0.10:
        problems.append(
            f"traffic.share {median['traffic.share']:.3f}: measuring the generator"
        )
    if name == "fabric_steady":
        for metric in ("legacy.flooded", "controller.packet_ins"):
            if median[metric] != 0:
                problems.append(f"{metric} = {median[metric]} after priming")
    return problems


# --------------------------------------------------------------------------
# Output
# --------------------------------------------------------------------------


def fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 1:
        return f"{value:.3f}"
    return f"{value:.4g}"


def render(detail: dict) -> str:
    kind = "per-layer (traced)" if detail["traced"] else "end-to-end (untraced)"
    lines = [
        f"== {detail['workload']} · {kind} · seed {detail['seed']} · "
        f"{detail['frames']} frames/pass · sim_digest {detail['sim_digest'][:16]} · "
        f"host speed x{detail['host_speed']['median']:.3f} of nominal "
        f"({detail['host_speed']['q1']:.3f}-{detail['host_speed']['q3']:.3f})",
        f"{'metric':<42}{'unit':>10}{'n':>4}{'median':>14}{'q1':>14}{'q3':>14}  note",
    ]
    for name, entry in detail["metrics"].items():
        note = ""
        if entry.get("exact") or entry.get("bound", 0) is None:
            note = "exact"
        elif entry.get("stable") is False:
            note = "unstable"
        if entry.get("moves", "none") != "none":
            note = f"{note:<6}-> {entry['moves']}"
        lines.append(
            f"{name:<42}{entry['unit']:>10}{entry['n']:>4}{fmt(entry['median']):>14}"
            f"{fmt(entry['q1']):>14}{fmt(entry['q3']):>14}  {note}"
        )
    for problem in detail["problems"]:
        lines.append(f"CHECK FAILED: {problem}")
    return "\n".join(lines)


def exact_line(detail: dict) -> str:
    """What must repeat bit for bit on one seed and one commit, as JSON:
    the contract's last line has no room for metrics that only some
    workloads define, so they go on the line before it."""
    return json.dumps({
        "workload": detail["workload"],
        "seed": detail["seed"],
        "sim_digest": detail["sim_digest"],
        "exact": {
            name: entry["median"]
            for name, entry in detail["metrics"].items()
            if entry.get("exact") or entry.get("bound", 0) is None
        },
    })


def driver_line(detail: dict) -> str:
    """The contract's last line: every metric ``BENCHMARK.json`` names."""
    entries = detail["metrics"]
    if detail["traced"]:
        out = {
            name: {"value": entry["median"], "unit": entry["unit"]}
            for name, entry in entries.items()
        }
    else:
        rate = entries.get("frames_per_s") or entries["sites_per_s"]
        values = {
            "setup_s": entries["setup_s"]["median"],
            "work_per_s": rate["median"],
            "peak_rss_mib": entries["peak_rss_mib"]["median"],
        }
        out = {
            spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in M.DRIVER_END_TO_END
        }
    return json.dumps({
        "correct": not detail["problems"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": out,
    })


# --------------------------------------------------------------------------
# Suite: each workload in its own sequential subprocess
# --------------------------------------------------------------------------


def run_child(name: str, args, traced: bool, tag: str) -> dict:
    """Run one workload in a fresh process; return its saved detail."""
    path = RESULTS / f"{name}-{tag}.json"
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(int(traced)), "--save", str(path),
    ]
    if args.passes is not None:
        command += ["--passes", str(args.passes)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if not path.exists():
        sys.exit(f"{name}: no result (exit {done.returncode})\n{done.stdout}")
    return json.loads(path.read_text())


def suite(args) -> int:
    names = list(WORKLOADS)
    failed = False
    if args.aa:
        first = {name: run_child(name, args, False, "aa1") for name in names}
        second = {name: run_child(name, args, False, "aa2") for name in reversed(names)}
        for name in names:
            print(render(first[name]))
        print(render_aa(first, second))
        failed = any(d["problems"] for d in (*first.values(), *second.values()))
        failed |= not aa_agrees(first, second)
    else:
        for name in names:
            detail = run_child(name, args, False, "untraced")
            print(render(detail), flush=True)
            failed |= bool(detail["problems"])
    if args.trace:
        for name in names:
            detail = run_child(name, args, True, "traced")
            print(render(detail), flush=True)
            failed |= bool(detail["problems"])
    if args.profile:
        for name in names:
            print(render_profile(name, args), flush=True)
    return 1 if failed else 0


def _aa_rows(first: dict, second: dict):
    for name in first:
        for metric, a in first[name]["metrics"].items():
            b = second[name]["metrics"][metric]
            if a["bound"] is None:
                agree = a["median"] == b["median"]
            else:
                agree = abs(M.worse_by(a["median"], b["median"], a["better"])) <= a["bound"]
            yield name, metric, a, b, agree
        same = first[name]["sim_digest"] == second[name]["sim_digest"]
        yield name, "sim_digest", None, None, same


def aa_agrees(first: dict, second: dict) -> bool:
    return all(row[-1] for row in _aa_rows(first, second))


def render_aa(first: dict, second: dict) -> str:
    lines = [
        "== A/A: the untraced suite twice, second time in reverse order",
        f"{'workload':<19}{'metric':<22}{'median A':>12}{'IQR A':>8}"
        f"{'median B':>12}{'IQR B':>8}{'B vs A':>8}  within bound",
    ]
    for name, metric, a, b, agree in _aa_rows(first, second):
        if a is None:
            lines.append(f"{name:<19}{metric:<22}{'':>48}  {'identical' if agree else 'DIFFERS'}")
            continue
        change = M.worse_by(a["median"], b["median"], "lower")
        lines.append(
            f"{name:<19}{metric:<22}{fmt(a['median']):>12}{M.spread(a):>8.1%}"
            f"{fmt(b['median']):>12}{M.spread(b):>8.1%}{change:>+8.1%}  "
            f"{'yes' if agree else 'NO'}"
        )
    return "\n".join(lines)


def render_profile(name: str, args) -> str:
    """cProfile's layer shares beside the span-derived ones, one pass each."""
    workload = WORKLOADS[name]
    frames = workload.default_frames
    with Tracer() as tracer:
        run_pass(workload, args.seed, frames, tracer)
    trace = tracer.passes[0]
    spans = {layer: M.layer_self_s(trace, layer) / trace.wall_s for layer in M.SHARES}
    rig = workload.build(args.seed)
    load = workload.generate(rig, args.seed, frames)
    profiled = profile_shares(lambda: list(workload.drive(rig, load)))
    lines = [
        f"== {name} · cProfile self time by repro package vs span self time",
        f"{'layer':<12}{'cProfile':>10}{'spans':>10}{'diff':>9}",
    ]
    for layer in (*M.SHARES, "other"):
        a, b = profiled.get(layer, 0.0), spans.get(layer, 0.0)
        flag = "  <-- more than 10 points apart" if abs(a - b) > 0.10 else ""
        lines.append(f"{layer:<12}{a:>10.1%}{b:>10.1%}{(a - b) * 100:>+8.1f}p{flag}")
    return "\n".join(lines)


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="keep adding passes this long (and >= 11 passes)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="per-layer metrics from a traced run")
    parser.add_argument("--passes", type=int, help="exact number of passes")
    parser.add_argument("--aa", action="store_true",
                        help="suite: run twice, compare against the bounds")
    parser.add_argument("--profile", action="store_true",
                        help="suite: cProfile cross-check of the layer shares")
    parser.add_argument("--save", type=pathlib.Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload is None:
        RESULTS.mkdir(exist_ok=True)
        return suite(args)
    detail = measure(
        args.workload, args.seed, args.seconds, args.passes, traced=bool(args.trace)
    )
    if args.save is not None:
        args.save.write_text(json.dumps(detail))
    print(render(detail))
    print(exact_line(detail))
    print(driver_line(detail))
    return 1 if detail["problems"] else 0
