"""Tier-1 smoke test of the end-to-end benchmark (tiny sizes, < 10 s).

Checks the instrument, not the program's speed: every metric the
tables name is emitted on the workloads it is defined on, exact
counters repeat, ``BENCHMARK.json`` and ``metrics.py`` agree, and the
tracer puts back everything it replaced.
"""

import json
import pathlib

import pytest

from harmless_e2e import cli, hostspeed, tracing
from harmless_e2e import metrics as M
from harmless_e2e.workloads import WORKLOADS, run_pass
from repro.netsim import Simulator

SEED = 7
#: Frames per pass: a few bursts (the churn workload needs > 256
#: scheduled frames for one allow/revoke to fire).
TINY = 512


BENCHMARK_JSON = pathlib.Path(cli.HERE).parent.parent / "BENCHMARK.json"


@pytest.fixture(autouse=True)
def small_rigs(monkeypatch, tmp_path):
    """Two edges and a spine: three sites to migrate instead of five
    (``fabric_steady``) or nine (``migration_wave``); one build per
    pass; no 0.1 s reference timing around each pass; traces written
    outside the tree."""
    monkeypatch.setattr(WORKLOADS["fabric_steady"], "EDGES", 2)
    monkeypatch.setattr(WORKLOADS["migration_wave"], "EDGES", 2)
    for workload in WORKLOADS.values():
        monkeypatch.setattr(workload, "setup_builds", 1)
    monkeypatch.setattr(cli, "Reference", lambda: lambda: hostspeed.NOMINAL_S / 2)
    monkeypatch.setattr(cli, "RESULTS", tmp_path)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_named_metric_is_emitted(name):
    untraced = cli.measure(name, SEED, seconds=0, passes=2, frames=TINY, traced=False)
    assert untraced["problems"] == []
    expected = [spec.name for spec in M.END_TO_END if name in spec.workloads]
    assert list(untraced["metrics"]) == expected
    assert all(entry["n"] >= 1 for entry in untraced["metrics"].values())
    if WORKLOADS[name].steady:
        assert untraced["metrics"]["frame_loss_ratio"]["median"] == 0
    assert untraced["host_speed"]["median"] == 2.0  # from the fixture's bracket

    traced = cli.measure(name, SEED, seconds=0, passes=1, frames=TINY, traced=True)
    assert traced["problems"] == []
    assert list(traced["metrics"]) == [spec.name for spec in M.PER_LAYER]
    assert traced["sim_digest"] == untraced["sim_digest"]
    assert not hasattr(Simulator.run, "__wrapped__")  # patched per traced pass only
    assert (cli.RESULTS / f"trace-{name}.json").exists()

    bench = json.loads(BENCHMARK_JSON.read_text())
    for detail, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        line = json.loads(cli.driver_line(detail))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
        assert list(line["metrics"]) == [spec["name"] for spec in bench[section]]
        for spec in bench[section]:
            assert line["metrics"][spec["name"]]["unit"] == spec["unit"]


def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads(BENCHMARK_JSON.read_text())
    assert bench["end_to_end"] == M.DRIVER_END_TO_END
    assert bench["per_layer"] == [
        {"name": spec.name, "unit": spec.unit, "better": spec.better}
        for spec in M.PER_LAYER
    ]
    assert [row["name"] for row in bench["workloads"]] == list(WORKLOADS)
    assert bench["run_seconds"] == cli.RUN_SECONDS


@pytest.mark.parametrize("name", ["site_detour", "site_policy_churn"])
def test_exact_counters_repeat_across_same_seed_runs(name):
    first = run_pass(WORKLOADS[name], SEED, TINY)
    second = run_pass(WORKLOADS[name], SEED, TINY)
    other = run_pass(WORKLOADS[name], SEED + 1, TINY)
    assert first.digest == second.digest
    assert first.counters == second.counters
    assert first.digest != other.digest  # the seed reaches the inputs


def test_stopwatch_scales_wall_time_to_nominal_host_speed():
    assert hostspeed.Reference()() > 0
    twice_as_fast = hostspeed.Stopwatch(lambda: hostspeed.NOMINAL_S / 2)
    result, raw_s, nominal_s = twice_as_fast.time(lambda: "done")
    assert result == "done" and nominal_s == raw_s * 2
    _, raw_s, nominal_s = hostspeed.Stopwatch().time(lambda: None)
    assert nominal_s == raw_s


def _definitions():
    wrapped = tracing._targets() + tracing.TIERED + tracing.COUNTED_PROPERTIES
    return {
        (owner, attr): owner.__dict__.get(attr, tracing._MISSING)
        for owner, attr, *_ in wrapped
    }


def test_tracer_restores_every_attribute_even_when_the_call_raises():
    before = _definitions()
    with pytest.raises(ValueError, match="explicit horizon"):
        with tracing.Tracer() as tracer:
            assert all(
                owner.__dict__[attr] is not original
                for (owner, attr), original in before.items()
            )
            tracer.begin_region()
            Simulator().run(inclusive=False)  # raises inside a wrapped call
    after = _definitions()
    assert all(after[key] is before[key] for key in before)
    # The failed call is still a closed span with nothing left open.
    assert tracer._stack == []
    assert tracer._current.calls("Simulator.run") == 1
