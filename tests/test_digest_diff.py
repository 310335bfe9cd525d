"""``tools/digest_diff.py``'s diff of two ``sim_digest`` states: every
moved key path, with both values, and nothing for equal states."""

import importlib.util
import pathlib

import pytest

DIGEST_DIFF = pathlib.Path(__file__).parent.parent / "tools" / "digest_diff.py"


@pytest.fixture(scope="module")
def digest_diff():
    spec = importlib.util.spec_from_file_location("digest_diff", DIGEST_DIFF)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


STATE = {
    "now": "0.25",
    "events": 10,
    "endpoints": {"h1": 3, "h2": 0},
    "softswitch": [{"flow_mods": 4, "drops": {}, "specialization": {"compiles": 1}}],
    "links": [[{"frames": 2}, {"frames": 5}]],
}


def test_equal_states_move_nothing(digest_diff):
    assert digest_diff.diff_states(STATE, STATE) == []


def test_every_moved_path_is_named_with_both_values(digest_diff):
    change = {
        **STATE,
        "events": 12,
        "softswitch": [{"flow_mods": 6, "drops": {"table-miss": 1},
                        "specialization": {"compiles": 1}}],
        "links": [[{"frames": 2}, {"frames": 5}], []],
    }
    assert digest_diff.diff_states(STATE, change) == [
        ("events", 10, 12),
        ("links[1]", digest_diff.ABSENT, []),
        ("softswitch[0].drops", {}, digest_diff.ABSENT),
        ("softswitch[0].drops.table-miss", digest_diff.ABSENT, 1),
        ("softswitch[0].flow_mods", 4, 6),
    ]


def test_flatten_keeps_every_leaf(digest_diff):
    flat = digest_diff.flatten(STATE)
    assert flat["endpoints.h2"] == 0 and flat["links[0][1].frames"] == 5
    assert flat["softswitch[0].drops"] == {} and len(flat) == 9
