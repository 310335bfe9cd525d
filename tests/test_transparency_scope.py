"""Transparency in a small scope, checked exhaustively (ROADMAP item 19).

Every single-entry pipeline of the scope, then every two-entry one,
on a HARMLESS site and on a native one, once per executor; the scope,
its ``OUT_OF_SCOPE`` boundary and the play loop live in
``tests/transparency_scope.py``.  The two-entry scope is 19 460
pipelines, so the nightly job runs it whole (``DIFFERENTIAL_SCALE`` of
5 or more) and tier-1 a seeded sample of ``TWO_ENTRY_SAMPLE`` ×
``DIFFERENTIAL_SCALE``.  The single-entry verdict is played once per
process: the ``XPAR-TRANSP`` claim row reads the same one.
"""

import pytest

from transparency_scope import (
    EXECUTORS, FILTERED, HOST_VLAN, LINK_LOCAL, OUT_OF_SCOPE, SCALE, TWO_ENTRY_SAMPLE,
    WHOLE_SCALE, action_lists, describe, frame_alphabet, is_sublist, look_alike, matches,
    pipelines, sides_for, single_entry_verdict, two_entry_pipelines, two_entry_scope,
)


@pytest.fixture(scope="module", params=EXECUTORS)
def sides(request):
    return sides_for(request.param)


def test_the_scope_is_what_the_docstring_says():
    assert len(matches()) == 10 and len(action_lists()) == 14
    alphabet = frame_alphabet()
    assert len(pipelines()) == 140 and len(alphabet) == 48
    assert [name for name, _ in OUT_OF_SCOPE] == [
        "self-addressed", "learned-on-trunk", "tagged-at-access"
    ]
    assert all(frame.dst != frame.src for _, frame in alphabet)
    # Untagged first, then the same 24 frames tagged by their host.
    assert [frame.tags for _, frame in alphabet[:24]] == [()] * 24
    assert [frame.pop_vlan() for _, frame in alphabet[24:]] == [f for _, f in alphabet[:24]]
    assert {frame.vlan_id for _, frame in alphabet[24:]} == {HOST_VLAN}
    assert sum(frame.dst == LINK_LOCAL for _, frame in alphabet) == 12
    assert is_sublist([1, 3], [1, 2, 3]) and not is_sublist([3, 1], [1, 2, 3])


def executor_of(sides) -> str:
    return "compiled" if sides[1].switch.specialize else "interpreted"


def check_executor(sides, executor: str) -> None:
    if executor == "compiled":
        # Every frame was served compiled on both sides.
        for side in sides:
            assert side.switch.specialized_frames > 0
            assert side.switch.fallback_frames == 0
    else:
        # Not one frame reached a compiled program on either side.
        for side in sides:
            assert side.switch.specialized_frames == 0 and side.switch.program is None


def test_every_single_entry_pipeline_looks_alike(sides):
    executor = executor_of(sides)
    verdict = single_entry_verdict(executor)
    mismatches = verdict.mismatches
    assert not mismatches, f"{len(mismatches)} mismatches:\n" + "\n".join(mismatches[:5])
    assert verdict.filtered == FILTERED
    check_executor(sides, executor)
    if executor == "compiled":
        # Every pipeline of an edit and an output (6 action lists x 10
        # matches) ran the one-edit plan on both sides.
        assert verdict.edit_pipelines == 6 * 10


def test_every_two_entry_pipeline_looks_alike(sides):
    executor = executor_of(sides)
    scope = two_entry_scope()
    assert len(two_entry_pipelines()) == 140 * 139
    assert len(scope) == (140 * 139 if SCALE >= WHOLE_SCALE else TWO_ENTRY_SAMPLE * SCALE)
    mismatches = []
    for high, low in scope:
        for side in sides:
            side.install((*high, 2), (*low, 1))
        mismatches += look_alike(sides, f"{executor} {describe([high, low])}")[0]
    assert not mismatches, f"{len(mismatches)} mismatches:\n" + "\n".join(mismatches[:5])
    check_executor(sides, executor)
