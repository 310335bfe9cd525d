"""The differential kit's guarantees, and the mutation ledger's anchors.

The suites share their generators (``differential.py``), so what the
generators can draw is what every suite can reach: every flow-key field
must appear in some generated match, and every action and instruction
kind in some generated instruction list, at the family settings the
suites use.  The mutation ledger (``mutants.py``, run whole by
``tools/mutants.py``) is only as good as its anchors: each must still
occur exactly once in its file.
"""

import random
from pathlib import Path

import pytest

from repro.openflow import FlowMod, GroupMod, actions, instructions
from repro.openflow.packetview import FLOW_KEY_FIELDS

from differential import (
    CHURN_FAMILIES, MATCH_FAMILIES, compilable_instructions, random_churn_message,
    random_instructions, random_match,
)
from mutants import MUTANTS

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def kinds(module, base) -> set:
    return {
        value for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, base) and value is not base
    }


def test_every_flow_key_field_is_generated():
    rng = random.Random(0xF1E1D)
    drawn = {
        name
        for family in MATCH_FAMILIES.values()
        for _ in range(500)
        for name in random_match(rng, **family).fields
    }
    assert drawn == set(FLOW_KEY_FIELDS)


def test_every_action_and_instruction_kind_is_generated():
    rng = random.Random(0xAC7)
    lists = [compilable_instructions(rng) for _ in range(200)]
    lists += [random_instructions(rng, rng.randint(0, 2)) for _ in range(200)]
    seen_actions = set()
    for family in CHURN_FAMILIES.values():
        for _ in range(500):
            message = random_churn_message(rng, **family)
            if isinstance(message, FlowMod):
                lists.append(message.instructions)
            else:
                assert isinstance(message, GroupMod)
                seen_actions |= {type(a) for b in message.buckets for a in b.actions}
    seen = {type(i) for listed in lists for i in listed}
    seen_actions |= {
        type(action) for listed in lists for i in listed for action in getattr(i, "actions", ())
    }
    assert seen == kinds(instructions, instructions.Instruction)
    assert seen_actions == kinds(actions, actions.Action)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[f"{i}-{m.path}" for i, m in enumerate(MUTANTS)])
def test_every_mutant_anchor_occurs_exactly_once(mutant):
    assert (SRC / mutant.path).read_text().count(mutant.anchor) == 1
    assert mutant.replacement != mutant.anchor
    for name in mutant.killers:
        assert (Path(__file__).parent / name).is_file(), name
