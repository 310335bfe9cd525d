"""The DMZ policy holds under any order of allow, revoke and ping
(ROADMAP item 15(c)): :class:`dmz_machine.DmzMachine` on the migrated
site and on the native one, on both executors.  ``DIFFERENTIAL_SCALE``
multiplies the examples."""

import pytest
from hypothesis import settings
from hypothesis.stateful import run_state_machine_as_test

from differential import SCALE
from dmz_machine import EXECUTORS, SITES, machine_for

#: Examples per site and executor, and rules per example.
EXAMPLES = 40
STEPS = 15


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("site", SITES)
def test_a_ping_is_answered_iff_its_pair_is_allowed(site, executor):
    run_state_machine_as_test(
        machine_for(site, executor),
        settings=settings(max_examples=EXAMPLES * SCALE, stateful_step_count=STEPS,
                          deadline=None),
    )
