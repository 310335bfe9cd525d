"""Convergence and probe loss per injected fault, on a migrated leaf-spine.

The scenarios are in ``fault_scenarios.py``; each row here is pinned at
its simulated, deterministic value.
"""

import pytest

from fault_scenarios import controller_loss, converged_as, crash, flap

#: (fault, convergence_s, frames_lost, sweeps); 56 probe pairs a sweep.
ROWS = [
    (flap, 0.25, 0, 1),
    (crash, 0.5, 26, 2),
    (controller_loss, 0.75, 52, 3),
]


@pytest.mark.parametrize("fault, convergence_s, frames_lost, sweeps", ROWS,
                         ids=[row[0].__name__ for row in ROWS])
def test_fault_converges_as_pinned(fault, convergence_s, frames_lost, sweeps):
    row = fault()
    assert converged_as(row, convergence_s, frames_lost, sweeps), row
