"""Property test: table-0 probe order never changes a lookup result.

The compiler orders its generated probe blocks by descending max
priority, or — as a test hook — by a seeded shuffle.  Ordering is
only a performance lever: each probe block's
guard skips work solely when the running best already beats the
probe's *maximum* priority, and the winner is the global minimum of a
total order ``(-priority, installed_at, seq)``, so every permutation
must select the same entry for every packet.  This suite compiles the
same randomized rule sets under the priority order and several
shuffle seeds and asserts decision-for-decision equality across ≥1000
randomized lookups, including mortal entries probed at times before
and after their expiry.
"""

import random

from test_specialized_differential import (
    build_rig,
    compilable_instructions,
    random_churn_message,
    random_frame,
    random_match,
)

from repro.openflow import FlowMod
from repro.softswitch import DatapathCostModel, compile_datapath

#: Shuffle seeds compared against the priority-ordered baseline.
ORDERS = (0, 1, 17, 0xC0FFEE)


def build_random_switch(rng: random.Random):
    rig = build_rig(DatapathCostModel.zero(), specialize=True)
    _, switch, _, _ = rig
    for _ in range(rng.randint(4, 14)):
        message = random_churn_message(rng)
        switch.handle_message(message.to_bytes())
    # A couple of mortal rules so the mortal probe loops get permuted too.
    for _ in range(rng.randint(0, 3)):
        switch.handle_message(
            FlowMod(
                match=random_match(rng),
                priority=rng.randint(0, 30),
                hard_timeout=rng.choice((1, 2)),
                instructions=compilable_instructions(rng),
            ).to_bytes()
        )
    return rig, switch


def test_probe_order_invariance():
    rng = random.Random(0x0D0E)
    cases = 0
    rulesets = 0
    while cases < 1000:
        rulesets += 1
        _, switch = build_random_switch(rng)
        # Traffic first: counters and expiry clocks move, the order
        # must not care.
        for _ in range(8):
            switch.inject(random_frame(rng), rng.randint(1, 3))
        base = compile_datapath(switch)
        assert base is not None
        variants = []
        for order in ORDERS:
            program = compile_datapath(switch, probe_order=order)
            assert program is not None and program.probe_order == order
            variants.append(program)
        for _ in range(12):
            frame = random_frame(rng)
            in_port = rng.randint(1, 3)
            now = rng.choice((0.0, 0.4, 1.5, 3.0))  # straddles mortal expiry
            expected = base.classify(frame, in_port, now)
            for order, program in zip(ORDERS, variants):
                got = program.classify(frame, in_port, now)
                assert got == expected, (
                    f"probe order {order!r} diverged (ruleset {rulesets}, "
                    f"now={now}): {got} != {expected}"
                )
                cases += 1
    assert cases >= 1000
