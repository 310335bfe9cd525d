"""Randomized differential proof for the burst-mode datapath.

`SoftSwitch.process_batch` is only allowed to exist because it is
semantics-free: a burst must produce byte-identical emitted frames in
identical order — and identical packet-ins and flow/table/group
counters — to the same frames pushed one at a time through
`receive()`/`inject()`.  A switch with no active program runs a burst
as exactly that loop; one with a compiled program amortises it.  The suite drives two identically-provisioned
switches through ≥1000 randomly generated bursts, with control-plane
churn (FlowMod add/delete/modify with timeouts, GroupMod) and simulated
time advancing between bursts so multi-table walks, group selection,
entry expiry (both the sweeper and the lazy per-lookup check) and both
executors (the compiled program; the interpreter while a write-actions
rule makes the compiler reject the pipeline) are all
covered, under both a zero-cost model (batched egress) and the eswitch
cost model (deferred per-frame emission).  Each model runs twice: once
replaying a pool of per-flow template objects, and once with every
injected frame a *fresh object* — what a softswitch behind a legacy
hop actually sees, since the push that tagged the frame just built it.

Generators, rig, comparator and run loop come from ``differential.py``.
"""

import random
from functools import partial

from repro.net import EthernetFrame
from repro.net.build import tcp_frame, udp_frame
from repro.net.tcp import TcpSegment
from repro.openflow import (
    ApplyActions,
    FlowMod,
    GotoTable,
    GroupAction,
    Match,
    OutputAction,
    SetFieldAction,
    WriteActions,
)
from repro.openflow import consts as c
from repro.openflow.messages import PacketIn, parse_message
from repro.softswitch import DatapathCostModel, ESWITCH_COST_MODEL
from repro.traffic import BurstSource

from differential import (
    CHURN_FAMILIES, IPS, MACS, PORTS, SCALE, SELECT_GROUP, ZERO_COST, assert_identical,
    build_rig, output, random_churn_message, random_frame, run_differential,
)


#: Multi-table pipeline: goto chains, a select group, a mortal flow,
#: a packet-in rule — every plan shape the compiler bakes.
PIPELINE = (
    SELECT_GROUP,
    FlowMod(table_id=0, priority=10, match=Match(in_port=1), instructions=[GotoTable(table_id=1)]),
    FlowMod(table_id=0, priority=5, instructions=output(3),
            match=Match(eth_type=0x0800, ipv4_dst=("10.0.1.0", "255.255.255.0"))),
    FlowMod(  # expires mid-run: exercises sweeper + lazy validation
        table_id=0, priority=7, match=Match(eth_type=0x0800, udp_dst=8080), hard_timeout=2,
        instructions=output(2),
    ),
    FlowMod(
        table_id=1, priority=20, match=Match(eth_type=0x0800, udp_dst=53),
        instructions=[ApplyActions(actions=(
            GroupAction(group_id=1), SetFieldAction(field="eth_dst", value=int(MACS[3])),
        ))],
    ),
    FlowMod(table_id=1, priority=15, match=Match(eth_type=0x0800, tcp_dst=443),
            instructions=output(c.OFPP_CONTROLLER)),
    FlowMod(table_id=1, priority=1, match=Match(),
            instructions=[*output(2), GotoTable(table_id=2)]),
    FlowMod(table_id=2, priority=0, match=Match(), instructions=[]),
)


#: Replaces PIPELINE's table-1 fallthrough rule with its action-set
#: twin, which the compiler does not reproduce: the whole pipeline is
#: interpreted until the rule is put back.
REJECTED_RULE = FlowMod(table_id=1, priority=1, match=Match(), instructions=[
    WriteActions(actions=(OutputAction(port=2),)), GotoTable(table_id=2),
])
COMPILABLE_RULE = PIPELINE[-2]


def batch_vs_sequential(fresh_objects):
    """Rig 0 takes each burst through ``process_batch``, rig 1 frame by
    frame through ``inject``; with *fresh_objects* no object is seen
    twice, by either switch."""

    def feed(rng, rigs, in_port, frames):
        batch, seq = (rig.switch for rig in rigs)
        copy = EthernetFrame.copy if fresh_objects else (lambda frame: frame)
        batch.process_batch(in_port, [copy(frame) for frame in frames])
        for frame in frames:
            seq.inject(copy(frame), in_port)

    return feed


def run_batch_differential(seed, rounds, bursts_per_round, cost_model, fresh_objects=False):
    """Returns how many bursts were compared."""

    def scripted(index, rigs):  # rejected, then compilable
        if index in (0, bursts_per_round // 2):
            rule = (REJECTED_RULE if index == 0 else COMPILABLE_RULE).to_bytes()
            assert [rig.switch.handle_message(rule) for rig in rigs] == [[], []]

    def both_executors_served(rigs):
        # The interpreter while the write-actions rule was installed,
        # the compiled program after.
        batch = rigs[0].switch
        assert batch.specialized_frames > 0 and batch.fallback_frames > 0

    return run_differential(
        seed, rounds, bursts_per_round,
        lambda: [build_rig(PIPELINE, cost_model=cost_model, controller=True) for _ in range(2)],
        partial(random_churn_message, **CHURN_FAMILIES["walk"]), churn_prob=0.25,
        feed=batch_vs_sequential(fresh_objects), before_burst=scripted,
        after_round=both_executors_served, fresh_objects=fresh_objects,
    )


class TestBatchDifferential:
    def test_zero_cost_batched_egress(self):
        """≥600 bursts with immediate (coalesced) egress."""
        assert run_batch_differential(0xB4757, rounds=6, bursts_per_round=100 * SCALE,
                                      cost_model=ZERO_COST) == 600 * SCALE

    def test_eswitch_cost_deferred_emission(self):
        """≥400 bursts where every emission defers past the CPU charge."""
        assert run_batch_differential(0xE5717C4, rounds=4, bursts_per_round=100 * SCALE,
                                      cost_model=ESWITCH_COST_MODEL) == 400 * SCALE

    def test_fresh_objects_zero_cost(self):
        """The same suite with no frame object injected twice."""
        assert run_batch_differential(0xF4E5B, rounds=6, bursts_per_round=100 * SCALE,
                                      cost_model=ZERO_COST, fresh_objects=True) == 600 * SCALE

    def test_fresh_objects_eswitch_cost(self):
        assert run_batch_differential(0xF4E5C, rounds=4, bursts_per_round=100 * SCALE,
                                      cost_model=ESWITCH_COST_MODEL,
                                      fresh_objects=True) == 400 * SCALE

    def test_synchronous_reactive_controller_mid_burst(self):
        """A zero-latency controller wired straight back into
        handle_message installs flows *between frames of one burst*
        (packet-in for frame i reprograms the pipeline before frame
        i+1).  The batch path must deliver packet-ins at the same
        per-frame points as sequential processing, so the reactive
        installs — and the program patches they trigger mid-burst —
        land identically."""
        rigs = []
        stat_logs = []
        for _ in range(2):
            rig = build_rig(PIPELINE, controller=True)
            _, switch, _, packet_ins = rig
            # What a stats-polling controller would observe at each
            # packet-in: forwarding totals must match sequential exactly.
            stats_seen: list[tuple] = []
            stat_logs.append(stats_seen)

            def reactive(raw, switch=switch, log=packet_ins, seen=stats_seen):
                log.append(raw)
                message = parse_message(raw)
                if not isinstance(message, PacketIn):
                    return
                seen.append(
                    (
                        switch.packets_forwarded,
                        switch.packets_to_controller,
                        tuple(
                            switch.ports[n].tx_frames for n in sorted(switch.ports)
                        ),
                    )
                )
                frame = EthernetFrame.from_bytes(message.data)
                # Learn the source: next frames bypass the controller.
                switch.handle_message(
                    FlowMod(
                        table_id=1,
                        priority=30,
                        match=Match(
                            eth_type=0x0800, tcp_dst=443, eth_src=int(frame.src)
                        ),
                        instructions=[
                            ApplyActions(actions=(OutputAction(port=2),))
                        ],
                    ).to_bytes()
                )

            switch.to_controller = reactive
            rigs.append(rig)
        batch_rig, seq_rig = rigs
        rng = random.Random(0x5EAC7)
        # Mostly tcp/443 (the packet-in rule), several sources, so the
        # same flow repeats within a burst around its learning moment.
        pool = [
            tcp_frame(
                rng.choice(MACS), rng.choice(MACS),
                rng.choice(IPS), rng.choice(IPS),
                TcpSegment(rng.choice(PORTS), 443),
            )
            for _ in range(10)
        ] + [random_frame(rng) for _ in range(4)]
        for _ in range(120):
            frames = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(2, 10))]
            batch_rig[1].process_batch(1, list(frames))
            for frame in frames:
                seq_rig[1].inject(frame, 1)
        batch_rig[0].run()
        seq_rig[0].run()
        assert batch_rig[3]  # the controller actually saw packet-ins
        assert len(batch_rig[1].tables[1]) >= 6  # ...and learned ≥3 sources
        assert stat_logs[0] == stat_logs[1]  # per-packet-in stats parity
        assert_identical(batch_rig, seq_rig)

    def test_burst_of_one_delegates_to_single_frame_path(self):
        rig_a, rig_b = build_rig(PIPELINE, controller=True), build_rig(PIPELINE, controller=True)
        frame = udp_frame(MACS[0], MACS[1], IPS[0], IPS[1], 1000, 53, b"x")
        rig_a[1].process_batch(1, [frame])
        rig_b[1].inject(frame, 1)
        rig_a[0].run()
        rig_b[0].run()
        assert_identical(rig_a, rig_b)

    def test_empty_batch_is_a_no_op(self):
        sim, switch, _, _ = build_rig(PIPELINE, controller=True)
        switch.process_batch(1, [])
        sim.run()
        assert switch.packets_forwarded == 0

    def test_linear_config_batches_identically(self):
        """The linear interpreter: its batch loop must still match."""
        rng = random.Random(0x11E4)
        rigs = [build_rig(PIPELINE, controller=True, enable_specialization=False) for _ in range(2)]
        pool = [random_frame(rng) for _ in range(12)]
        for _ in range(60):
            frames = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(2, 8))]
            rigs[0][1].process_batch(1, list(frames))
            for frame in frames:
                rigs[1][1].inject(frame, 1)
        rigs[0].sim.run()
        rigs[1].sim.run()
        assert_identical(*rigs)


def test_cost_model_swap_charges_the_next_frame():
    """Reassigning cost_model on a live switch charges the next frame
    by the new model, a zero one included."""
    sim, switch, _, _ = build_rig(PIPELINE, controller=True)
    frame = udp_frame(MACS[0], MACS[1], IPS[0], IPS[1], 1000, 80, b"x")
    switch.inject(frame, 1)
    assert switch.busy_until == 0.0  # zero model: processing is free
    switch.cost_model = ESWITCH_COST_MODEL
    assert switch.cost_model is ESWITCH_COST_MODEL
    switch.inject(frame, 1)
    assert switch.busy_until > 0.0  # eswitch model charges again
    switch.cost_model = DatapathCostModel.zero()
    busy = switch.busy_until
    switch.inject(frame, 1)
    assert switch.busy_until == busy  # back to free


class TestBurstThroughLinks:
    """The full stack: BurstSource -> link burst -> receive_burst."""

    def build(self):
        rig = build_rig(PIPELINE, controller=True, ingress=lambda sim: BurstSource(sim, "gen"))
        return rig, rig.switch.ports[1].peer.node

    def test_burst_source_matches_per_frame_sends(self):
        rng = random.Random(0x50C4)
        pool = [random_frame(rng) for _ in range(16)]
        bursts = [
            (round(0.01 * i, 6),
             [pool[rng.randrange(len(pool))] for _ in range(rng.randint(1, 10))])
            for i in range(50)
        ]
        batch_rig, source = self.build()
        source.start(bursts)
        batch_rig.sim.run_until_idle()

        seq_rig, source_b = self.build()
        port = source_b.port0
        for start, frames in bursts:
            seq_rig.sim.schedule_at(
                start,
                lambda fs=frames, p=port: [p.send(f) for f in fs],
            )
        seq_rig.sim.run_until_idle()

        assert source.sent == sum(len(frames) for _, frames in bursts)
        assert_identical(batch_rig, seq_rig)
