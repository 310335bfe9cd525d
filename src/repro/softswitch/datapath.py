"""The software switch datapath: pipeline execution + control channel.

Pipeline semantics follow OpenFlow 1.3 §5: per-table lookup, apply-
actions executed immediately, write-actions accumulated into the action
set, goto-table to continue, and action-set execution (pops, pushes,
sets, then the one output/group) when the pipeline ends.  Table miss
drops unless a table-miss flow (priority 0, match-all) says otherwise —
exactly the behaviour a controller program sees on real hardware.
"""

from __future__ import annotations

import struct
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

from repro.net.ethernet import EthernetFrame
from repro.netsim.node import Node, Port
from repro.netsim.simulator import Simulator
from repro.openflow import consts as c
from repro.openflow.actions import (
    Action,
    GroupAction,
    OutputAction,
    PopVlanAction,
    PushVlanAction,
    SetFieldAction,
)
from repro.openflow.instructions import (
    ApplyActions,
    ClearActions,
    GotoTable,
    WriteActions,
)
from repro.openflow.match import Match
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMsg,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowRemoved,
    FlowStatsEntry,
    FlowStatsReply,
    FlowStatsRequest,
    GroupMod,
    Hello,
    OpenFlowMessage,
    PacketIn,
    PacketOut,
    PortStatsEntry,
    PortStatsReply,
    PortStatsRequest,
    parse_message,
)
from repro.openflow.packetview import PacketView
from repro.softswitch.compiler import (
    CompiledProgram,
    compile_datapath,
    uncompilable_reason,
)
from repro.softswitch.costmodel import DatapathCostModel, ESWITCH_COST_MODEL
from repro.softswitch.flowtable import FlowEntry, FlowTable
from repro.softswitch.groups import SELECT_HASH_FIELDS, GroupTable

#: How often expired flows are swept (also checked lazily on lookup).
EXPIRY_SWEEP_INTERVAL_S = 1.0

#: The reasons in ``SoftSwitch.drops`` that ``packets_dropped`` sums.
#: The one other reason, ``action-drop``, is left out: it never had a
#: counter of its own.
COUNTED_DROPS = ("table-miss", "no-such-port", "no-such-group", "empty-group")


def _bad_request(xid: int, code: int, raw: bytes) -> bytes:
    """An OFPET_BAD_REQUEST error carrying the first 64 bytes of *raw*."""
    return ErrorMsg(xid=xid, error_type=1, code=code, data=raw[:64]).to_bytes()


def _is_zero_cost(model: DatapathCostModel) -> bool:
    """True when every cost coefficient is zero (wall-clock benches):
    lets the charge path skip the per-packet cost_s() call while
    keeping busy_until bookkeeping bit-identical.  The exact-type check
    keeps subclasses with overridden cost_s() off the shortcut."""
    return type(model) is DatapathCostModel and not (
        model.base_ns
        or model.lookup_ns
        or model.action_ns
        or model.vlan_op_ns
        or model.group_ns
        or model.patch_ns
    )


@dataclass
class PipelineStats:
    """What one packet's pipeline walk cost (for the cost model)."""

    lookups: int = 0
    actions: int = 0
    vlan_ops: int = 0
    group_selections: int = 0


class SoftSwitch(Node):
    """An OpenFlow 1.3 software switch.

    The controller talks to it through ``handle_message`` (serialised
    request bytes in, response list out) plus the ``to_controller``
    callback for asynchronous messages (packet-in, flow-removed) — the
    :mod:`repro.controller` channel wires both ends together with a
    configurable latency.
    """

    #: There is no flow cache.  The frozen benchmark's tracer
    #: (benchmarks/e2e/harmless_e2e/tracing.py, ``_wrap_tiered``) reads
    #: this name and tolerates None; it goes when a ``benchmark`` PR
    #: drops that read.
    flow_cache = None

    def __init__(
        self,
        sim: Simulator,
        name: str,
        datapath_id: int,
        num_tables: int = 4,
        cost_model: DatapathCostModel = ESWITCH_COST_MODEL,
        enable_fast_path: bool = True,
        enable_specialization: "bool | None" = None,
    ) -> None:
        super().__init__(sim, name)
        self.datapath_id = datapath_id
        self.tables = [FlowTable(table_id) for table_id in range(num_tables)]
        self.groups = GroupTable()
        #: Table lookups go through the bucketed classifier; False
        #: selects the seed ``FlowTable.linear_lookup`` scan, the
        #: reference the differential suites compare against.
        self.fast_path = enable_fast_path
        #: The ESwitch-style specialized program compiled from the
        #: installed pipeline (see repro.softswitch.compiler).
        #: Defaults to following the fast-path switch so "interpreted
        #: seed" configurations stay fully interpreted.
        self.specialize = (
            enable_fast_path if enable_specialization is None else enable_specialization
        )
        self._program: "Optional[CompiledProgram]" = None
        #: The pipeline changed since the last compile attempt: the next
        #: frame regenerates.  False on a fresh switch (nothing to
        #: compile until a FlowMod lands) and after a rejected attempt.
        self._compile_pending = False
        self.program_compiles = 0
        self.program_compile_failures = 0
        self.program_invalidations = 0
        #: Mutations the active program absorbed in place (content-only:
        #: its derived decisions were flushed, its code kept).
        self.program_patches = 0
        #: Why the last active program was discarded (None: never).
        self.last_regenerate_reason: "Optional[str]" = None
        #: Frames served by the compiled program / by the interpreter
        #: while specialization was enabled (a rejected pipeline, or no
        #: rule installed yet).
        self.specialized_frames = 0
        self.fallback_frames = 0
        #: Why the last compile attempt rejected the pipeline (None: it
        #: compiled, or none was made).  Written by ``compile_datapath``;
        #: a patched program compiles clean by construction.
        self.compile_ineligible_reason: "Optional[str]" = None
        # Not through the setter: construction is not a model swap, and
        # a fresh switch should not recompile until a FlowMod lands.
        self._cost_model = cost_model
        self._cost_is_zero = _is_zero_cost(cost_model)
        #: Fields hashed for select-group bucket choice.  The OpenFlow
        #: spec leaves the selection algorithm to the implementation;
        #: like OVS's selection_method this is switch configuration.
        self.select_hash_fields: tuple[str, ...] = SELECT_HASH_FIELDS
        self.to_controller: "Optional[Callable[[bytes], None]]" = None
        self.packets_forwarded = 0
        #: Why frames (or single outputs of a frame) died here, reason ->
        #: count, identical on both executors.  Not in ``stats()``.
        self.drops: "defaultdict[str, int]" = defaultdict(int)
        self.packets_to_controller = 0
        self.busy_until = 0.0
        self._xid = 0
        self._sweep_scheduled = False
        self._tx_buffer: list[tuple[int, EthernetFrame]] = []
        self._async_buffer: list[OpenFlowMessage] = []

    @property
    def cost_model(self) -> DatapathCostModel:
        return self._cost_model

    @cost_model.setter
    def cost_model(self, model: DatapathCostModel) -> None:
        self._cost_model = model
        self._cost_is_zero = _is_zero_cost(model)
        # Compiled programs bake per-plan cost constants; swapping the
        # model on a live switch must force a recompile.
        self._mark_program_stale("cost model swapped")

    # ------------------------------------------------- datapath specialization

    def _mark_program_stale(self, reason: "Optional[str]") -> None:
        """A mutation the compiled program cannot absorb landed.

        The generated code no longer describes the pipeline, so it is
        discarded now; the next frame regenerates it
        (:meth:`_active_program`) — lazily, so a run of mods with no
        traffic between them costs one regenerate.
        """
        self._compile_pending = True
        if self._program is not None:
            self._program = None
            self.program_invalidations += 1
            self.last_regenerate_reason = reason

    def _pipeline_mutated(
        self,
        dead: "list[FlowEntry] | tuple" = (),
        breaks_shape: "Optional[Callable[[CompiledProgram], Optional[str]]]" = None,
    ) -> None:
        """A FlowMod, GroupMod or expiry sweep changed the pipeline.

        *dead* are the entries it removed or rewrote.  *breaks_shape*
        asks the active program for its verdict on the change
        (``CompiledProgram.add_breaks_shape`` and friends; omitted for
        deletes and expiry, which cannot outgrow generated code).  An
        intact shape is patched synchronously — the derived decisions
        are flushed, the code stays — and only a broken one is
        discarded.
        """
        program = self._program
        reason = None
        if program is not None:
            if breaks_shape is not None:
                reason = breaks_shape(program)
            if reason is None:
                program.flush(dead)
                self.program_patches += 1
                return
        self._mark_program_stale(reason)

    def reset_pipeline(self) -> None:
        """Power-cycle the forwarding state (switch crash/restart).

        Flow tables and groups are rebuilt empty — even the table-miss
        entry is gone until a controller reinstalls it, so every packet
        drops on miss, exactly like a rebooted switch before its
        handshake completes.  Any compiled program is discarded, since
        it memoises walks of tables that no longer exist.  Forwarding
        counters survive (they model an external observer, not switch
        RAM).
        """
        self.tables = [FlowTable(table_id) for table_id in range(len(self.tables))]
        self.groups = GroupTable()
        self._mark_program_stale("pipeline reset")

    @property
    def program(self) -> "Optional[CompiledProgram]":
        """The currently-active specialized program, if any (read-only)."""
        return self._program

    def _active_program(self) -> "Optional[CompiledProgram]":
        """The current compiled program, regenerated if a mutation
        discarded it.

        Stale programs are never returned — ``_mark_program_stale``
        drops them synchronously, and a patched one is current by
        construction.  A regenerate costs codegen + ``exec`` (the code
        object of a seen shape is shared, see the compiler), so nothing
        waits for it; a pipeline the compiler rejects leaves the switch
        interpreted, one attempt per mutation.
        """
        program = self._program
        if program is None and self._compile_pending:
            self._compile_pending = False
            program = self._program = compile_datapath(self)
            if program is None:
                self.program_compile_failures += 1
            else:
                self.program_compiles += 1
        return program

    @property
    def packets_dropped(self) -> int:
        """Frames and outputs lost to a miss, a missing port or a
        missing/empty group: the sum of those reasons in ``drops``."""
        drops = self.drops  # .get: reading must not add zero-valued keys
        return sum(drops.get(reason, 0) for reason in COUNTED_DROPS)

    def stats(self) -> dict:
        """Datapath counters: forwarding and specialization."""
        return {
            "packets_forwarded": self.packets_forwarded,
            "packets_dropped": self.packets_dropped,
            "packets_to_controller": self.packets_to_controller,
            "specialization": {
                "enabled": self.specialize,
                "active": self._program is not None,
                "compiles": self.program_compiles,
                "compile_failures": self.program_compile_failures,
                "invalidations": self.program_invalidations,
                "patches": self.program_patches,
                "last_regenerate_reason": self.last_regenerate_reason,
                "compile_pending": self._compile_pending,
                "specialized_frames": self.specialized_frames,
                "fallback_frames": self.fallback_frames,
                "ineligible_reason": self.compile_ineligible_reason,
            },
        }

    # ---------------------------------------------------------- data plane

    # The three entry points below are one line each: a single frame is
    # a burst of one, and ``process_batch`` is the only definition of
    # frame handling.  All four names stay: the frozen benchmark's
    # tracer wraps each of them.

    def receive(self, port: Port, frame: EthernetFrame) -> None:
        self.process_batch(port.number, [frame])

    def receive_burst(
        self, port: Port, frames: "list[EthernetFrame]", arrivals: "list[float]"
    ) -> None:
        self.process_batch(port.number, frames)

    def inject(self, frame: EthernetFrame, in_port: int) -> None:
        """Run a frame through the pipeline as if it arrived on *in_port*."""
        self.process_batch(in_port, [frame])

    def process_batch(
        self, in_port: int, frames: "list[EthernetFrame]"
    ) -> None:
        """Run *frames*, arrived on *in_port* at one simulated instant,
        through the pipeline.

        The active compiled program serves them
        (``CompiledProgram.run_burst``: one key-cache read per frame,
        one egress call per port); without one each frame goes through
        the reference interpreter in turn.  Either way the result is
        the frames' sequential walks, bit for bit — the frames each
        port emits and their order, packet-ins and counters (the
        differential suites pin it).  Each frame's outputs leave after
        its CPU cost, so the cost model shows up as forwarding latency.
        """
        if self.specialize:
            program = self._program or self._active_program()
            if program is not None:
                program.run_burst(in_port, frames)
                return
        for frame in frames:
            self._interpret_one(frame, in_port)

    def _interpret_one(self, frame: EthernetFrame, in_port: int) -> None:
        """One frame through the reference interpreter: specialization
        is off, or no program is active (the compiler rejected the
        pipeline, or nothing was installed yet) — never a frame of a
        compiled program.  Does all of its own counting.  Outputs are
        buffered during the walk and leave after its CPU cost.
        """
        if self.specialize:
            self.fallback_frames += 1
        stats = PipelineStats()
        drops = self.drops
        counted = sum(drops.values())
        outputs, async_messages = self._buffered(self._run_pipeline, frame, in_port, stats)
        if not outputs and not async_messages and sum(drops.values()) == counted:
            drops["action-drop"] += 1  # matched, emitted nothing, lost nothing else
        self._flush(outputs, async_messages, stats)

    def _buffered(
        self, runner, *args
    ) -> "tuple[list[tuple[int, EthernetFrame]], list[OpenFlowMessage]]":
        """Run *runner* against fresh emission buffers; return what it buffered.

        The previous buffers are saved and restored, so a packet-out
        handled while a pipeline walk is in flight (reentrant controller
        callbacks) can never drop the walk's buffered outputs.
        """
        saved_tx, saved_async = self._tx_buffer, self._async_buffer
        self._tx_buffer, self._async_buffer = [], []
        try:
            runner(*args)
            return self._tx_buffer, self._async_buffer
        finally:
            self._tx_buffer, self._async_buffer = saved_tx, saved_async

    def _flush(
        self,
        outputs: "list[tuple[int, EthernetFrame]]",
        async_messages: "list[OpenFlowMessage]",
        stats: PipelineStats,
    ) -> None:
        finish = self._charge(stats)
        if not outputs and not async_messages:
            return
        if finish <= self.sim.now:
            self._emit(outputs, async_messages)
        else:
            self.sim.schedule_at(finish, self._emit, outputs, async_messages)

    def _emit(
        self,
        outputs: "list[tuple[int, EthernetFrame]]",
        async_messages: "list[OpenFlowMessage]",
    ) -> None:
        """One frame's buffered emissions, frame-at-a-time on the wire."""
        ports = self.ports
        for port_number, out_frame in outputs:
            self.packets_forwarded += 1
            ports[port_number].send(out_frame)
        for message in async_messages:
            self._send_async(message)

    def _emit_one(self, port_number: int, frame: EthernetFrame) -> None:
        """``_emit([(port_number, frame)], ())`` as its own event: the
        compiled program's deferred single output."""
        self.packets_forwarded += 1
        self.ports[port_number].send(frame)

    def _charge(self, stats: PipelineStats) -> float:
        """Account CPU time for a pipeline walk (serialises the core).

        Returns the simulated time at which processing completes.
        """
        if self._cost_is_zero:
            start = self.sim.now
            if self.busy_until > start:
                start = self.busy_until
            self.busy_until = start
            return start
        cost = self.cost_model.cost_s(
            lookups=stats.lookups,
            actions=stats.actions,
            vlan_ops=stats.vlan_ops,
            group_selections=stats.group_selections,
        )
        start = max(self.sim.now, self.busy_until)
        self.busy_until = start + cost
        return self.busy_until

    def _run_pipeline(
        self, frame: EthernetFrame, in_port: int, stats: PipelineStats
    ) -> None:
        """The reference interpreter: one frame's walk through the tables."""
        now = self.sim.now
        tables = self.tables
        view = PacketView(frame, in_port)
        current = frame
        action_set: dict[str, Action] = {}
        table_id = 0
        while table_id < len(tables):
            if view.frame is not current:
                view = PacketView(current, in_port)
            table = tables[table_id]
            entry = (
                table.lookup(view, now)
                if self.fast_path
                else table.linear_lookup(view, now)
            )
            stats.lookups += 1
            if entry is None:
                self.drops["table-miss"] += 1
                return
            current, next_table = self._execute_entry(
                entry, current, in_port, stats, action_set, now
            )
            if next_table is None:
                break
            # Strictly increasing: _handle_flow_mod rejects any other goto.
            table_id = next_table
        if action_set:
            ordered = self._order_action_set(action_set)
            self._apply_actions(ordered, current, in_port, stats)
        # No action set and no outputs along the way: packet is dropped
        # implicitly (already accounted where applicable).

    def _execute_entry(
        self,
        entry: FlowEntry,
        current: EthernetFrame,
        in_port: int,
        stats: PipelineStats,
        action_set: "dict[str, Action]",
        now: float,
    ) -> "tuple[EthernetFrame, int | None]":
        """Run one matched entry's instructions (counters, touch, actions)."""
        entry.touch(now, current.wire_length)
        next_table: "int | None" = None
        for instruction in entry.instructions:
            if isinstance(instruction, ApplyActions):
                current = self._apply_actions(
                    list(instruction.actions), current, in_port, stats
                )
            elif isinstance(instruction, WriteActions):
                for action in instruction.actions:
                    action_set[self._action_set_key(action)] = action
            elif isinstance(instruction, ClearActions):
                action_set.clear()
            elif isinstance(instruction, GotoTable):
                next_table = instruction.table_id
        return current, next_table

    @staticmethod
    def _action_set_key(action: Action) -> str:
        # One action of each kind in the set; output/group share a slot
        # (group takes precedence per spec).
        if isinstance(action, (OutputAction, GroupAction)):
            return "output"
        return type(action).__name__

    @staticmethod
    def _order_action_set(action_set: dict[str, Action]) -> list[Action]:
        """Spec order: pop, push, set-field, then output/group last."""
        precedence = {
            "PopVlanAction": 0,
            "PushVlanAction": 1,
            "SetFieldAction": 2,
            "output": 3,
        }
        return [
            action
            for _, action in sorted(
                action_set.items(), key=lambda item: precedence.get(item[0], 2)
            )
        ]

    def _apply_actions(
        self,
        actions: list[Action],
        frame: EthernetFrame,
        in_port: int,
        stats: PipelineStats,
    ) -> EthernetFrame:
        """Execute *actions* in order, returning the transformed frame."""
        current = frame
        for action in actions:
            stats.actions += 1
            if isinstance(action, OutputAction):
                self._output(current, action, in_port)
            elif isinstance(action, GroupAction):
                self._run_group(current, action.group_id, in_port, stats)
            elif isinstance(action, (PushVlanAction, PopVlanAction)):
                stats.vlan_ops += 1
                current = action.apply(current)
            else:
                current = action.apply(current)
        return current

    def _output(self, frame: EthernetFrame, action: OutputAction, in_port: int) -> None:
        port_no = action.port
        if port_no == c.OFPP_CONTROLLER:
            self._send_packet_in(
                frame, in_port, reason=c.OFPR_ACTION, max_len=action.max_len
            )
            return
        if port_no in (c.OFPP_FLOOD, c.OFPP_ALL):
            for number in sorted(self.ports):
                if number != in_port:
                    self._transmit(number, frame)
            return
        if port_no == c.OFPP_IN_PORT:
            self._transmit(in_port, frame)
            return
        if port_no in self.ports:
            self._transmit(port_no, frame)
        else:
            self.drops["no-such-port"] += 1

    def _transmit(self, port_number: int, frame: EthernetFrame) -> None:
        self._tx_buffer.append((port_number, frame))

    def _run_group(
        self, frame: EthernetFrame, group_id: int, in_port: int, stats: PipelineStats
    ) -> None:
        entry = self.groups.get(group_id)
        if entry is None:
            self.drops["no-such-group"] += 1
            return
        entry.packet_count += 1
        if entry.group_type == c.OFPGT_ALL:
            for index, bucket in enumerate(entry.buckets):
                entry.bucket_packet_counts[index] += 1
                self._apply_actions(list(bucket.actions), frame.copy(), in_port, stats)
            return
        view = PacketView(frame, in_port)
        stats.group_selections += 1
        if entry.group_type == c.OFPGT_SELECT:
            index = entry.select_bucket(view, hash_fields=self.select_hash_fields)
        else:  # indirect
            index = 0 if entry.buckets else None
        if index is None:
            self.drops["empty-group"] += 1
            return
        entry.bucket_packet_counts[index] += 1
        self._apply_actions(list(entry.buckets[index].actions), frame, in_port, stats)

    # -------------------------------------------------------- controller IO

    def _next_xid(self) -> int:
        self._xid += 1
        return self._xid

    def _send_async(self, message: OpenFlowMessage) -> None:
        if self.to_controller is not None:
            self.to_controller(message.to_bytes())
        elif isinstance(message, PacketIn):
            # Counted in packets_to_controller, lost here: say so.
            self.drops["to-controller:unattached"] += 1

    def _send_packet_in(
        self,
        frame: EthernetFrame,
        in_port: int,
        reason: int,
        max_len: int = c.OFPCML_NO_BUFFER,
    ) -> None:
        self.packets_to_controller += 1
        data = frame.to_bytes()
        if max_len != c.OFPCML_NO_BUFFER:
            data = data[:max_len]
        self._async_buffer.append(
            PacketIn(
                xid=self._next_xid(),
                reason=reason,
                match=Match(in_port=in_port),
                data=data,
            )
        )

    def handle_message(self, raw: bytes) -> list[bytes]:
        """Process one controller->switch message; returns reply bytes.

        Hostile bytes never raise: a message that does not parse, and a
        packet-out whose data is no Ethernet frame (nothing is emitted
        for it), are answered with an OFPET_BAD_REQUEST error.
        """
        try:
            message = parse_message(raw)
        except (struct.error, ValueError):
            xid = int.from_bytes(raw[4:8], "big") if len(raw) >= 8 else 0
            return [_bad_request(xid, 6, raw)]  # OFPBRC_BAD_LEN
        if isinstance(message, Hello):
            return [Hello(xid=message.xid).to_bytes()]
        if isinstance(message, EchoRequest):
            return [EchoReply(xid=message.xid, payload=message.payload).to_bytes()]
        if isinstance(message, FeaturesRequest):
            return [
                FeaturesReply(
                    xid=message.xid,
                    datapath_id=self.datapath_id,
                    n_buffers=0,
                    n_tables=len(self.tables),
                ).to_bytes()
            ]
        if isinstance(message, FlowMod):
            error = self._handle_flow_mod(message)
            return [error.to_bytes()] if error else []
        if isinstance(message, GroupMod):
            error = self._handle_group_mod(message)
            return [error.to_bytes()] if error else []
        if isinstance(message, PacketOut):
            try:
                frame = EthernetFrame.from_bytes(message.data)
            except ValueError:  # a PacketDecodeError, or a frame no constructor takes
                return [_bad_request(message.xid, 12, raw)]  # OFPBRC_BAD_PACKET
            self._handle_packet_out(message, frame)
            return []
        if isinstance(message, FlowStatsRequest):
            return [self._flow_stats(message).to_bytes()]
        if isinstance(message, PortStatsRequest):
            return [self._port_stats(message).to_bytes()]
        if isinstance(message, BarrierRequest):
            return [BarrierReply(xid=message.xid).to_bytes()]
        return [_bad_request(message.xid, 0, raw)]

    def _handle_flow_mod(self, message: FlowMod) -> "ErrorMsg | None":
        if message.table_id >= len(self.tables):
            return ErrorMsg(xid=message.xid, error_type=5, code=2)  # bad table
        table = self.tables[message.table_id]
        now = self.sim.now
        if message.command not in (c.OFPFC_DELETE, c.OFPFC_DELETE_STRICT):
            # The interpreter walk relies on gotos strictly increasing
            # and staying inside the pipeline; nothing is installed
            # from a FlowMod that breaks either.
            for instruction in message.instructions:
                if isinstance(instruction, GotoTable) and not (
                    message.table_id < instruction.table_id < len(self.tables)
                ):
                    # OFPET_BAD_INSTRUCTION / OFPBIC_BAD_TABLE_ID
                    return ErrorMsg(xid=message.xid, error_type=3, code=2)
        if message.command == c.OFPFC_ADD:
            if message.idle_timeout or message.hard_timeout:
                self._ensure_sweeper()
            entry = FlowEntry(
                match=message.match,
                priority=message.priority,
                instructions=list(message.instructions),
                cookie=message.cookie,
                idle_timeout=float(message.idle_timeout),
                hard_timeout=float(message.hard_timeout),
                send_flow_removed=bool(message.flags & 1),
            )
            replaced = table.install(entry, now)
            self._pipeline_mutated(
                (replaced,) if replaced is not None else (),
                lambda program: program.add_breaks_shape(table, entry),
            )
            return None
        if message.command in (c.OFPFC_DELETE, c.OFPFC_DELETE_STRICT):
            removed = table.delete(
                message.match,
                priority=message.priority,
                strict=message.command == c.OFPFC_DELETE_STRICT,
                cookie=message.cookie,
                cookie_mask=message.cookie_mask,
            )
            if removed:
                self._pipeline_mutated(removed)
            for entry in removed:
                if entry.send_flow_removed:
                    self._send_async(
                        FlowRemoved(
                            xid=self._next_xid(),
                            match=entry.match,
                            cookie=entry.cookie,
                            priority=entry.priority,
                            reason=c.OFPRR_DELETE,
                            table_id=table.table_id,
                            packet_count=entry.packet_count,
                            byte_count=entry.byte_count,
                        )
                    )
            return None
        if message.command in (c.OFPFC_MODIFY, c.OFPFC_MODIFY_STRICT):
            modified = table.select(
                message.match,
                priority=message.priority,
                strict=message.command == c.OFPFC_MODIFY_STRICT,
                cookie=message.cookie,
                cookie_mask=message.cookie_mask,
            )
            for entry in modified:
                entry.instructions = list(message.instructions)
                if message.cookie:
                    entry.cookie = message.cookie
            if modified:
                # Every modified entry now carries these instructions.
                self._pipeline_mutated(
                    modified, lambda program: uncompilable_reason(modified[0])
                )
            return None
        return ErrorMsg(xid=message.xid, error_type=4, code=0)  # bad command

    def _handle_group_mod(self, message: GroupMod) -> "ErrorMsg | None":
        try:
            if message.command == c.OFPGC_ADD:
                self.groups.add(message.group_id, message.group_type, message.buckets)
            elif message.command == c.OFPGC_MODIFY:
                self.groups.modify(
                    message.group_id, message.group_type, message.buckets
                )
            elif message.command == c.OFPGC_DELETE:
                self.groups.delete(message.group_id)
            else:
                return ErrorMsg(xid=message.xid, error_type=6, code=0)
        except (ValueError, KeyError):
            return ErrorMsg(xid=message.xid, error_type=6, code=1)
        self._pipeline_mutated(
            breaks_shape=lambda program: program.groups_break_shape(self.groups)
        )
        return None

    def _handle_packet_out(self, message: PacketOut, frame: EthernetFrame) -> None:
        in_port = (
            message.in_port
            if message.in_port not in (c.OFPP_CONTROLLER, c.OFPP_ANY)
            else 0
        )
        stats = PipelineStats()
        outputs, async_messages = self._buffered(
            self._apply_actions, list(message.actions), frame, in_port, stats
        )
        self._flush(outputs, async_messages, stats)

    def _flow_stats(self, message: FlowStatsRequest) -> FlowStatsReply:
        entries = []
        for table in self.tables:
            if message.table_id != 0xFF and table.table_id != message.table_id:
                continue
            for entry in table:
                if not entry.match.is_subset_of(message.match):
                    continue
                entries.append(
                    FlowStatsEntry(
                        table_id=table.table_id,
                        priority=entry.priority,
                        packet_count=entry.packet_count,
                        byte_count=entry.byte_count,
                        match=entry.match,
                    )
                )
        return FlowStatsReply(xid=message.xid, entries=entries)

    def _port_stats(self, message: PortStatsRequest) -> PortStatsReply:
        entries = []
        for number in sorted(self.ports):
            if message.port_no not in (c.OFPP_ANY, number):
                continue
            port = self.ports[number]
            entries.append(
                PortStatsEntry(
                    port_no=number,
                    rx_packets=port.rx_frames,
                    tx_packets=port.tx_frames,
                    rx_bytes=port.rx_bytes,
                    tx_bytes=port.tx_bytes,
                    tx_dropped=port.tx_dropped,
                )
            )
        return PortStatsReply(xid=message.xid, entries=entries)

    # ----------------------------------------------------------- timeouts

    def _ensure_sweeper(self) -> None:
        if self._sweep_scheduled:
            return
        self._sweep_scheduled = True
        self.sim.schedule(EXPIRY_SWEEP_INTERVAL_S, self._sweep)

    def _sweep(self) -> None:
        now = self.sim.now
        any_mortal_flows = False
        for table in self.tables:
            expired = table.expire(now)
            if expired:
                self._pipeline_mutated(expired)
            for entry in expired:
                if entry.send_flow_removed:
                    reason = (
                        c.OFPRR_HARD_TIMEOUT
                        if entry.hard_timeout
                        and now - entry.installed_at >= entry.hard_timeout
                        else c.OFPRR_IDLE_TIMEOUT
                    )
                    self._send_async(
                        FlowRemoved(
                            xid=self._next_xid(),
                            match=entry.match,
                            cookie=entry.cookie,
                            priority=entry.priority,
                            reason=reason,
                            table_id=table.table_id,
                            packet_count=entry.packet_count,
                            byte_count=entry.byte_count,
                        )
                    )
            if any(flow.idle_timeout or flow.hard_timeout for flow in table):
                any_mortal_flows = True
        if any_mortal_flows:
            self.sim.schedule(EXPIRY_SWEEP_INTERVAL_S, self._sweep)
        else:
            self._sweep_scheduled = False

    # ------------------------------------------------------------- helpers

    def dump_pipeline(self) -> str:
        """All tables + groups, readable (used by FIG1 bench)."""
        sections = [f"=== {self.name} (dpid={self.datapath_id:#x}) ==="]
        for table in self.tables:
            if len(table):
                sections.append(table.dump())
        if len(self.groups):
            sections.append(self.groups.dump())
        return "\n".join(sections)
