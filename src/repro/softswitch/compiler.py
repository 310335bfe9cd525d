"""ESwitch-style datapath specialization: compile the pipeline to code.

The ESwitch result this reproduction is calibrated against [Molnar et
al., SIGCOMM 2016] comes from *specializing* the datapath to the
currently installed flow tables instead of interpreting a
general-purpose pipeline.  This module is that idea applied to the
Python datapath: it inspects a switch's installed tables and generates
— via textual codegen + ``exec`` — one specialized executor per switch,
``run_burst``, which the datapath runs in place of the reference
interpreter whenever a program is active (a single frame is a burst of
one):

* **miniflow shrinking** — the flow-key extractor is inlined and
  restricted to the union of slots any installed match reads across
  *all* tables of the pipeline (plus the select-group hash fields when
  select groups are installed), so a three-field pipeline never pays a
  14-field decode;
* **unrolled classification** — one probe per subtable (mask-set) of
  table 0, emitted as straight-line code with the bucket dicts, masks
  and max-priority bounds baked in as compile-time constants, in the
  table's probe order (descending max priority, ties by mask-set).  A
  slot matched whole is probed with its bare value and no ``None``
  guard (an absent field's ``None`` just misses: stored values are
  ints); a partial mask keeps its ``&`` and its guard.  Order is a pure
  perf choice — every probe is guarded by the max-priority bound and
  the winner is the global sort-key minimum, so any order classifies
  identically.  (ESwitch orders probes by observed hit counts; here
  that bought nothing measurable and made the source depend on
  traffic history, so it is not done);
* **baked decisions** — the table-0 winner is expanded into a
  *decision*: multi-table ``GotoTable`` chains are walked once per
  distinct flow key (later-table lookups run against the rehydrated
  shrunk key, valid because the key covers every matched slot),
  select-group buckets are hashed once per key with the interpreter's
  exact weighted-hash, all/indirect buckets are flattened into the
  step list, and the per-packet cost-model charge is precomputed as a
  constant.  The dominant single-table single-output shape keeps its
  zero-dispatch fast plan.

**Timeouts.**  Pipelines with idle/hard timeouts compile to a *mortal*
program: every decision carries the mortal entries it walked through,
and a key-cache hit on such a decision goes through ``_classify``,
which revalidates those entries' expiry before replaying — the lazy
check the interpreter's table lookup makes on every frame.  Expiry is
monotonic (an expired entry can never revive, and installs flush the
cached decisions), so a decision is valid exactly until one of its own
entries expires.

**What is not compiled.**  The executor reproduces what controllers
install in practice and rejects the rest whole.  A reserved output
(CONTROLLER, FLOOD, ALL, IN_PORT) is one step that hands the action to
the interpreter's own ``SoftSwitch._output``, so the packet-in build
and the sorted flood expansion keep one definition, shared by both
executors.  Write- and clear-actions, a frame transform before a goto
or before a group action (decisions are keyed on the frame as it
arrived), an action type the executor does not know, and a group
bucket holding a group action or an unknown action are named by
:func:`uncompilable_reason` and the group check; a pipeline holding
any of them is not compiled at all.
:func:`compile_datapath` then returns None with
``switch.compile_ineligible_reason`` set to the first reason — as it
does for a subclassed cost model, whose per-packet cost hooks must run
interpreted — and the switch interprets every frame until a mutation
makes the pipeline compilable again.  No frame of a compiled program
re-enters the interpreter: it runs only with specialization off or for
a rejected pipeline, the oracle the differential suites compare
against.

**Shape and content.**  What a program bakes splits in two.  Its
*shape* is everything the generated source depends on: the used-slot
set, the table-0 probe list (one probe per mask-set, bound to that
subtable's live bucket dict), each probe's max-priority bound, the
mortal flag, the cost model and whether the select-hash slots are in
the key.  Its *content* is which entries
exist and what they do, and the program holds that only as derived
state — one key cache and the per-entry plans, both keyed on the flow,
never on a frame object — over the live tables and group table.  So a
FlowMod ADD/DELETE/MODIFY, a GroupMod or an expiry sweep that leaves
the shape intact does not cost a compile: the datapath asks
:meth:`CompiledProgram.add_breaks_shape` /
:meth:`CompiledProgram.groups_break_shape` (for a MODIFY,
:func:`uncompilable_reason`), and on "no" calls
:meth:`CompiledProgram.flush` — the key cache is cleared and the plans
of the entries the mutation removed or rewrote are dropped, a cost
independent of table size — and keeps running the same generated code
(a *patch*).
Deletes and expiry can never break the shape (bounds and slot sets
only become conservative); a modify breaks it only by rewriting
entries into a construct the compiler rejects; an add breaks it when
its entry is one, or when it brings a new mask-set to table 0 (the
reason calls it a *field-set* when every mask is whole), a priority
above its probe's baked bound, the first timeout, or a slot outside the
used set.

**Cold start.**  The generated source reads the pipeline only through
its shape — everything per-switch (tables, ports, key cache, probe
bindings, the switch itself) reaches the code through the namespace it
is ``exec``'d into — so the source text *is* the shape and its code
object is shared: :func:`compile_datapath` looks the text up in
``_CODE_CACHE`` and hands the builtin ``compile()`` only a text this
process has not seen.  Every migrated site runs the same two pipelines,
so a fleet costs two or three builtin compiles, and a regenerate of a
seen shape costs codegen + ``exec``.  Only shape changes (the above, a
cost-model swap, ``reset_pipeline``) discard a program: the switch
drops it synchronously (a stale program never runs), records why as
``stats()["specialization"]["last_regenerate_reason"]``, and the first
frame after it regenerates — lazily, so a burst of mods with no
traffic is one regenerate, and a pipeline the compiler rejects is
attempted once per mutation and interpreted until the next one.
``SoftSwitch.stats()["specialization"]`` reports compiles,
invalidations, patches, the frames served compiled
(``specialized_frames``) and those interpreted with specialization on
(``fallback_frames``: a rejected pipeline, or no rule installed yet).

**Per frame.**  Every frame a softswitch sees is a fresh object (a
legacy push or an SS_1 pop just derived it), so nothing is keyed on
frame identity: ``run_burst`` decodes the shrunk key inline, asks the
key cache, and enters ``_classify`` only on a miss (or to revalidate a
mortal decision).  Decisions carry no length — the executor reads the
frame's.  One peephole (:func:`_fold`) turns the translator's push +
set-field ``vlan_vid`` pair into a single ``push_vlan(v)`` step
wherever actions become steps; the cost model is still charged for
both actions.

``run_burst`` serves every ``process_batch`` call, a burst of one
included, with outputs re-coalesced per egress port: a port's lone
frame leaves through ``Port.send``, two or more through one
``Port.send_burst``.  A frame whose decision buffered a controller
message (a packet-in) first flushes the coalesced egress and syncs the
busy clock; then its outputs and messages leave after the plan's cost,
at once or through the simulator, exactly as the interpreter emits
them — so a synchronous controller handed the packet-in observes every
prior frame as frame-by-frame processing would show it.  If that
controller mutates the pipeline, the burst looks at what the mutation
did to the program: patched (content only) flushed the key cache, so
the next frame reclassifies and the burst carries on; discarded
(shape change) hands the rest of the burst back to
``SoftSwitch.process_batch``, which regenerates and serves it compiled,
exactly as frame-by-frame injection would.

**Drops.**  Every frame or output the executor discards is counted in
``SoftSwitch.drops`` under the reason the interpreter would give
(``table-miss``, ``no-such-port``, ``no-such-group``, ``empty-group``,
``action-drop``; a reserved output drops nothing): in per-reason
locals summed once per burst, except a chain walk's later-table miss
and the drops inside its steps, which are counted as they happen.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from random import Random
from types import CodeType
from typing import TYPE_CHECKING, Iterable, Optional
from zlib import crc32

from repro.openflow import consts as c
from repro.openflow.actions import (
    GroupAction,
    OutputAction,
    PopVlanAction,
    PushVlanAction,
    SetFieldAction,
)
from repro.openflow.instructions import ApplyActions, GotoTable
from repro.openflow.match import FULL_MASKS
from repro.openflow.packetview import (
    EXTRACTOR_GLOBALS,
    FIELD_INDEX,
    FLOW_KEY_FIELDS,
    expand_key,
    partial_decode_source,
)
from repro.softswitch.costmodel import DatapathCostModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.softswitch.datapath import SoftSwitch
    from repro.softswitch.flowtable import FlowEntry

#: Bound on a program's persistent shrunk-key -> decision cache.
#: Cleared wholesale when full: the cache is derived state, one slow
#: classify per key rebuilds it.
KEY_CACHE_LIMIT = 8192

#: Generated source text -> its module code object, shared by every
#: switch of that shape (see "Cold start" above; immutable code is all
#: they share).  Cleared wholesale at the bound, like the key cache: a
#: dropped text costs one more builtin ``compile()``.
CODE_CACHE_LIMIT = 64
_CODE_CACHE: "dict[str, CodeType]" = {}

#: Plan kinds (first element of every plan tuple).
PLAN_OUT = 0  # single concrete-port output
PLAN_MISS = 1  # table miss: count the lookup, drop
PLAN_NOOP = 2  # matched entry with no emitting instructions
PLAN_SEQ = 3  # straight-line action sequence (vlan ops, set-field, outputs)
PLAN_CHAIN = 4  # step list: multi-table walk, groups, reserved outputs

#: Step opcodes inside CHAIN plans (first element of each step).
STEP_OUT = 0  # output to a concrete port (drop if the port is gone)
STEP_XFORM = 1  # frame transform: push/pop VLAN, set-field
STEP_GROUP = 2  # group: the buckets this key runs (all of an all-group)
STEP_GROUP_EMPTY = 3  # select/indirect group without buckets: drop
STEP_GROUP_DEAD = 4  # reference to a group that does not exist: drop
STEP_RESERVED = 5  # CONTROLLER/FLOOD/ALL/IN_PORT: the interpreter's _output

_RESERVED_PORTS = frozenset(
    (c.OFPP_CONTROLLER, c.OFPP_FLOOD, c.OFPP_ALL, c.OFPP_IN_PORT)
)


@dataclass(frozen=True)
class _PushTagged:
    """A folded ``PushVlanAction`` + ``SetFieldAction(vlan_vid=v)`` pair:
    one step, one derived frame.  A value, like the actions it replaces
    (plans compare equal across programs)."""

    vlan_id: int

    def apply(self, frame):
        return frame.push_vlan(self.vlan_id)


_TRANSFORM_ACTIONS = (PushVlanAction, PopVlanAction, SetFieldAction, _PushTagged)


def _fold(actions) -> list:
    """The one peephole, applied wherever actions become steps: a push
    immediately followed by a set-field of ``vlan_vid`` is one step.

    The pushed tag has VLAN id 0, pcp 0 and dei 0 and the set-field
    rewrites only the id, so the pair's result equals ``push_vlan(v)``
    by value and the intermediate frame is unobservable.  Callers take
    the cost model's action and VLAN-op counts from the unfolded list.
    """
    steps: list = []
    for action in actions:
        sets_vid = type(action) is SetFieldAction and action.field == "vlan_vid"
        if sets_vid and steps and type(steps[-1]) is PushVlanAction:
            steps[-1] = _PushTagged(action.value & 0xFFF)
        else:
            steps.append(action)
    return steps


class CompiledProgram:
    """One switch's specialized datapath.

    Holds the generated entry points, the *shape* they were generated
    for (see the module docstring) and the derived *content* caches.
    """

    __slots__ = (
        "run_burst", "classify", "source", "used_slots",
        "key_cache", "plans", "mortal", "probe_order",
        "_globals", "_probes", "_select_ready",
    )

    def __init__(self, source, namespace, used_slots, mortal, probe_order,
                 probes, select_ready):
        #: (in_port, frames) -> None: the one executor.
        self.run_burst = namespace["run_burst"]
        #: (frame, in_port, now) -> (decision, shrunk key), as the
        #: executor decides it; exposed for probe-order invariance tests.
        self.classify = namespace["classify"]
        #: The generated module source (debugging / tests).
        self.source = source
        #: Flow-key slots the shrunk extractor decodes.
        self.used_slots = used_slots
        #: True when any installed entry carried a timeout at compile
        #: time — decisions then revalidate their entries' expiry
        #: before every replay.
        self.mortal = mortal
        #: The probe shuffle seed this program was compiled with (None:
        #: descending max priority).
        self.probe_order = probe_order
        #: mask-set -> (index, priority bound) of the table-0 probe
        #: block baked for it.
        self._probes = {
            mask_set: (index, max_priority)
            for index, (max_priority, mask_set, _) in enumerate(probes)
        }
        #: Whether the shrunk key carries every select-hash slot.
        self._select_ready = select_ready
        #: shrunk key -> decision.
        self.key_cache = namespace["KC"]
        #: id(entry) -> key-independent plan, populated lazily.
        self.plans = namespace["PLANS"]
        #: The generated module's globals (probe bindings live here).
        self._globals = namespace

    def flush(self, dead: "Iterable[FlowEntry]" = ()) -> None:
        """Forget every derived decision; the generated code stays.

        What a content-only mutation costs: the next frame of each flow
        re-classifies against the live tables.  Independent of table
        size (the cache only ever holds keys seen since the last flush).
        The per-entry plans are key-independent and read nothing but
        their own entry and the cost model, so they outlive the flush —
        except those of the *dead* entries the mutation removed or
        rewrote, whose ``id()`` the allocator may hand out again.
        """
        self.key_cache.clear()
        plans = self.plans
        for entry in dead:
            plans.pop(id(entry), None)

    def add_breaks_shape(self, table, entry: "FlowEntry") -> Optional[str]:
        """Why *entry*, just installed in *table*, needs a regenerate —
        or None when the generated code already covers it.

        On None the entry's table-0 probe is (re)bound to the group's
        live bucket dict: a group that emptied and was re-created since
        the compile is a new dict under a known shape.
        """
        reason = uncompilable_reason(entry)
        if reason is not None:
            return reason
        if not self.mortal and (entry.idle_timeout or entry.hard_timeout):
            return "first mortal entry"
        if table.table_id:
            # Later tables are classified live; only the key must
            # carry every slot the new match reads.
            mask_set = entry.match.mask_key()[0]
            extra = [s for s, _ in mask_set if s not in self.used_slots]
            if extra:
                names = ", ".join(FLOW_KEY_FIELDS[slot] for slot in extra)
                return f"table {table.table_id} reads slot outside used_slots ({names})"
            return None
        mask_set, buckets = table.probe_group(entry.match)
        index, bound = self._probes.get(mask_set, (None, None))
        if index is None:
            return f"new {_describe_shape(mask_set)}"
        if entry.priority > bound:
            return f"priority {entry.priority} above baked bound {bound}"
        self._globals[f"P{index}_get"] = buckets.get
        return None

    def groups_break_shape(self, groups) -> Optional[str]:
        """Why the group table, just modified, needs a regenerate, or
        None: a group the executor cannot run rejects the pipeline, and
        select-bucket choices are baked per key, so the first select
        group needs its hash slots in the key."""
        reason = _groups_reason(groups)
        if reason is not None:
            return reason
        if not self._select_ready and groups.has_select_groups():
            return "first select group (hash slots not in the key)"
        return None


def _describe_shape(mask_set: tuple) -> str:
    """A mask-set as a regenerate reason names it: a *field-set* when
    every mask is whole, with its masks otherwise."""
    if all(mask == FULL_MASKS[slot] for slot, mask in mask_set):
        return "field-set (" + ", ".join(FLOW_KEY_FIELDS[s] for s, _ in mask_set) + ")"
    return "mask-set (" + ", ".join(
        f"{FLOW_KEY_FIELDS[slot]}/{mask:#x}" for slot, mask in mask_set
    ) + ")"


# ---------------------------------------------------------------------------
# Entry analysis and decision building (plain Python, not codegen: runs
# once per distinct flow key on a key-cache miss, never per frame)
# ---------------------------------------------------------------------------


def _shape_of(entry: "FlowEntry") -> tuple:
    """-> (flat apply-actions, goto target) of an entry that compiles.

    Flattens the instruction list the way ``_execute_entry`` runs it:
    apply-actions execute in encounter order, the last goto wins and
    only takes effect after the whole list.
    """
    actions: list = []
    next_table: "int | None" = None
    for instruction in entry.instructions:
        if type(instruction) is GotoTable:
            next_table = instruction.table_id
        else:  # ApplyActions: uncompilable_reason rejects anything else
            actions.extend(instruction.actions)
    return actions, next_table


def uncompilable_reason(entry: "FlowEntry") -> Optional[str]:
    """Why the compiled executor cannot reproduce *entry*, or None.

    Any reason rejects the whole pipeline (see "What is not compiled").
    A transform before a goto or a group action is one because the next
    lookup and the select hash would read the transformed frame, and
    decisions are keyed on the frame as it arrived.
    """
    for instruction in entry.instructions:
        kind = type(instruction)
        if kind is not ApplyActions and kind is not GotoTable:
            return f"{kind.__name__} needs the action set"
    actions, next_table = _shape_of(entry)
    transformed = False
    for action in actions:
        kind = type(action)
        if kind in _TRANSFORM_ACTIONS:
            transformed = True
        elif kind is GroupAction:
            if transformed:
                return "frame transform before group action"
        elif kind is not OutputAction:
            return f"unsupported action {kind.__name__}"
    if transformed and next_table is not None:
        return "frame transform before goto-table"
    return None


def _groups_reason(groups) -> Optional[str]:
    """The first group bucket the executor cannot run — one holding a
    group action or an action type it does not know — or None."""
    for group in groups:
        for index, bucket in enumerate(group.buckets):
            for action in bucket.actions:
                kind = type(action)
                if kind is not OutputAction and kind not in _TRANSFORM_ACTIONS:
                    return f"group {group.group_id} bucket {index} holds {kind.__name__}"
    return None


def _pipeline_reason(tables, groups) -> Optional[str]:
    """The first installed rule or group the executor cannot reproduce,
    and why; None when the whole pipeline compiles."""
    for table in tables:
        for entry in table:
            reason = uncompilable_reason(entry)
            if reason is not None:
                return (
                    f"table {table.table_id} priority {entry.priority} "
                    f"[{entry.match}]: {reason}"
                )
    return _groups_reason(groups)


def _mortals_of(entry: "FlowEntry") -> tuple:
    return (entry,) if (entry.idle_timeout or entry.hard_timeout) else ()


def _vlan_ops(actions) -> int:
    """The VLAN pushes and pops among *actions*, as the interpreter
    counts them for the cost model (a folded pair is one push)."""
    return sum(type(a) is PushVlanAction or type(a) is PopVlanAction for a in actions)


def _step(action) -> tuple:
    """The CHAIN step of one output or transform action."""
    if type(action) is not OutputAction:
        return (STEP_XFORM, action)
    if action.port in _RESERVED_PORTS:
        return (STEP_RESERVED, action)
    return (STEP_OUT, action.port)


def _fast_plan(entry: "FlowEntry", actions: list, model: DatapathCostModel):
    """Key-independent plan for a terminal, group-free entry whose
    outputs are all concrete ports.

    The plan's cost constant is produced by the same ``cost_s`` call
    the interpreted path makes per packet (1 lookup, the entry's action
    and VLAN-op counts), so charging is float-identical.
    """
    steps = []
    for action in _fold(actions):
        if type(action) is OutputAction:
            steps.append((True, action.port))
        else:
            steps.append((False, action))
    cost = model.cost_s(lookups=1, actions=len(actions), vlan_ops=_vlan_ops(actions))
    mortals = _mortals_of(entry)
    if not any(is_out for is_out, _ in steps):
        # Transforms nobody sees: the frame is an action-drop.
        return (PLAN_NOOP, entry, None, cost, mortals)
    if len(steps) == 1 and steps[0][0]:
        return (PLAN_OUT, entry, steps[0][1], cost, mortals)
    return (PLAN_SEQ, entry, tuple(steps), cost, mortals)


def _build_decision(entry, shrunk_key, now, tables, groups, hash_fields,
                    model, used_slots, plans):
    """Decision for the table-0 winner *entry* under *shrunk_key*.

    A terminal group-free entry's decision is key-independent and is
    memoised per entry in *plans*: a fast plan, or a one-entry CHAIN
    when it outputs to a reserved port (so the learning switch's
    table-miss rule costs one build per switch, not one per key).
    Chain and group decisions depend on the key (later-table lookups,
    select-bucket hashing) and are cached only in the program's key
    cache.
    """
    actions, next_table = _shape_of(entry)
    terminal = next_table is None and not any(
        type(action) is GroupAction for action in actions
    )
    if terminal and not any(
        type(action) is OutputAction and action.port in _RESERVED_PORTS
        for action in actions
    ):
        plan = plans[id(entry)] = _fast_plan(entry, actions, model)
        return plan

    # Chain walk: rehydrate the shrunk key once; it covers every slot
    # any match in any table reads, so later-table lookups classify
    # exactly like the interpreter's full-key lookups.
    full_key = expand_key(used_slots, shrunk_key)
    winner = entry
    touches = []
    steps: list = []
    mortals: list = []
    miss_table = None
    n_actions = 0
    vlan_ops = 0
    group_selections = 0
    table_id = 0
    while True:
        touches.append((tables[table_id], entry))
        mortals.extend(_mortals_of(entry))
        n_actions += len(actions)
        vlan_ops += _vlan_ops(actions)
        for action in _fold(actions):
            if type(action) is not GroupAction:
                steps.append(_step(action))
                continue
            group = groups.get(action.group_id)
            if group is None:
                steps.append((STEP_GROUP_DEAD, None))
                continue
            if group.group_type == c.OFPGT_ALL:
                chosen = range(len(group.buckets))
            else:
                group_selections += 1
                if group.group_type == c.OFPGT_SELECT:
                    index = group.select_bucket_for_key(full_key, hash_fields)
                else:  # indirect
                    index = 0 if group.buckets else None
                if index is None:
                    steps.append((STEP_GROUP_EMPTY, group))
                    continue
                chosen = (index,)
            buckets = []
            for index in chosen:
                # A bucket's steps run on a bucket-local frame: the
                # executor runs them as a step list of their own.
                bucket_actions = group.buckets[index].actions
                n_actions += len(bucket_actions)
                vlan_ops += _vlan_ops(bucket_actions)
                buckets.append((index, tuple(map(_step, _fold(bucket_actions)))))
            steps.append((STEP_GROUP, (group, tuple(buckets))))
        if next_table is None or next_table >= len(tables):
            break  # end of pipeline: walk complete (goto past the last
            # table ends the loop without a miss, like the interpreter)
        table_id = next_table
        entry = tables[table_id]._classify(full_key, now)
        if entry is None:
            miss_table = tables[table_id]
            break
        actions, next_table = _shape_of(entry)
    lookups = len(touches) + (1 if miss_table is not None else 0)
    cost = model.cost_s(
        lookups=lookups,
        actions=n_actions,
        vlan_ops=vlan_ops,
        group_selections=group_selections,
    )
    plan = (
        PLAN_CHAIN,
        tuple(touches),
        (tuple(steps), miss_table),
        cost,
        tuple(mortals),
    )
    if terminal:
        plans[id(winner)] = plan
    return plan


# ---------------------------------------------------------------------------
# Codegen
# ---------------------------------------------------------------------------


def _tuple_literal(parts: "list[str]") -> str:
    if not parts:
        return "()"
    if len(parts) == 1:
        return f"({parts[0]},)"
    return "(" + ", ".join(parts) + ")"


def _probe_block(
    lines: list[str],
    guard_priority: int,
    probe_index: int,
    value_expr: str,
    none_guards: "list[str]",
    mortal: bool,
) -> None:
    """One guarded min-compare probe.

    The guard only skips probes that provably cannot beat the current
    best (their max priority is below the best's priority); the winner
    is the global minimum of the arbitration sort key, a total order —
    which is why the blocks can be emitted in any order (the seeded
    shuffle test hook is behaviour-preserving by construction).
    """
    lines.append(f"    if e is None or ek0 >= {-guard_priority}:")
    indent = "        "
    if none_guards:
        lines.append(indent + "if " + " and ".join(none_guards) + ":")
        indent += "    "
    lines.append(f"{indent}ch = P{probe_index}_get({value_expr})")
    lines.append(f"{indent}if ch:")
    if mortal:
        lines.append(f"{indent}    n = None")
        lines.append(f"{indent}    for cand in ch:")
        lines.append(f"{indent}        if not cand.is_expired(now):")
        lines.append(f"{indent}            n = cand")
        lines.append(f"{indent}            break")
        lines.append(f"{indent}    if n is not None:")
        indent += "    "
    else:
        lines.append(f"{indent}    n = ch[0]")
    lines.append(f"{indent}    nk = n.sort_key")
    lines.append(f"{indent}    if e is None or nk < ek:")
    lines.append(f"{indent}        e = n")
    lines.append(f"{indent}        ek = nk")
    lines.append(f"{indent}        ek0 = nk[0]")


def compile_datapath(
    switch: "SoftSwitch", probe_order: "int | None" = None
) -> Optional[CompiledProgram]:
    """Specialize *switch*'s installed pipeline, or None when it is
    rejected — with ``switch.compile_ineligible_reason`` saying why.

    Table-0 probe blocks are emitted in the table's probe order
    (descending max priority, ties by mask-set), so the source depends
    on the pipeline's shape alone.  An int
    *probe_order* shuffles them with that seed instead (test hook —
    order is behaviour-preserving, see :func:`_probe_block`).
    """
    model = switch.cost_model
    tables = switch.tables
    if type(model) is not DatapathCostModel:
        reason = "cost model is subclassed: per-packet cost hooks must run interpreted"
    elif not tables:
        reason = "switch has no tables"
    else:
        reason = _pipeline_reason(tables, switch.groups)
    switch.compile_ineligible_reason = reason
    if reason is not None:
        return None

    mortal = any(
        entry.idle_timeout or entry.hard_timeout
        for table in tables
        for entry in table
    )
    used = set()
    for table in tables:
        used.update(table.used_slots())
    hash_slots = {FIELD_INDEX[name] for name in switch.select_hash_fields}
    if switch.groups.has_select_groups():
        # Select-bucket choices are baked per key, so the key must
        # carry every hash-field slot the choice reads.
        used.update(hash_slots)
    used_slots = tuple(sorted(used))

    #: id(entry) -> key-independent plan, built lazily as the
    #: classifier selects entries.
    plans: dict[int, tuple] = {}
    miss_plan = (PLAN_MISS, None, None, model.cost_s(lookups=1, actions=0), ())
    key_cache: dict = {}

    def _build(entry, shrunk_key, now, _tables=tables, _groups=switch.groups,
               _hash=switch.select_hash_fields, _model=model,
               _slots=used_slots, _plans=plans):
        return _build_decision(entry, shrunk_key, now, _tables, _groups,
                               _hash, _model, _slots, _plans)

    namespace: dict = dict(EXTRACTOR_GLOBALS)
    namespace.update(
        SIM=switch.sim,
        S=switch,
        T0=tables[0],
        PORTS=switch.ports,
        DROPS=switch.drops,
        EMIT=switch._emit,
        EMIT_ONE=switch._emit_one,
        OUTPUT=switch._output,
        BUFFERED=switch._buffered,
        SCHED=switch.sim.schedule_at,
        KC=key_cache,
        KC_get=key_cache.get,
        KC_LIMIT=KEY_CACHE_LIMIT,
        PLANS=plans,
        PLANS_get=plans.get,
        BUILD=_build,
        MISS=miss_plan,
    )

    # ---------------------------------------------------------- classify
    # _classify(key, now) -> decision: the key cache, its mortal
    # decisions revalidated (the loop is empty for an immortal one),
    # else the probes over the key's slots.
    key_expr = _tuple_literal([f"v{slot}" for slot in used_slots])
    lines = [
        "def _classify(key, now):",
        "    plan = KC_get(key)",
        "    if plan is not None:",
        "        for dead in plan[4]:",
        "            if dead.is_expired(now):",
        "                break",
        "        else:",
        "            return plan",
    ]
    if used_slots:
        lines.append(f"    {key_expr} = key")
    lines += ["    e = None", "    ek = None", "    ek0 = 1"]

    probes = [
        (subtable.max_priority, subtable.mask_set, subtable.buckets)
        for subtable in tables[0].subtables_in_order()
    ]
    if probe_order is not None:
        Random(probe_order).shuffle(probes)
    # Probe bindings are module globals, not constants in the source:
    # CompiledProgram.add_breaks_shape rebinds them in place.
    for index, (max_priority, mask_set, buckets) in enumerate(probes):
        namespace[f"P{index}_get"] = buckets.get
        values = []
        none_guards = []
        for slot, mask in mask_set:
            if mask == FULL_MASKS[slot]:
                values.append(f"v{slot}")
            else:
                values.append(f"v{slot} & {mask:#x}")
                none_guards.append(f"v{slot} is not None")
        _probe_block(lines, max_priority, index, _tuple_literal(values),
                     none_guards, mortal)

    lines.append("    if e is None:")
    lines.append("        plan = MISS")
    lines.append("    else:")
    lines.append("        plan = PLANS_get(id(e))")
    lines.append("        if plan is None:")
    lines.append("            plan = BUILD(e, key, now)")
    lines.append("    if len(KC) >= KC_LIMIT:")
    lines.append("        KC.clear()")
    lines.append("    KC[key] = plan")
    lines.append("    return plan")
    lines.append("")

    # The executor decodes the shrunk key inline (once per frame, at
    # the indentation of its ``__DECODE__`` marker) and enters
    # _classify only when the key cache cannot answer: a miss, or — in
    # a mortal program — a decision whose entries need revalidating.
    executor = re.sub(
        r"^( *)__DECODE__$",
        lambda marker: "\n".join(partial_decode_source(used_slots, indent=marker[1])),
        _EXECUTOR_SOURCE,
        flags=re.MULTILINE,
    )
    executor = executor.replace("__KEY__", key_expr)
    executor = executor.replace(
        "__UNANSWERED__", "dec is None or dec[4]" if mortal else "dec is None"
    )
    lines.append(executor)

    source = "\n".join(lines)
    code = _CODE_CACHE.get(source)
    if code is None:
        if len(_CODE_CACHE) >= CODE_CACHE_LIMIT:
            _CODE_CACHE.clear()
        name = f"<specialized datapath {crc32(source.encode()):08x}>"
        code = _CODE_CACHE[source] = compile(source, name, "exec")
    exec(code, namespace)
    return CompiledProgram(
        source, namespace, used_slots, mortal, probe_order, probes,
        select_ready=hash_slots <= used,
    )


#: The execution half of every generated module.  Static — only the
#: classifier and extractor vary per switch — but it lives inside the
#: generated module so the hot loop binds its constants (switch, table,
#: ports, scheduler) as default arguments, the fastest lookups Python
#: offers.  Charging mirrors ``SoftSwitch._charge`` exactly: start at
#: max(now, busy_until), advance by the decision's precomputed cost,
#: emit immediately when the finish time has not moved past ``now`` and
#: defer through the simulator otherwise — a lone output as one
#: ``_emit_one(port, frame)`` event, anything more through ``_emit``.
_EXECUTOR_SOURCE = '''
def _chain_steps(steps, frame, in_port, PORTS=PORTS, DROPS=DROPS,
                 OUTPUT=OUTPUT, BUFFERED=BUFFERED):
    """Execute a CHAIN plan's step list; returns (outputs, drops,
    controller messages), the drops already counted by reason.

    Mirrors the interpreter exactly: outputs collect in action order
    (bucket outputs inline where their group action ran), transforms
    produce fresh frames (originals are never mutated), group counters
    bump where ``_run_group`` bumps them, and each bucket runs as a step
    list of its own, so its transforms stay bucket-local.  A reserved
    output is the interpreter's own ``_output`` against fresh buffers.
    """
    outs = []
    msgs = []
    dropped = 0
    current = frame
    for op, arg in steps:
        if op == 0:
            if arg in PORTS:
                outs.append((arg, current))
            else:
                dropped += 1
                DROPS["no-such-port"] += 1
        elif op == 1:
            current = arg.apply(current)
        elif op == 2:
            group, buckets = arg
            group.packet_count += 1
            counts = group.bucket_packet_counts
            for index, bucket_steps in buckets:
                counts[index] += 1
                bucket_outs, bucket_drops, bucket_msgs = _chain_steps(
                    bucket_steps, current, in_port
                )
                outs += bucket_outs
                msgs += bucket_msgs
                dropped += bucket_drops
        elif op == 5:
            sent, queued = BUFFERED(OUTPUT, current, arg, in_port)
            outs += sent
            msgs += queued
        elif op == 3:
            arg.packet_count += 1
            dropped += 1
            DROPS["empty-group"] += 1
        else:  # op == 4: dead group reference
            dropped += 1
            DROPS["no-such-group"] += 1
    return outs, dropped, msgs


def _send_chains(per_port, PORTS=PORTS):
    """Each egress port's chain leaves as one call: a lone frame through
    ``Port.send``, two or more as one ``Port.send_burst``."""
    for port_number, chain in per_port.items():
        if len(chain) == 1:
            PORTS[port_number].send(chain[0])
        else:
            PORTS[port_number].send_burst(chain)


def classify(frame, in_port, now):
    """(decision, shrunk key) of one frame, as ``run_burst`` decides it."""
    __DECODE__
    key = __KEY__
    return _classify(key, now), key


def run_burst(in_port, frames, SIM=SIM, S=S, T0=T0, PORTS=PORTS, DROPS=DROPS,
              EMIT=EMIT, EMIT_ONE=EMIT_ONE, SCHED=SCHED, KC_get=KC_get,
              chain_steps=_chain_steps, send_chains=_send_chains):
    """*frames*, arrived on *in_port* at one instant; a single frame is
    a burst of one.  Outputs that leave now coalesce per egress port.
    Counters that only add up are kept in locals and stored once."""
    now = SIM.now
    per_port = {}
    forwarded = 0
    chained = 0
    missed = 0
    unported = 0
    unacted = 0
    rest = None
    busy = S.busy_until
    count = len(frames)
    index = 0
    while index < count:
        frame = frames[index]
        index += 1
        __DECODE__
        key = __KEY__
        dec = KC_get(key)
        if __UNANSWERED__:
            dec = _classify(key, now)
        length = frame.wire_length
        kind = dec[0]
        if kind == 4:
            chained += 1
            _, touches, tail, cost, _mortals = dec
            steps, miss_table = tail
            for table, entry in touches:
                table.lookups += 1
                table.matches += 1
                entry.packet_count += 1
                entry.byte_count += length
                entry.last_used_at = now
            outs, chain_drops, msgs = chain_steps(steps, frame, in_port)
            if miss_table is not None:
                miss_table.lookups += 1
                DROPS["table-miss"] += 1
            elif not (outs or chain_drops or msgs):
                unacted += 1
            start = busy if busy > now else now
            busy = start + cost
            if msgs:
                # A packet-in: flush the coalesced egress and sync the
                # busy clock first, so a synchronous controller handed
                # it observes every prior frame on the wire; this
                # frame's outputs and messages then leave as the
                # interpreter emits them.
                if forwarded:
                    S.packets_forwarded += forwarded
                    send_chains(per_port)
                    per_port.clear()
                    forwarded = 0
                S.busy_until = busy
                running = S._program
                if busy <= now:
                    EMIT(outs, msgs)
                else:
                    SCHED(busy, EMIT, outs, msgs)
                busy = S.busy_until
                if S._program is not running:
                    # The controller answered at once and changed the
                    # pipeline's shape (a flow on a new field-set): this
                    # program is stale, and the switch takes the rest of
                    # the burst back.  Only a to_controller bound straight
                    # to a reactive app under a zero-cost model gets here
                    # (test_mid_burst_mutation_via_reactive_controller);
                    # a patch instead flushed the key cache, and the next
                    # frame reclassifies.
                    rest = frames[index:]
                    break
            elif outs:
                if busy <= now:
                    for out_port, out_frame in outs:
                        chain = per_port.get(out_port)
                        if chain is None:
                            per_port[out_port] = [out_frame]
                        else:
                            chain.append(out_frame)
                    forwarded += len(outs)
                else:
                    SCHED(busy, EMIT, outs, ())
            continue
        if kind == 0:
            _, entry, port, cost, _mortals = dec
            entry.packet_count += 1
            entry.byte_count += length
            entry.last_used_at = now
            start = busy if busy > now else now
            busy = start + cost
            if port in PORTS:
                if busy <= now:
                    chain = per_port.get(port)
                    if chain is None:
                        per_port[port] = [frame]
                    else:
                        chain.append(frame)
                    forwarded += 1
                else:
                    SCHED(busy, EMIT_ONE, port, frame)
            else:
                unported += 1
        elif kind == 1:
            missed += 1
            start = busy if busy > now else now
            busy = start + dec[3]
        elif kind == 2:
            _, entry, _payload, cost, _mortals = dec
            unacted += 1
            entry.packet_count += 1
            entry.byte_count += length
            entry.last_used_at = now
            start = busy if busy > now else now
            busy = start + cost
        else:
            _, entry, steps, cost, _mortals = dec
            entry.packet_count += 1
            entry.byte_count += length
            entry.last_used_at = now
            current = frame
            outs = []
            for is_out, payload in steps:
                if is_out:
                    if payload in PORTS:
                        outs.append((payload, current))
                    else:
                        unported += 1
                else:
                    current = payload.apply(current)
            start = busy if busy > now else now
            busy = start + cost
            if outs:
                if busy <= now:
                    for out_port, out_frame in outs:
                        chain = per_port.get(out_port)
                        if chain is None:
                            per_port[out_port] = [out_frame]
                        else:
                            chain.append(out_frame)
                    forwarded += len(outs)
                elif len(outs) == 1:
                    SCHED(busy, EMIT_ONE, *outs[0])
                else:
                    SCHED(busy, EMIT, outs, ())
    S.busy_until = busy
    # Every frame taken was served compiled, and each not on a CHAIN
    # plan was one table-0 lookup: a match unless it missed.
    t0_lookups = index - chained
    T0.lookups += t0_lookups
    T0.matches += t0_lookups - missed
    if missed:
        DROPS["table-miss"] += missed
    if unported:
        DROPS["no-such-port"] += unported
    if unacted:
        DROPS["action-drop"] += unacted
    S.specialized_frames += index
    if forwarded:
        S.packets_forwarded += forwarded
        send_chains(per_port)
    if rest:
        S.process_batch(in_port, rest)
'''
