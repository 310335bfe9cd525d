"""No frame leaves a frame path uncounted.

Conservation (``test_conservation.py``) balances each switching node by
its port counters, so a switch or a channel that loses a frame without
a ``drops`` count is invisible there.  This test reads the source
instead: in every frame-path method below, each ``return`` or
``continue`` that ends the method early must come after a drop count
on its way (a ``drops[...]`` increment, or a call to a helper that does
nothing but count, such as ``_tx_drop`` or ``_Direction.drop``), or be
in ``NOT_LOST`` with the reason the frame is not lost there.  A
function's final statement is its normal end and is not checked.
"""

import ast
from pathlib import Path

import pytest

import repro

#: The package under test, wherever it was imported from.
SRC = Path(repro.__file__).parent

#: file under src/repro/ -> the methods that carry a frame (or an
#: OpenFlow message, for the channel) from arrival to emission or loss.
FRAME_PATHS = {
    "legacy/switch.py": (
        "LegacySwitch.receive", "LegacySwitch.receive_burst", "LegacySwitch._general_path",
        "LegacySwitch._forward", "LegacySwitch._egress", "LegacySwitch._send",
    ),
    "softswitch/datapath.py": (
        "SoftSwitch.process_batch", "SoftSwitch._interpret_one", "SoftSwitch._flush",
        "SoftSwitch._emit", "SoftSwitch._emit_one", "SoftSwitch._run_pipeline",
        "SoftSwitch._output", "SoftSwitch._run_group", "SoftSwitch._send_async",
    ),
    "netsim/node.py": (
        "Port.send", "Port.send_burst", "Port.deliver", "Port.deliver_burst",
        "Node.receive_burst",
    ),
    "netsim/link.py": (
        "_Direction.deliver", "_Direction.deliver_burst", "Link.transmit",
        "Link.transmit_burst", "Link.set_down",
    ),
    "netsim/host.py": (
        "Host.send_ip", "Host._arp_timeout", "Host._flush_pending", "Host.receive",
        "Host._receive_arp", "Host._receive_ip", "Host._receive_icmp", "Host._receive_udp",
    ),
    "controller/channel.py": (
        "ControllerChannel.send_to_switch", "ControllerChannel._deliver_to_switch",
        "ControllerChannel._from_switch_async", "ControllerChannel._deliver_to_controller",
    ),
}

#: (file, method, the exit's context) -> why no frame is lost there.  The
#: context is the first line of the statement before the exit in its
#: block, or of the block's header when the exit opens it.
NOT_LOST = {
    ("legacy/switch.py", "LegacySwitch.receive", "self._general_path(number, frame)"):
        "handed to the general path, which is checked",
    ("legacy/switch.py", "LegacySwitch.receive_burst", "super().receive_burst(port, arrivals)"):
        "unrolled into receive() calls, which are checked",
    ("legacy/switch.py", "LegacySwitch.receive_burst", "if fdb.generation != generation:"):
        "handed to the general path, which is checked",
    ("legacy/switch.py", "LegacySwitch._send", "buffered.setdefault(port_number, []).append(frame)"):
        "buffered: the burst sends and counts it when it leaves",
    ("softswitch/datapath.py", "SoftSwitch.process_batch",
     "program.run_burst(in_port, frames)"):
        "the compiled program serves the burst and counts its drops by reason",
    ("softswitch/datapath.py", "SoftSwitch._flush",
     "if not outputs and (not async_messages):"):
        "nothing to emit: the walk already counted the frame's end",
    ("softswitch/datapath.py", "SoftSwitch._output",
     "self._send_packet_in(frame, in_port, reason=c.OFPR_ACTION, max_len=action.max_len)"):
        "sent to the controller as a packet-in",
    ("softswitch/datapath.py", "SoftSwitch._output", "for number in sorted(self.ports):"):
        "flooded to every other port",
    ("softswitch/datapath.py", "SoftSwitch._output", "self._transmit(in_port, frame)"):
        "sent back out of its ingress port",
    ("softswitch/datapath.py", "SoftSwitch._run_group",
     "for index, bucket in enumerate(entry.buckets):"):
        "a copy went through every bucket of the ALL group",
    ("netsim/link.py", "Link.set_down", "if not self.up:"):
        "already down: nothing is queued or on the wire",
    ("netsim/host.py", "Host.send_ip", "self.port0.send(frame)"):
        "sent: the port counts what it cannot send",
}


def counts_drops(statement: ast.stmt, counters: set) -> bool:
    """A ``drops[...]`` increment, or a call to a counting helper."""
    if isinstance(statement, ast.AugAssign):
        target = statement.target
        return isinstance(target, ast.Subscript) and (
            isinstance(target.value, ast.Attribute) and target.value.attr == "drops"
            or isinstance(target.value, ast.Name) and target.value.id == "drops"
        )
    if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Call):
        func = statement.value.func
        return isinstance(func, ast.Attribute) and func.attr in counters
    return False


def counting_helpers(trees) -> set:
    """Functions whose body is nothing but counter increments, one of
    them into ``drops``: ``_tx_drop``, ``_Direction.drop`` and the like."""
    helpers = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                body = [s for s in node.body if not isinstance(s, ast.Expr)
                        or not isinstance(s.value, ast.Constant)]  # docstring
                if body and all(isinstance(s, ast.AugAssign) for s in body) and any(
                    counts_drops(s, set()) for s in body
                ):
                    helpers.add(node.name)
    return helpers


def methods(tree: ast.Module) -> dict:
    return {
        f"{cls.name}.{func.name}": func
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for func in cls.body if isinstance(func, ast.FunctionDef)
    }


def exits(function: ast.FunctionDef, counters: set):
    """``(line, context, counted)`` for every early ``return``/``continue``."""
    found = []

    def walk(block: list, header: str, counted: bool) -> None:
        for index, statement in enumerate(block):
            before = block[:index]
            here = counted or any(counts_drops(s, counters) for s in before)
            if isinstance(statement, (ast.Return, ast.Continue)):
                if statement is not function.body[-1]:
                    context = ast.unparse(before[-1]).splitlines()[0] if before else header
                    found.append((statement.lineno, context, here))
                continue
            for field in ("body", "orelse", "finalbody", "handlers"):
                inner = getattr(statement, field, None)
                if isinstance(inner, list) and inner and isinstance(inner[0], ast.AST):
                    if field == "handlers":
                        for handler in inner:
                            walk(handler.body, ast.unparse(handler).splitlines()[0], here)
                    else:
                        first = ast.unparse(statement).splitlines()[0]
                        walk(inner, first if field == "body" else "else:", here)

    walk(function.body, "", False)
    return found


TREES = {path: ast.parse((SRC / path).read_text()) for path in FRAME_PATHS}
COUNTERS = counting_helpers(TREES.values())


@pytest.mark.parametrize("path", sorted(FRAME_PATHS))
def test_every_early_exit_is_counted_or_explained(path):
    defined = methods(TREES[path])
    problems = []
    explained = set()
    for name in FRAME_PATHS[path]:
        assert name in defined, f"{path}: no method {name} (moved? update FRAME_PATHS)"
        for line, context, counted in exits(defined[name], COUNTERS):
            key = (path, name, context)
            if key in NOT_LOST:
                explained.add(key)
            elif not counted:
                problems.append(f"{path}:{line} {name}: exit after {context!r} counts no drop")
    stale = {key for key in NOT_LOST if key[0] == path} - explained
    assert not problems, "\n".join(problems)
    assert not stale, f"NOT_LOST entries that match no exit: {sorted(stale)}"
