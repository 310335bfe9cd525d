"""Software OpenFlow switch (the ESwitch/DPDK stand-in).

A full OpenFlow 1.3 datapath: multiple flow tables with priority and
masked matching, apply/write action semantics, select/all/indirect
groups (select drives the load-balancer use case), flow timeouts with
flow-removed notifications, per-flow/table/group counters, and a
controller channel that speaks serialised OpenFlow bytes.

Forwarding performance is modelled by :class:`DatapathCostModel`, whose
per-packet costs are calibrated to the ESwitch paper's reported
single-core throughput — this is what makes the throughput/latency
benchmarks meaningful (see "Substitutions" in docs/architecture.md).
"""

from repro.softswitch.compiler import CompiledProgram, compile_datapath
from repro.softswitch.costmodel import DatapathCostModel, ESWITCH_COST_MODEL
from repro.softswitch.datapath import SoftSwitch
from repro.softswitch.flowtable import FlowEntry, FlowTable
from repro.softswitch.groups import GroupEntry, GroupTable

__all__ = [
    "SoftSwitch",
    "FlowTable",
    "FlowEntry",
    "GroupTable",
    "GroupEntry",
    "DatapathCostModel",
    "ESWITCH_COST_MODEL",
    "CompiledProgram",
    "compile_datapath",
]
