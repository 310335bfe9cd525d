"""Per-packet CPU cost model for the software datapath.

The paper argues HARMLESS adds no major performance penalty versus
running the same software switch natively.  To evaluate that in
simulation we charge each packet a CPU time computed from what the
pipeline actually did: table lookups, actions executed, VLAN
push/pops.  Constants are calibrated so a single core forwards
~10-15 Mpps through a one-table pipeline, matching the throughput
ESwitch reports for compiled OpenFlow pipelines on DPDK [Molnar et al.,
SIGCOMM 2016].
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DatapathCostModel:
    """Nanosecond costs charged per packet by pipeline stage.

    ``cost(...)`` returns seconds, ready for simulator scheduling.
    """

    #: Fixed RX+TX overhead (driver, classification setup).
    base_ns: float = 40.0
    #: One flow-table lookup (hash + priority scan amortised).
    lookup_ns: float = 20.0
    #: One generic action execution (output, set-field...).
    action_ns: float = 5.0
    #: Extra for VLAN push/pop (header move).
    vlan_op_ns: float = 8.0
    #: Group bucket selection (hash over fields).
    group_ns: float = 12.0
    #: Crossing a patch port into another switch instance.
    patch_ns: float = 15.0

    def cost_s(
        self,
        lookups: int = 1,
        actions: int = 1,
        vlan_ops: int = 0,
        group_selections: int = 0,
        patch_hops: int = 0,
    ) -> float:
        """Total CPU seconds for one packet with the given stage counts."""
        total_ns = (
            self.base_ns
            + self.lookup_ns * lookups
            + self.action_ns * actions
            + self.vlan_op_ns * vlan_ops
            + self.group_ns * group_selections
            + self.patch_ns * patch_hops
        )
        return total_ns * 1e-9

    def peak_pps(
        self,
        lookups: int = 1,
        actions: int = 1,
        vlan_ops: int = 0,
        group_selections: int = 0,
        patch_hops: int = 0,
    ) -> float:
        """Single-core packets/second ceiling for a given pipeline shape.

        Accepts the same stage counts as :meth:`cost_s`, so ceilings for
        group- and patch-port pipelines are charged for those stages too.
        """
        return 1.0 / self.cost_s(
            lookups=lookups,
            actions=actions,
            vlan_ops=vlan_ops,
            group_selections=group_selections,
            patch_hops=patch_hops,
        )

    @classmethod
    def zero(cls) -> "DatapathCostModel":
        """The all-zero model used by wall-clock (Python-level) benches.

        Keyword-safe against field additions, unlike spelling out every
        coefficient positionally at each call site.
        """
        return cls(
            base_ns=0.0,
            lookup_ns=0.0,
            action_ns=0.0,
            vlan_op_ns=0.0,
            group_ns=0.0,
            patch_ns=0.0,
        )


#: The default, ESwitch-calibrated model (~13 Mpps for 1 lookup + 1 output).
ESWITCH_COST_MODEL = DatapathCostModel()
