"""Use case (b) as a state machine: the DMZ policy against a set of pairs.

:class:`DmzMachine` is a hypothesis ``RuleBasedStateMachine`` over one
DMZ site (:func:`repro.core.verify.dmz_policy`: three tenants of two
VMs, intra-tenant pairs allowed).  Its rules are the operator's
``allow`` and ``revoke`` of a random pair, and a ping over a random
ordered pair; its model is a plain set of unordered pairs, started from
the same-tenant pairs as the VM names spell them.  The invariant, checked
by every ping: the ping is answered if and only if its pair is in the
model.  Both hosts forget their ARP entries before each ping, so every
ping resolves its peer through the policy's ARP rules too.

:func:`machine_for` binds the machine to a site (``harmless``: the
migrated site, ``ideal``: the same hosts on one OpenFlow switch) and an
executor (``compiled`` or ``interpreted``, on every software switch of
the site).  Like NICE, which model-checks controller programs as state
machines over FlowMods and frames (Kreutz et al., arXiv 1406.0440), it
finds a policy bug by the order of operations that shows it: when each
VM's ARP rule named one peer, an ``allow`` of a cross-tenant pair
overwrote it, and the VM's tenant peer stopped answering.
"""

import itertools

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.verify import build_harmless_site, build_ideal_site, dmz_policy
from repro.netsim.host import ARP_REQUEST_TIMEOUT_S, PING_TIMEOUT_S

SITES = ("harmless", "ideal")
EXECUTORS = ("compiled", "interpreted")
#: Simulated time for a policy change to reach the switch.
SETTLE_S = 0.01
#: Simulated time for a ping, its ARP resolution and both timeouts.
PING_WINDOW_S = max(ARP_REQUEST_TIMEOUT_S, PING_TIMEOUT_S) + 0.5


def tenant(name: str) -> str:
    return name.split("vm")[0]


class DmzMachine(RuleBasedStateMachine):
    """allow / revoke / ping against a reference set of pairs."""

    site = "harmless"
    executor = "compiled"
    names = sorted(dmz_policy().vms)
    pairs = st.sampled_from(list(itertools.permutations(names, 2)))

    def __init__(self) -> None:
        super().__init__()
        self.dmz = dmz_policy()
        build = build_harmless_site if self.site == "harmless" else build_ideal_site
        self.sim, hosts, built, controller = build(len(self.dmz.vms), [self.dmz])
        switches = (built.s4.ss1, built.s4.ss2) if self.site == "harmless" else (built,)
        for switch in switches:
            switch.specialize = self.executor == "compiled"
        (self.datapath,) = controller.datapaths.values()
        self.hosts = {name: hosts[vm.port - 1] for name, vm in self.dmz.vms.items()}
        self.model = {
            frozenset(pair)
            for pair in itertools.combinations(self.names, 2)
            if tenant(pair[0]) == tenant(pair[1])
        }

    def settle(self) -> None:
        self.sim.run(until=self.sim.now + SETTLE_S)

    @rule(pair=pairs)
    def allow(self, pair) -> None:
        self.dmz.allow(self.datapath, *pair)
        self.model.add(frozenset(pair))
        self.settle()

    @rule(pair=pairs)
    def revoke(self, pair) -> None:
        self.dmz.revoke(self.datapath, *pair)
        self.model.discard(frozenset(pair))
        self.settle()

    @rule(pair=pairs)
    def ping(self, pair) -> None:
        src, dst = (self.hosts[name] for name in pair)
        src.arp_table.clear()
        dst.arp_table.clear()
        result = src.ping(dst.ip)
        self.sim.run(until=self.sim.now + PING_WINDOW_S)
        allowed = frozenset(pair) in self.model
        assert result.lost != allowed, (
            f"{self.site}/{self.executor}: ping {pair[0]} -> {pair[1]} "
            f"{'lost' if result.lost else 'answered'}, but the pair is "
            f"{'allowed' if allowed else 'denied'}; allowed now: "
            f"{sorted(tuple(sorted(p)) for p in self.model)}"
        )

    @invariant()
    def policy_is_the_model(self) -> None:
        assert {frozenset(pair) for pair in self.dmz.allowed_pairs} == self.model


def machine_for(site: str, executor: str) -> type:
    """:class:`DmzMachine` on *site* with *executor*."""
    return type(f"DmzMachine_{site}_{executor}", (DmzMachine,),
                {"site": site, "executor": executor})
