"""The mutation ledger: bugs this repository has had, and the suites that kill them.

Each :class:`Mutant` replaces *anchor*, which must occur exactly once
in ``src/repro/<path>``, with *replacement*, and names the test files
expected to fail on the result.  ``python tools/mutants.py`` applies
each one to a copy of ``src/`` and runs its killers with ``-x -q``;
``tests/test_differential_kit.py`` checks in tier-1 that every anchor
still occurs exactly once.  A refactor that moves mutated code updates
its anchor in the same change; a deletion deletes its mutants.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    path: str  # under src/repro/
    anchor: str
    replacement: str
    bug: str  # what it stands for, and the PR that found or fixed it
    killers: tuple  # test files under tests/
    #: A test file the mutant survived at the parent of the change that
    #: added it (the blind spot that change closed), or None.
    survived_before: "str | None" = None


MUTANTS = [
    Mutant(
        "softswitch/flowtable.py",
        "entry.sort_key = (-entry.priority, entry.installed_at, entry.seq)",
        "entry.sort_key = (-entry.priority, entry.seq)",
        "arbitration between equal priorities ignores installed_at",
        ("test_classifier_differential.py",),
    ),
    Mutant(
        "legacy/fdb.py",
        "                self.move_events += 1\n                self.generation += 1\n",
        "                self.move_events += 1\n",
        "an FDB move keeps the generation: a cached hop outlives a re-point (PR 22)",
        ("test_legacy_differential.py",),
    ),
    Mutant(
        "legacy/switch.py",
        "            hops[key] = hop\n",
        "            pass\n",
        "the legacy forwarding cache never stores a hop (PR 38)",
        ("test_legacy_differential.py",),
    ),
    Mutant(
        "netsim/link.py",
        "        port_a._tx_direction = self._a_to_b\n        port_b._tx_direction = self._b_to_a\n",
        "        port_a._tx_direction = port_a._tx_direction or self._a_to_b\n"
        "        port_b._tx_direction = port_b._tx_direction or self._b_to_a\n",
        "a re-wired port keeps its old link's transmit record (PR 38)",
        ("test_netsim_simulator.py",),
    ),
    Mutant(
        "softswitch/datapath.py",
        "message.table_id < instruction.table_id < len(self.tables)",
        "instruction.table_id < len(self.tables)",
        "a GotoTable that does not increase is installed (PR 15)",
        ("test_softswitch.py",),
    ),
    Mutant(
        "softswitch/datapath.py",
        "                reason = breaks_shape(program)\n",
        "                breaks_shape(program)\n",
        "a compiled program kept across a shape change (PR 24)",
        ("test_specialized_differential.py",),
    ),
    Mutant(
        "softswitch/datapath.py",
        "                program.flush(dead)\n",
        "                pass\n",
        "a patch that keeps the removed entries' decisions (PR 14)",
        ("test_specialized_differential.py",),
    ),
    Mutant(
        "softswitch/compiler.py",
        "            if mask == FULL_MASKS[slot]:",
        "            if mask == FULL_MASKS[slot] or slot in (1, 4):",
        "eth_dst and vlan_vid probed bare whatever their mask (PR 35)",
        ("test_classifier_differential.py", "test_specialized_differential.py"),
    ),
    Mutant(
        "softswitch/compiler.py",
        '                none_guards.append(f"v{slot} is not None")\n',
        "",
        "a partial mask probed without its None guard (PR 35)",
        ("test_specialized_differential.py",),
    ),
    Mutant(
        "softswitch/flowtable.py",
        "        elif subtable.max_priority != bound:\n            self._staged_dirty = True\n",
        "",
        "no re-sort of the probe order when a subtable's bound falls (PR 35)",
        ("test_classifier_differential.py", "test_subtables.py"),
    ),
    Mutant(
        "softswitch/flowtable.py",
        "-subtable.max_priority > best.sort_key[0]:",
        "-subtable.max_priority >= best.sort_key[0]:",
        "the probe gate skips a subtable that can still win a tie (PR 35)",
        ("test_classifier_differential.py",),
    ),
    Mutant(
        "netsim/simulator.py",
        "        time = self._now + delay\n        entry = [time, next(self._seq), callback, args]\n"
        "        lane = self._lane\n        if not lane or lane[-1][0] <= time:\n",
        "        time = self._now + delay\n        entry = [time, next(self._seq), callback, args]\n"
        "        lane = self._lane\n        if not lane or lane[0][0] <= time:\n",
        "schedule's tail test reads lane[0] (PR 37)",
        ("test_netsim_simulator.py",),
    ),
    Mutant(
        "netsim/simulator.py",
        "            lane += live\n",
        "",
        "compaction clears the lane without refilling it (PR 37)",
        ("test_netsim_simulator.py",),
    ),
    Mutant(
        "netsim/simulator.py",
        "run = sorted([*lane, *entries])",
        "run = [*lane, *entries]",
        "schedule_many extends the lane without sorting (PR 37)",
        ("test_netsim_simulator.py",),
    ),
    Mutant(
        "netsim/simulator.py",
        "                    time, _, callback, args = entry = lane[0]\n",
        "                    time, _, callback, args = entry = lane[-1]\n",
        "the run loop reads lane[-1] as the lane's head (PR 37)",
        ("test_netsim_simulator.py",),
    ),
    Mutant(
        "netsim/simulator.py",
        "        if not time >= self._now:\n",
        "        if time < self._now:\n",
        "schedule_at accepts NaN as a time (PR 33)",
        ("test_netsim_simulator.py",),
    ),
    Mutant(
        "net/ethernet.py",
        "        self._wire_length = 14 + 4 * len(self._tags) + max(len(payload), MIN_PAYLOAD)\n",
        "",
        "an assigned payload is not re-measured (PR 19)",
        ("test_net_ethernet.py",),
    ),
    Mutant(
        "softswitch/compiler.py",
        'DROPS["table-miss"] += missed',
        'DROPS["no-such-port"] += missed',
        "a compiled burst books its table misses as no-such-port: only drops by\n"
        "reason tell, which the classifier suite once left uncompared",
        ("test_classifier_differential.py",),
        survived_before="test_classifier_differential.py",
    ),
    # One uncounted early return per ``drops`` producer: the frame is
    # lost and nothing says why (ROADMAP item 1a, slice iii).
    Mutant(
        "legacy/switch.py",
        '        self.drops["egress-filtered"] += 1\n',
        "",
        "the legacy switch filters a frame at egress without counting it",
        ("test_frame_path_drops.py",),
    ),
    Mutant(
        "netsim/node.py",
        '            self.drops["port-down"] += 1\n',
        "",
        "a down port discards an arriving frame without counting it",
        ("test_frame_path_drops.py",),
    ),
    Mutant(
        "softswitch/datapath.py",
        '            self.drops["no-such-group"] += 1\n',
        "",
        "the interpreter drops a frame sent to a missing group without counting it",
        ("test_frame_path_drops.py",),
    ),
    Mutant(
        "netsim/host.py",
        '            self.drops["tagged"] += 1\n',
        "",
        "a host discards a tagged frame without counting it",
        ("test_frame_path_drops.py",),
    ),
    Mutant(
        "controller/channel.py",
        '            self.drops["to-switch:channel-down"] += 1\n',
        "",
        "a down channel loses a message to the switch without counting it",
        ("test_frame_path_drops.py",),
    ),
    # A VLAN tag edit is one Python frame and a translator rule one
    # compiled branch: the inlined derivations and the one-edit plan.
    Mutant(
        "net/ethernet.py",
        "        frame._wire_length = self._wire_length + 4\n",
        "        frame._wire_length = self._wire_length\n",
        "the inlined push_vlan keeps its source's wire length",
        ("test_net_ethernet.py",),
    ),
    Mutant(
        "softswitch/compiler.py",
        "            if vlan_id is None:\n                if frame.tags:\n"
        "                    frame = frame.pop_vlan()\n",
        "            if vlan_id is None:\n                frame = frame.pop_vlan()\n",
        "the one-edit plan pops an untagged frame (the interpreter leaves it as it is)",
        ("test_specialization.py",),
    ),
    Mutant(
        "core/translator.py",
        "                        actions=(\n                            PushVlanAction(),\n",
        "                        actions=(\n                            PopVlanAction(),\n"
        "                            PushVlanAction(),\n",
        "the patch -> trunk rule strips any tag before tagging: a frame SS_2 tagged\n"
        "reaches its host untagged, and the rule check does not count pops there",
        ("test_transparency_scope.py",),
        survived_before="test_core_verify.py",
    ),
    # A delayed legacy hop reads its 802.1Q rules inline; the readable
    # general path in the differential's oracle holds each copy.
    Mutant(
        "legacy/switch.py",
        "                if not access and vlan_id != egress.native_vlan:\n",
        "                if not access:\n",
        "the flat known-unicast egress sends a trunk's native VLAN tagged",
        ("test_legacy_differential.py",),
    ),
    Mutant(
        "legacy/switch.py",
        "            vlan_id = None if tags else port_config.pvid\n",
        "            vlan_id = port_config.pvid\n",
        "the flat general path accepts a tagged frame on an access port",
        ("test_legacy_differential.py",),
    ),
    Mutant(
        "legacy/switch.py",
        "            if vlan_id in port_config.allowed_vlans:\n",
        "            if vlan_id is not None:\n",
        "the flat general path forwards a VLAN its trunk port does not allow",
        ("test_legacy_differential.py",),
    ),
    Mutant(
        "legacy/switch.py",
        "                else vlan_id in egress.allowed_vlans or vlan_id == egress.native_vlan\n",
        "                else True\n",
        "the flat known-unicast egress sends a VLAN its trunk port does not carry\n"
        "(the differential draws no known target on a trunk outside its VLAN)",
        ("test_legacy_switch.py",),
    ),
    Mutant(
        "legacy/fdb.py",
        "        if entry.static or now - entry.learned_at <= self.aging_s:\n",
        "        if entry.static or now - entry.learned_at < self.aging_s:\n",
        "the FDB lookup ages an entry out at exactly its aging time\n"
        "(the differential meets that boundary only through the cache)",
        ("test_legacy_fdb.py",),
    ),
    Mutant(
        "core/verify.py",
        "    served = switch.specialized_frames - served_before\n",
        "    served = switch.specialized_frames\n",
        "a use-case pass counts the frames served while the site was set up\n"
        "as its own: UC-PC's share reads above 1",
        ("test_paper_claims.py",),
    ),
    # The two rows left over from the ledger's first pass.
    Mutant(
        "snmp/agent.py",
        "            if restore is not None:\n                restore()\n",
        "",
        "a multi-varbind SET refused part-way keeps the bindings it applied (PR 32)",
        ("test_snmp_bridge_mib.py",),
    ),
    Mutant(
        "core/manager.py",
        "                trunk_link.disconnect()  # frees the trunk port for a retry\n",
        "                pass\n",
        "a failed bring-up rolls back but leaves the S4 trunk wired (PR 27)",
        ("test_core_manager.py",),
    ),
    # The reference interpreter's only matching code: a linear scan of
    # Match.matches_key over PacketView's flow key.  The compiled program
    # reads neither, so the linear-versus-compiled differentials watch them.
    Mutant(
        "openflow/match.py",
        "if packet_value is None or packet_value & mask != value:",
        "if packet_value is None or packet_value != value:",
        "a masked match compares the packet's whole field: the interpreter misses\n"
        "every prefix and partial-mask entry the compiled probes hit",
        ("test_specialized_differential.py",),
    ),
    Mutant(
        "openflow/packetview.py",
        "            OFPVID_PRESENT | vlan.vlan_id if vlan is not None else 0,\n",
        "            vlan.vlan_id if vlan is not None else 0,\n",
        "the decoded flow key reports a tagged frame's bare VID, without\n"
        "OFPVID_PRESENT (the seed's PacketView.get set it; a Match.vlan entry\n"
        "never meets the key)",
        ("test_specialized_differential.py",),
    ),
    # A burst is the sender's frame list plus its arrival times.
    Mutant(
        "netsim/link.py",
        "            arrivals = [busy + prop] * fits\n",
        "            arrivals = [busy] * fits\n",
        "an ideal link's burst lands without its propagation delay",
        ("test_netsim_link_timing.py",),
    ),
    # The DMZ policy's ARP: one rule per VM, rewritten on allow/revoke
    # (ROADMAP item 15(a)).
    Mutant(
        "apps/dmz.py",
        "            actions=[OutputAction(port=peer.port) for peer in peers],\n",
        "            actions=[OutputAction(port=peers[-1].port)],\n",
        "a VM's ARP rule reaches only its latest peer: allowing a second pair\n"
        "overwrites the first pair's ARP, and the tenant peer stops answering",
        ("test_dmz_machine.py", "test_paper_claims.py"),
        survived_before="test_paper_claims.py",
    ),
    # One mutant per module over 200 lines that had none (ROADMAP item
    # 20(a)): the bug the module's history fixed where it records one
    # (the untagged pop, a VLAN membership left behind), else a
    # one-line slip on the line that carries the module's rule.
    Mutant(
        "openflow/messages.py",
        "            idle_timeout=idle_timeout,\n            hard_timeout=hard_timeout,\n",
        "            idle_timeout=hard_timeout,\n            hard_timeout=idle_timeout,\n",
        "a FlowMod off the wire swaps its idle and hard timeouts",
        ("test_openflow_messages.py",),
    ),
    Mutant(
        "openflow/actions.py",
        "        if not frame.tags:\n            # Per spec",
        "        if frame is None:\n            # Per spec",
        "the interpreter's pop_vlan pops an untagged frame (the compiled\n"
        "plan's twin of this bug is a row above)",
        ("test_specialized_differential.py",),
    ),
    Mutant(
        "controller/core.py",
        "                if app.on_packet_in(datapath, message):\n"
        "                    break  # app consumed the packet\n",
        "                app.on_packet_in(datapath, message)\n",
        "a packet-in one app consumed still reaches the apps after it",
        ("test_apps_usecases.py",),
    ),
    Mutant(
        "fabric/topology.py",
        "        homed[index % spines].append(edge)\n",
        "        homed[0].append(edge)\n",
        "leaf_spine_fabric homes every edge on the first spine, not round-robin\n"
        "over the chained spines",
        ("test_fabric.py",),
    ),
    Mutant(
        "netsim/faults.py",
        "            s4.install_translator(deployment.port_map)\n",
        "",
        "a crashed site restarts without SS_1's translator rules",
        ("test_resilience.py",),
    ),
    Mutant(
        "snmp/bridge_mib.py",
        "                current_egress[other_vid] -= moved\n",
        "",
        "granting a port untagged membership leaves it an egress member of\n"
        "its old VLAN, so the access port turns into a trunk",
        ("test_snmp_bridge_mib.py",),
    ),
    Mutant(
        "mgmt/base.py",
        "        for vlan_id in sorted(current_vlans - snapshot_vlans - {1}):\n",
        "        for vlan_id in ():\n",
        "a rollback keeps the VLANs the failed commit created",
        ("test_mgmt_drivers.py",),
    ),
    Mutant(
        "mgmt/drivers.py",
        "            ports.extend(range(int(low), int(high) + 1))\n",
        "            ports.extend(range(int(low), int(high)))\n",
        "a ProCurve port range 5-7 leaves out its last port",
        ("test_mgmt_drivers.py",),
    ),
    Mutant(
        "traffic/generators.py",
        "        count = min(burst_size, total)\n",
        "        count = burst_size\n",
        "burst_schedule's last burst is full size: more frames than cbr_schedule",
        ("test_traffic_nfpa.py",),
    ),
]
