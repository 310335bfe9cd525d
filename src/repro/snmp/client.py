"""The SNMP manager side: get/set/walk against an agent."""

from __future__ import annotations

import itertools
from typing import Any

from repro.snmp.agent import SnmpAgent, SnmpError, SnmpErrorStatus
from repro.snmp.oid import OID
from repro.snmp.pdu import PduType, SnmpPdu


class SnmpTimeout(Exception):
    """The agent dropped the request (bad community or unreachable)."""


class SnmpClient:
    """Issues requests to one agent.

    The HARMLESS Manager uses this through the NAPALM-like drivers; it
    is also handy directly in tests and examples.
    """

    def __init__(self, agent: SnmpAgent, community: str = "public") -> None:
        self.agent = agent
        self.community = community
        self._request_ids = itertools.count(1)

    def _rpc(self, pdu_type: PduType, bindings: list[tuple[OID, Any]]) -> SnmpPdu:
        request = SnmpPdu(
            pdu_type=pdu_type,
            request_id=next(self._request_ids),
            community=self.community,
        )
        for oid, value in bindings:
            request.bind(oid, value)
        response = self.agent.handle(request)
        if response is None:
            raise SnmpTimeout(f"no response (community {self.community!r})")
        if response.error_status:
            raise SnmpError(
                SnmpErrorStatus(response.error_status), response.error_index
            )
        return response

    def get(self, oid: "OID | str") -> Any:
        """GET a single value."""
        response = self._rpc(PduType.GET, [(OID(oid), None)])
        return response.varbinds[0].value

    def get_many(self, oids: "list[OID | str]") -> list[Any]:
        """GET several values in one PDU."""
        response = self._rpc(PduType.GET, [(OID(oid), None) for oid in oids])
        return [binding.value for binding in response.varbinds]

    def get_next(self, oid: "OID | str") -> "tuple[OID, Any]":
        """GETNEXT: the lexicographically next (oid, value)."""
        response = self._rpc(PduType.GETNEXT, [(OID(oid), None)])
        binding = response.varbinds[0]
        return binding.oid, binding.value

    def set(self, oid: "OID | str", value: Any) -> None:
        """SET a single value."""
        self._rpc(PduType.SET, [(OID(oid), value)])

    def set_many(self, bindings: "list[tuple[OID | str, Any]]") -> None:
        """SET several values atomically."""
        self._rpc(PduType.SET, [(OID(oid), value) for oid, value in bindings])

    def walk(self, base: "OID | str") -> "list[tuple[OID, Any]]":
        """All (oid, value) pairs under *base*, in lexicographic order."""
        base = OID(base)
        results: list[tuple[OID, Any]] = []
        cursor = base
        while True:
            try:
                oid, value = self.get_next(cursor)
            except SnmpError as exc:
                if exc.status is SnmpErrorStatus.NO_SUCH_NAME:
                    break  # end of MIB
                raise
            if oid <= cursor:
                # A broken agent would otherwise keep the walk going forever.
                raise SnmpError(
                    SnmpErrorStatus.GEN_ERR, 1, f"OID not increasing: {oid} after {cursor}"
                )
            if not base.is_prefix_of(oid):
                break
            results.append((oid, value))
            cursor = oid
        return results

    def table_rows(self, base: "OID | str") -> "dict[tuple[int, ...], Any]":
        """Walk *base* and key results by their index suffix."""
        base = OID(base)
        return {
            oid.strip_prefix(base): value for oid, value in self.walk(base)
        }
