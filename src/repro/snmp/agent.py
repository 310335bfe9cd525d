"""The SNMP agent: community auth + GET/GETNEXT/SET over a MIB tree."""

from __future__ import annotations

import enum

from repro.snmp.mib import MibTree
from repro.snmp.pdu import PduType, SnmpPdu, VarBind


class SnmpErrorStatus(enum.IntEnum):
    """RFC 1157 error-status values (the subset agents actually use)."""

    NO_ERROR = 0
    TOO_BIG = 1
    NO_SUCH_NAME = 2
    BAD_VALUE = 3
    READ_ONLY = 4
    GEN_ERR = 5


class SnmpError(Exception):
    """Raised client-side when a response carries an error-status, or
    (with *detail*) is one no conforming agent would send."""

    def __init__(self, status: SnmpErrorStatus, index: int, detail: str = "") -> None:
        self.status = status
        self.index = index
        super().__init__(detail or f"SNMP error {status.name} at varbind {index}")


class SnmpAgent:
    """Serves one device's MIB tree.

    ``read_community`` grants GET/GETNEXT; ``write_community`` grants
    SET as well.  Wrong community -> the request is silently dropped
    (None returned), which is how real agents behave on the wire.
    """

    def __init__(
        self,
        mib: MibTree,
        read_community: str = "public",
        write_community: str = "private",
    ) -> None:
        self.mib = mib
        self.read_community = read_community
        self.write_community = write_community
        self.requests_served = 0
        self.auth_failures = 0

    def handle(self, request: SnmpPdu) -> "SnmpPdu | None":
        """Process one request PDU, returning the response (or None)."""
        if request.pdu_type is PduType.SET:
            authorized = request.community == self.write_community
        else:
            authorized = request.community in (
                self.read_community,
                self.write_community,
            )
        if not authorized:
            self.auth_failures += 1
            return None
        self.requests_served += 1

        if request.pdu_type is PduType.GET:
            return self._handle_get(request)
        if request.pdu_type is PduType.GETNEXT:
            return self._handle_getnext(request)
        if request.pdu_type is PduType.SET:
            return self._handle_set(request)
        return self._error(request, SnmpErrorStatus.GEN_ERR, 0)

    def _response(self, request: SnmpPdu, varbinds: list[VarBind]) -> SnmpPdu:
        return SnmpPdu(
            pdu_type=PduType.RESPONSE,
            request_id=request.request_id,
            community=request.community,
            varbinds=varbinds,
        )

    def _error(self, request: SnmpPdu, status: SnmpErrorStatus, index: int) -> SnmpPdu:
        response = self._response(request, list(request.varbinds))
        response.error_status = int(status)
        response.error_index = index
        return response

    def _handle_get(self, request: SnmpPdu) -> SnmpPdu:
        results = []
        for position, binding in enumerate(request.varbinds, start=1):
            found, value = self.mib.get(binding.oid)
            if not found:
                return self._error(request, SnmpErrorStatus.NO_SUCH_NAME, position)
            results.append(VarBind(oid=binding.oid, value=value))
        return self._response(request, results)

    def _handle_getnext(self, request: SnmpPdu) -> SnmpPdu:
        results = []
        for position, binding in enumerate(request.varbinds, start=1):
            successor = self.mib.successor(binding.oid)
            if successor is None:
                # End of MIB: classic v1 answer is noSuchName.
                return self._error(request, SnmpErrorStatus.NO_SUCH_NAME, position)
            oid, value = successor
            results.append(VarBind(oid=oid, value=value))
        return self._response(request, results)

    def _handle_set(self, request: SnmpPdu) -> SnmpPdu:
        # SET is atomic.  Every binding is located before any is
        # applied: an OID is settable if a writable node's region covers
        # it — rows may not exist yet (RowStatus createAndGo creates
        # them).  A writer refuses a bad value or index with ValueError
        # before changing anything, so only a PDU of several bindings
        # needs the tree's checkpoint to undo the ones already applied.
        nodes = []
        for position, binding in enumerate(request.varbinds, start=1):
            node = self.mib.locate(binding.oid)
            if node is None:
                return self._error(request, SnmpErrorStatus.NO_SUCH_NAME, position)
            if not node.writable:
                return self._error(request, SnmpErrorStatus.READ_ONLY, position)
            nodes.append(node)
        restore = None
        if len(nodes) > 1 and self.mib.checkpoint is not None:
            restore = self.mib.checkpoint()
        for position, (binding, node) in enumerate(
            zip(request.varbinds, nodes), start=1
        ):
            try:
                written = node.set(binding.oid, binding.value)
            except ValueError:
                status = SnmpErrorStatus.BAD_VALUE
            else:
                if written:
                    continue
                status = SnmpErrorStatus.NO_SUCH_NAME
            if restore is not None:
                restore()
            return self._error(request, status, position)
        return self._response(request, list(request.varbinds))
