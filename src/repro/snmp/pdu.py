"""SNMP protocol data units (modelled, not BER-encoded).

The transport substitution is documented under "Substitutions" in
docs/architecture.md: PDUs travel as objects over an in-memory
management channel instead of UDP/BER, but carry the same fields and
honour the same error semantics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.snmp.oid import OID


class PduType(enum.Enum):
    GET = "get"
    GETNEXT = "getnext"
    SET = "set"
    RESPONSE = "response"


@dataclass
class VarBind:
    """One (OID, value) pair; value None means end-of-mib / no-such."""

    oid: OID
    value: Any = None

    def __post_init__(self) -> None:
        self.oid = OID(self.oid)


@dataclass
class SnmpPdu:
    """A request or response PDU."""

    pdu_type: PduType
    request_id: int
    community: str = "public"
    varbinds: list[VarBind] = field(default_factory=list)
    error_status: int = 0
    error_index: int = 0

    def bind(self, oid: "OID | str", value: Any = None) -> "SnmpPdu":
        """Append a varbind; returns self for chaining."""
        self.varbinds.append(VarBind(oid=OID(oid), value=value))
        return self
