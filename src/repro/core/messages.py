"""Protocol message vocabulary (paper Table 3).

All protocol traffic is expressed with these message types:

=============  ==============================================================
INV (+data)    Invalidate a key's current value, carrying the new value.
ACK            Acknowledge an event (combined consistency+persistency).
ACK_C          Acknowledge a consistency event (volatile replica updated).
ACK_P          Acknowledge a persistency event (update persisted to NVM).
VAL            Mark the termination of an event (combined).
VAL_C          Terminate a consistency event (all volatile replicas updated).
VAL_P          Terminate a persistency event (all replicas persisted).
UPD (+cauhist) Provide an updated value, plus causal history under Causal.
INITX / ENDX   Transaction begin / end.
PERSIST        End of scope ``s`` (Scope persistency).
=============  ==============================================================

Under Scope persistency every message carries the scope id it belongs to
(the paper's ``[XXX]s`` notation) via the ``scope_id`` field.

Sizes approximate a compact wire format: a 16-byte header, 8-byte key,
and (for data-carrying messages) a value payload; causal histories add
one (key, version) pair per dependency.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional, Tuple

from repro.core.replica import Version

__all__ = ["MsgType", "Message", "HEADER_BYTES", "VALUE_BYTES", "CAUHIST_ENTRY_BYTES"]

HEADER_BYTES = 16
KEY_BYTES = 8
VALUE_BYTES = 64
CAUHIST_ENTRY_BYTES = 12


class MsgType(enum.Enum):
    """The message types of Table 3."""

    INV = "INV"
    ACK = "ACK"
    ACK_C = "ACK_c"
    ACK_P = "ACK_p"
    VAL = "VAL"
    VAL_C = "VAL_c"
    VAL_P = "VAL_p"
    UPD = "UPD"
    INITX = "INITX"
    ENDX = "ENDX"
    PERSIST = "PERSIST"

    def __init__(self, label: str):
        #: The value, as a plain attribute: what a send accounts the
        #: message under and the key handler dispatch looks up (a str,
        #: hashed in C), without the two frames an ``Enum.value`` read
        #: or an ``Enum.__hash__`` costs.
        self.label = label
        self.carries_data = label in ("INV", "UPD")
        #: Wire bytes before the key, causal history and payload pairs:
        #: the header, plus the value on the data-carrying types.  Held
        #: on the member so ``Message.size_bytes`` reads one attribute
        #: per message instead of hashing or comparing enum members.
        self.base_bytes = HEADER_BYTES + (
            VALUE_BYTES if self.carries_data else 0)

    @property
    def is_ack(self) -> bool:
        return self in (MsgType.ACK, MsgType.ACK_C, MsgType.ACK_P)

    @property
    def is_val(self) -> bool:
        return self in (MsgType.VAL, MsgType.VAL_C, MsgType.VAL_P)


class Message(NamedTuple):
    """One protocol message.  Immutable: one object is shared by every
    destination of a broadcast, by watchdog resends and by the causal
    buffer.

    ``op_id`` identifies the client operation (write / transaction /
    scope-persist) the message belongs to, so coordinators can match ACKs
    to outstanding operations.  ``version`` is the per-key monotonically
    increasing version the update installs.  ``cauhist`` lists
    (key, version) dependencies under Causal consistency.  ``scope_id``
    tags all traffic under Scope persistency; ``txn_id`` tags traffic
    within Transactional consistency.
    """

    msg_type: MsgType
    src: int
    op_id: int
    key: Optional[int] = None
    version: Optional[Version] = None
    value: Optional[object] = None
    cauhist: Tuple[Tuple[int, Version], ...] = ()
    scope_id: Optional[int] = None
    txn_id: Optional[int] = None
    payload: Tuple[Tuple[int, Version], ...] = ()
    """For INITX/ENDX/PERSIST: the (key, version) pairs covered."""
    abort: bool = False
    """A VAL with ``abort`` set squashes the transaction: followers
    revert the payload's writes instead of validating them."""

    @property
    def size_bytes(self) -> int:
        size = self.msg_type.base_bytes
        if self.key is not None:
            size += KEY_BYTES
        if self.cauhist or self.payload:
            size += (len(self.cauhist)
                     + len(self.payload)) * CAUHIST_ENTRY_BYTES
        return size

    def tagged(self) -> str:
        """Display form, scope-tagged like the paper's ``[INV]s``."""
        name = self.msg_type.label
        if self.scope_id is not None:
            return f"[{name}]{self.scope_id}"
        return name

    def __str__(self) -> str:
        parts = [self.tagged(), f"op={self.op_id}"]
        if self.key is not None:
            parts.append(f"key={self.key}")
        if self.version is not None:
            parts.append(f"v={self.version}")
        return " ".join(parts)
