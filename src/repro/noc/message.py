"""NoC message taxonomy and sizes.

The paper classifies traffic (Fig 12) into three classes:

* ``DATA`` — non-offloaded data accesses and writebacks;
* ``CONTROL`` — coherence and prefetch messages;
* ``OFFLOAD`` — data and coordination for near-data computing (stream
  configuration, credits, ranges, commits, done, migration, forwards,
  indirect requests).

Each :class:`MessageType` belongs to one class and has a payload size;
``message_bytes`` adds the per-message header.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict

from repro.config import NocConfig

LINE_BYTES = 64


class MessageClass(Enum):
    """Fig 12's three traffic classes."""

    DATA = "data"
    CONTROL = "control"
    OFFLOAD = "offload"

    # Members compare by identity, so identity hashing is consistent with
    # equality and runs in C; Enum's own hashes the name in Python, and
    # every TrafficLedger operation hashes each member.
    __hash__ = object.__hash__


class MessageType(Enum):
    """Every distinct message the simulated machine sends."""

    # -- ordinary cache traffic (DATA) ---------------------------------
    READ_REQ = "read_req"              # core/L2 miss request to L3 or DRAM
    READ_RESP = "read_resp"            # full cache line response
    WRITE_REQ = "write_req"            # write/ownership request
    WRITE_RESP = "write_resp"          # data response for ownership
    WRITEBACK = "writeback"            # dirty line eviction
    ATOMIC_REQ = "atomic_req"          # line fetched to core for atomic
    ATOMIC_RESP = "atomic_resp"
    DRAM_READ = "dram_read"
    DRAM_WRITE = "dram_write"

    # -- coherence / prefetch (CONTROL) --------------------------------
    INVALIDATE = "invalidate"
    INV_ACK = "inv_ack"
    COHERENCE_FWD = "coherence_fwd"    # directory forward to owner
    PREFETCH_REQ = "prefetch_req"
    WRITE_ACK = "write_ack"

    # -- near-stream offload coordination (OFFLOAD) ---------------------
    STREAM_CONFIG = "stream_config"    # SE_core -> SE_L3 offload request
    STREAM_CREDIT = "stream_credit"    # flow-control credits
    STREAM_RANGE = "stream_range"      # [min,max) address range report
    STREAM_COMMIT = "stream_commit"    # core commit notification
    STREAM_DONE = "stream_done"        # SE_L3 ack after write back
    STREAM_END = "stream_end"          # termination / precise-state recovery
    STREAM_MIGRATE = "stream_migrate"  # stream state moving between banks
    STREAM_FORWARD = "stream_forward"  # element data forwarded between SE_L3s
    STREAM_REDUCE_COLLECT = "stream_reduce_collect"  # partial reductions
    STREAM_DATA = "stream_data"        # stream element data to the core
    STREAM_IND_REQ = "stream_ind_req"  # remote indirect access request
    STREAM_IND_RESP = "stream_ind_resp"

    __hash__ = object.__hash__   # as MessageClass's


# Payload bytes per message type. ``None`` means variable (caller supplies).
_PAYLOAD_BYTES: Dict[MessageType, int] = {
    MessageType.READ_REQ: 0,
    MessageType.READ_RESP: LINE_BYTES,
    MessageType.WRITE_REQ: 0,
    MessageType.WRITE_RESP: LINE_BYTES,
    MessageType.WRITEBACK: LINE_BYTES,
    MessageType.ATOMIC_REQ: 8,
    MessageType.ATOMIC_RESP: 8,
    MessageType.DRAM_READ: LINE_BYTES,
    MessageType.DRAM_WRITE: LINE_BYTES,
    MessageType.INVALIDATE: 0,
    MessageType.INV_ACK: 0,
    MessageType.COHERENCE_FWD: 0,
    MessageType.PREFETCH_REQ: 0,
    MessageType.WRITE_ACK: 0,
    MessageType.STREAM_CONFIG: 64,     # Table IV: config fits in ~1 line
    MessageType.STREAM_CREDIT: 4,
    MessageType.STREAM_RANGE: 16,      # [min,max) of 48-bit phys addresses
    MessageType.STREAM_COMMIT: 4,
    MessageType.STREAM_DONE: 4,
    MessageType.STREAM_END: 4,
    MessageType.STREAM_MIGRATE: 16,    # ids + changing fields (§IV-D)
    MessageType.STREAM_FORWARD: 8,     # one element by default
    MessageType.STREAM_REDUCE_COLLECT: 8,
    MessageType.STREAM_DATA: 8,
    MessageType.STREAM_IND_REQ: 8,     # packed value + iteration tag
    MessageType.STREAM_IND_RESP: 8,
}

_CLASS: Dict[MessageType, MessageClass] = {
    MessageType.READ_REQ: MessageClass.DATA,
    MessageType.READ_RESP: MessageClass.DATA,
    MessageType.WRITE_REQ: MessageClass.DATA,
    MessageType.WRITE_RESP: MessageClass.DATA,
    MessageType.WRITEBACK: MessageClass.DATA,
    MessageType.ATOMIC_REQ: MessageClass.DATA,
    MessageType.ATOMIC_RESP: MessageClass.DATA,
    MessageType.DRAM_READ: MessageClass.DATA,
    MessageType.DRAM_WRITE: MessageClass.DATA,
    MessageType.INVALIDATE: MessageClass.CONTROL,
    MessageType.INV_ACK: MessageClass.CONTROL,
    MessageType.COHERENCE_FWD: MessageClass.CONTROL,
    MessageType.PREFETCH_REQ: MessageClass.CONTROL,
    MessageType.WRITE_ACK: MessageClass.CONTROL,
    MessageType.STREAM_CONFIG: MessageClass.OFFLOAD,
    MessageType.STREAM_CREDIT: MessageClass.OFFLOAD,
    MessageType.STREAM_RANGE: MessageClass.OFFLOAD,
    MessageType.STREAM_COMMIT: MessageClass.OFFLOAD,
    MessageType.STREAM_DONE: MessageClass.OFFLOAD,
    MessageType.STREAM_END: MessageClass.OFFLOAD,
    MessageType.STREAM_MIGRATE: MessageClass.OFFLOAD,
    MessageType.STREAM_FORWARD: MessageClass.OFFLOAD,
    MessageType.STREAM_REDUCE_COLLECT: MessageClass.OFFLOAD,
    MessageType.STREAM_DATA: MessageClass.OFFLOAD,
    MessageType.STREAM_IND_REQ: MessageClass.OFFLOAD,
    MessageType.STREAM_IND_RESP: MessageClass.OFFLOAD,
}


def message_class(mtype: MessageType) -> MessageClass:
    """Traffic class (data/control/offload) of a message type."""
    return _CLASS[mtype]


def payload_bytes(mtype: MessageType) -> int:
    """Default payload size of a message type, excluding the header."""
    return _PAYLOAD_BYTES[mtype]


def message_bytes(mtype: MessageType, noc: NocConfig,
                  payload_override: int = -1) -> int:
    """Total on-wire bytes of one message: header plus payload.

    ``payload_override`` replaces the default payload size, e.g. a
    STREAM_FORWARD carrying a 64-byte SIMD element.
    """
    payload = payload_bytes(mtype) if payload_override < 0 else payload_override
    return noc.header_bytes + payload
