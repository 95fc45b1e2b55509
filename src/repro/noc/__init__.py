"""On-chip network model (Garnet substitute).

The paper measures NoC traffic as ``bytes x hops`` per message class
(data / control / offloaded, Fig 12). We reproduce that metric *exactly* from
the message inventory: :class:`~repro.noc.topology.Mesh` computes X-Y route
hop counts and multicast trees, :class:`~repro.noc.traffic.TrafficLedger`
accumulates bytes x hops per class, and :class:`~repro.noc.flow.FlowModel`
derives latency from link utilization (M/D/1-style queueing on the most
loaded link of a route) instead of simulating flits.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "MessageClass": "repro.noc.message",
    "MessageType": "repro.noc.message",
    "message_bytes": "repro.noc.message",
    "Mesh": "repro.noc.topology",
    "TrafficLedger": "repro.noc.traffic",
    "FlowModel": "repro.noc.flow",
})
