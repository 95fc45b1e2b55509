"""Flit-level mesh simulation — the oracle for the analytic flow model.

The top-level simulator uses :class:`~repro.noc.flow.FlowModel` (hop counts
plus M/D/1 queueing) because flit-accurate simulation of 64 tiles at full
workload scale is intractable in Python. This module provides the
ground truth for *small* scenarios: a cycle-level wormhole-ish router model
on the discrete-event kernel (:mod:`tests.oracles.engine`), with per-hop
router/link pipelines, FIFO output queues, and X-Y routing identical to
the flow model's.

It exists so tests can quantify the substitute's error: for light and
moderate loads the analytic latency must track the detailed simulation
within tens of percent (``tests/noc/test_detailed.py``,
``benchmarks/test_noc_validation.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import NocConfig
from repro.noc.message import MessageType, message_bytes
from repro.noc.topology import Mesh
from tests.oracles.engine import Simulator


@dataclass
class Packet:
    """One message in flight."""

    pid: int
    src: int
    dst: int
    size_bytes: int
    injected_at: int
    delivered_at: Optional[int] = None

    @property
    def latency(self) -> int:
        if self.delivered_at is None:
            raise ValueError(f"packet {self.pid} not delivered")
        return self.delivered_at - self.injected_at


class _OutputPort:
    """A router's output link: serializes flits, one packet at a time."""

    def __init__(self, sim: Simulator, link_bytes: int,
                 link_latency: int) -> None:
        self.sim = sim
        self.link_bytes = link_bytes
        self.link_latency = link_latency
        self.busy_until = 0

    def send(self, size_bytes: int, now: int) -> int:
        """Reserve the link; returns the arrival time at the next router."""
        flits = max((size_bytes + self.link_bytes - 1) // self.link_bytes, 1)
        start = max(now, self.busy_until)
        self.busy_until = start + flits
        return self.busy_until + self.link_latency


class DetailedMesh:
    """Cycle-level mesh: per-hop router pipeline + serialized links."""

    def __init__(self, config: NocConfig) -> None:
        self.config = config
        self.mesh = Mesh(config)
        self.sim = Simulator()
        self._ports: Dict[Tuple[int, int], _OutputPort] = {}
        self.delivered: List[Packet] = []
        self._next_pid = 0

    def _port(self, link: Tuple[int, int]) -> _OutputPort:
        if link not in self._ports:
            self._ports[link] = _OutputPort(self.sim,
                                            self.config.link_bytes,
                                            self.config.link_latency)
        return self._ports[link]

    def inject(self, mtype: MessageType, src: int, dst: int, when: int = 0,
               payload_override: int = -1) -> Packet:
        """Schedule one message's injection at cycle ``when``."""
        size = message_bytes(mtype, self.config, payload_override)
        packet = Packet(pid=self._next_pid, src=src, dst=dst,
                        size_bytes=size, injected_at=when)
        self._next_pid += 1
        route = self.mesh.route(src, dst)
        self.sim.queue.schedule(
            when, lambda: self._hop(packet, route, 0),
            label=f"inject{packet.pid}")
        return packet

    def _hop(self, packet: Packet, route: List[Tuple[int, int]],
             index: int) -> None:
        if index >= len(route):
            packet.delivered_at = self.sim.now
            self.delivered.append(packet)
            return
        # Router pipeline, then contend for the output link.
        ready = self.sim.now + self.config.router_latency
        arrival = self._port(route[index]).send(packet.size_bytes, ready)
        self.sim.queue.schedule(
            arrival, lambda: self._hop(packet, route, index + 1),
            label=f"hop{packet.pid}.{index}")

    def run(self) -> List[Packet]:
        """Drain all scheduled traffic; returns delivered packets."""
        self.sim.run()
        return self.delivered

    def mean_latency(self) -> float:
        if not self.delivered:
            raise ValueError("no packets delivered")
        return sum(p.latency for p in self.delivered) / len(self.delivered)
