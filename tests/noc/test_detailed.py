"""The flit-level mesh, and validation of the analytic flow model."""

import pytest

from repro.config import NocConfig
from repro.noc import FlowModel, Mesh, MessageType
from tests.oracles.noc_detailed import DetailedMesh


def test_single_packet_latency_is_pipeline_floor():
    mesh = DetailedMesh(NocConfig())
    packet = mesh.inject(MessageType.STREAM_CREDIT, 0, 3)
    mesh.run()
    hops = 3
    # per hop: 5-cycle router + 1-flit serialization + 1-cycle link.
    assert packet.latency == hops * (5 + 1 + 1)


def test_line_response_pays_serialization():
    mesh = DetailedMesh(NocConfig())
    small = mesh.inject(MessageType.READ_REQ, 0, 7)
    big = mesh.inject(MessageType.READ_RESP, 8, 15)   # same distance
    mesh.run()
    assert big.latency > small.latency
    # 72 B over 32 B links = 3 flits per hop.
    assert big.latency == 7 * (5 + 3 + 1)


def test_contention_serializes_same_link():
    cfg = NocConfig()
    quiet = DetailedMesh(cfg)
    quiet.inject(MessageType.READ_RESP, 0, 1)
    quiet.run()
    solo = quiet.delivered[0].latency

    busy = DetailedMesh(cfg)
    packets = [busy.inject(MessageType.READ_RESP, 0, 1, when=0)
               for _ in range(10)]
    busy.run()
    latencies = sorted(p.latency for p in packets)
    assert latencies[0] == solo
    assert latencies[-1] >= solo + 9 * 3  # queued behind 9 x 3-flit packets


def test_disjoint_routes_do_not_interact():
    mesh = DetailedMesh(NocConfig())
    a = mesh.inject(MessageType.READ_RESP, 0, 1)
    b = mesh.inject(MessageType.READ_RESP, 16, 17)
    mesh.run()
    assert a.latency == b.latency


def test_flow_model_matches_detailed_at_light_load():
    """The analytic substitute must track the ground truth unloaded."""
    cfg = NocConfig()
    flow = FlowModel(Mesh(cfg))
    flow.set_window(1e9)
    detailed = DetailedMesh(cfg)
    errors = []
    for src, dst in ((0, 7), (0, 63), (5, 42), (60, 3)):
        packet = detailed.inject(MessageType.READ_RESP, src, dst)
        analytic = flow.latency(MessageType.READ_RESP, src, dst)
        errors.append((packet, analytic))
    detailed.run()
    for packet, analytic in errors:
        assert analytic == pytest.approx(packet.latency, rel=0.35), \
            f"{packet.src}->{packet.dst}: analytic {analytic} vs " \
            f"detailed {packet.latency}"


def test_flow_model_orders_loads_like_detailed():
    """Under load both models must agree on the *direction* of change."""
    cfg = NocConfig()

    def detailed_mean(n_packets):
        mesh = DetailedMesh(cfg)
        for i in range(n_packets):
            mesh.inject(MessageType.READ_RESP, 0, 7, when=i)
        mesh.run()
        return mesh.mean_latency()

    def analytic_mean(n_packets, window):
        flow = FlowModel(Mesh(cfg))
        flow.set_window(window)
        flow.inject(MessageType.READ_RESP, 0, 7, count=n_packets)
        return flow.latency(MessageType.READ_RESP, 0, 7)

    light_detail, heavy_detail = detailed_mean(2), detailed_mean(64)
    light_analytic = analytic_mean(2, window=64)
    heavy_analytic = analytic_mean(64, window=64)
    assert heavy_detail > light_detail
    assert heavy_analytic > light_analytic
