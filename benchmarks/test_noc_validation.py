"""Validation: the analytic NoC model vs the flit-level ground truth.

The top-level simulator uses the analytic flow model (hop counts + M/D/1
queueing). This bench quantifies its error against the cycle-level
wormhole simulation in ``tests/oracles/noc_detailed.py`` on random
traffic patterns — the honesty check for the Garnet substitution
documented in DESIGN.md.
"""

import numpy as np

from repro.config import NocConfig
from repro.eval import format_table
from repro.noc import FlowModel, Mesh, MessageType
from tests.oracles.noc_detailed import DetailedMesh


def run_pattern(n_packets, seed, window):
    """Returns mean *queueing excess* (latency above the unloaded floor)
    for the detailed and analytic models — excess is load-comparable even
    though each load level samples different source/destination pairs."""
    rng = np.random.default_rng(seed)
    cfg = NocConfig()
    mesh = Mesh(cfg)
    pairs = [(int(rng.integers(0, 64)), int(rng.integers(0, 64)))
             for _ in range(n_packets)]
    pairs = [(s, d) for s, d in pairs if s != d]

    def floor(src, dst):
        hops = mesh.hops(src, dst)
        flits = (72 + cfg.link_bytes - 1) // cfg.link_bytes
        return hops * (cfg.router_latency + cfg.link_latency + flits)

    detailed = DetailedMesh(cfg)
    packets = []
    for i, (src, dst) in enumerate(pairs):
        # Spread injections over the window like the flow model assumes.
        packets.append(detailed.inject(
            MessageType.READ_RESP, src, dst,
            when=int(i * window / len(pairs))))
    detailed.run()
    truth_excess = float(np.mean(
        [p.latency - floor(p.src, p.dst) for p in packets]))

    flow = FlowModel(mesh)
    flow.set_window(window)
    for src, dst in pairs:
        flow.inject(MessageType.READ_RESP, src, dst)
    analytic_excess = float(np.mean([
        flow.latency(MessageType.READ_RESP, src, dst)
        - mesh.hops(src, dst) * (cfg.router_latency + cfg.link_latency)
        - 72 / cfg.link_bytes
        for src, dst in pairs]))
    return truth_excess, analytic_excess


def test_flow_model_error_quantified(benchmark):
    def measure():
        out = {}
        for label, n, window in (("light", 60, 4000),
                                 ("moderate", 400, 4000),
                                 ("heavy", 1200, 4000)):
            truth, analytic = run_pattern(n, seed=7, window=window)
            out[label] = (truth, analytic, 0.0)
        return out

    result = benchmark(measure)
    rows = [[label, truth, analytic]
            for label, (truth, analytic, _) in result.items()]
    print("\n" + format_table(
        ["load", "detailed excess (cyc)", "analytic excess (cyc)"],
        rows, "NoC model validation (queueing excess over the floor)"))

    # Both models agree that load increases queueing.
    assert result["heavy"][0] > result["light"][0]
    assert result["heavy"][1] > result["light"][1]
    # The analytic queueing stays the same order of magnitude as ground
    # truth at every load level (the documented fidelity band).
    for label, (truth, analytic, _) in result.items():
        assert analytic <= max(4 * truth, truth + 10), label
        assert truth <= max(4 * analytic, analytic + 10), label
