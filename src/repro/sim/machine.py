"""Machine construction: the shared models one run needs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.config import SystemConfig
from repro.mem.address import AddressSpace
from repro.mem.hierarchy import HierarchyModel, SharedL3Model
from repro.noc.flow import FlowModel
from repro.noc.topology import Mesh


@dataclass
class Machine:
    """The simulated machine: mesh, shared L3, sampled private hierarchies."""

    config: SystemConfig
    mesh: Mesh
    shared_l3: SharedL3Model
    hierarchies: List[HierarchyModel]

    @staticmethod
    def build(config: SystemConfig, sample_cores: int = 4,
              data_scale: float = 1.0) -> "Machine":
        mesh = Mesh(config.noc)
        # Cache capacities shrink with the input scale so that miss rates
        # reflect the paper-sized run (latencies and geometry don't change).
        cache_config = (config.scaled_private_caches(data_scale)
                        if data_scale < 1.0 else config)
        shared_l3 = SharedL3Model(cache_config)
        sample = min(sample_cores, config.num_cores)
        hierarchies = [HierarchyModel(cache_config, shared_l3, core_id=i)
                       for i in range(sample)]
        return Machine(config=config, mesh=mesh, shared_l3=shared_l3,
                       hierarchies=hierarchies)

    @property
    def cache_shape(self) -> tuple:
        """What the sampled cache walk reads of the machine: the number
        of sampled cores, their L1 and L2 (sets, ways), and the shared
        L3's capacity in lines."""
        private = tuple((h.l1.sets, h.l1.assoc, h.l2.sets, h.l2.assoc)
                        for h in self.hierarchies[:1])
        return len(self.hierarchies), private, self.shared_l3.capacity_lines

    def fresh_flow(self) -> FlowModel:
        return FlowModel(self.mesh)
