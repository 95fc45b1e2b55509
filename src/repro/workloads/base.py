"""Workload infrastructure: traces, phases, the registry, Table VI metadata."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, Dict, List, Optional, Tuple, Type

import numpy as np

from repro.compiler.ir import Kernel
from repro.isa.pattern import ComputeKind
from repro.mem.address import AddressSpace
from repro.offload.modes import AddrPattern
from repro.workloads import WORKLOAD_NAMES

# Default shrink factor versus the paper's input sizes.
DEFAULT_SCALE = 1.0 / 64.0


@dataclass
class StreamTraceData:
    """The realized access sequence of one stream over a whole kernel run.

    ``vaddrs`` are element (not line) virtual addresses in stream-step order.
    ``modifies`` (atomic streams) records whether each operation changed the
    stored value — measured by the functional execution, not estimated.
    ``chain_lengths`` (pointer-chase streams) gives per-traversal lengths so
    the timing model can charge serial chain latency per traversal.
    """

    stream_name: str
    vaddrs: np.ndarray
    is_write: bool
    element_bytes: int
    affine_fraction: float = 1.0
    modifies: Optional[np.ndarray] = None
    chain_lengths: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.vaddrs = np.asarray(self.vaddrs, dtype=np.int64)
        if self.modifies is not None:
            self.modifies = np.asarray(self.modifies, dtype=bool)
            if len(self.modifies) != len(self.vaddrs):
                raise ValueError(f"{self.stream_name}: modifies length "
                                 f"mismatch")

    @property
    def steps(self) -> int:
        return len(self.vaddrs)

    def slice_for(self, core: int, n_cores: int) -> slice:
        """OpenMP-static contiguous partition of the stream's steps."""
        if not 0 <= core < n_cores:
            raise ValueError(f"core {core} out of range")
        per_core = self.steps // n_cores
        extra = self.steps % n_cores
        start = core * per_core + min(core, extra)
        length = per_core + (1 if core < extra else 0)
        return slice(start, start + length)


@dataclass
class Phase:
    """One kernel invocation pattern: IR + traces + repeat count.

    ``invocations`` repeats the kernel (traces describe ONE invocation);
    a barrier separates invocations (the OpenMP parallel-for join).
    """

    kernel: Kernel
    traces: Dict[str, StreamTraceData]
    invocations: int = 1
    serial_chain_latency_hint: float = 0.0   # per-step latency of ptr chains
    # Input shrink factor vs the paper's sizes; stamped by Workload.build so
    # the offload policy can reason about paper-scale footprints.
    data_scale: float = 1.0
    # Global synchronization points during the phase (OpenMP joins); defaults
    # to one per invocation. BFS-style kernels set this to their level count.
    barriers: Optional[int] = None

    @property
    def barrier_count(self) -> int:
        return self.barriers if self.barriers is not None else self.invocations

    def trace_for(self, stream_name: str) -> StreamTraceData:
        if stream_name not in self.traces:
            raise KeyError(
                f"phase {self.kernel.name!r} has no trace for stream "
                f"{stream_name!r}; traces: {sorted(self.traces)}")
        return self.traces[stream_name]


class Workload(abc.ABC):
    """Base class: build data, run functionally, emit kernels and traces."""

    name: str = ""
    addr_label: str = ""       # Table VI "Addr." column, e.g. "Ind."
    cmp_label: str = ""        # Table VI "Cmp" column, e.g. "Atomic"
    paper_params: str = ""     # Table VI "Parameters" column
    requirement: Tuple[AddrPattern, ComputeKind] = (
        AddrPattern.AFFINE, ComputeKind.LOAD)

    def __init__(self, scale: float = DEFAULT_SCALE, seed: int = 42) -> None:
        if scale <= 0 or scale > 1:
            raise ValueError("scale must be in (0, 1]")
        self.scale = scale
        self.seed = seed
        self.space: Optional[AddressSpace] = None
        self._phases: Optional[List[Phase]] = None

    # ------------------------------------------------------------------
    def build(self, space: AddressSpace) -> None:
        """Allocate regions, generate inputs, run functionally, build traces."""
        self.space = space
        self._phases = self._build_phases()
        for phase in self._phases:
            phase.data_scale = self.scale

    @abc.abstractmethod
    def _build_phases(self) -> List[Phase]:
        """Subclass hook: requires ``self.space``."""

    def phases(self) -> List[Phase]:
        if self._phases is None:
            raise RuntimeError(f"{self.name}: call build() first")
        return self._phases

    @abc.abstractmethod
    def verify(self) -> bool:
        """Check the functional result against an independent reference."""

    # ------------------------------------------------------------------
    def scaled(self, paper_count: int, minimum: int = 16) -> int:
        """A paper-sized input count shrunk by ``scale``."""
        return max(int(round(paper_count * self.scale)), minimum)

    def scaled_dim(self, paper_dim: int, minimum: int = 8) -> int:
        """A 2-D dimension shrunk by sqrt(scale) (area scales by ``scale``)."""
        return max(int(round(paper_dim * self.scale ** 0.5)), minimum)

    @property
    def total_iterations(self) -> float:
        return sum(p.kernel.total_iterations * p.invocations
                   for p in self.phases())


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[Workload]] = {}

#: The modules whose import registers the built-in kernels.
_KERNEL_MODULES = ("datamining", "graph", "micro", "pointer", "rodinia")


def _registry() -> Dict[str, Type[Workload]]:
    """The workload registry, with the built-in kernels registered.

    The kernel modules load on this first use rather than as a side
    effect of importing the package, so code that only names workloads
    (the CLI's listing and validation, cache keys of stored results)
    never pays for them.  Later calls find them in ``sys.modules``.
    """
    for module in _KERNEL_MODULES:
        import_module(f"repro.workloads.{module}")
    return _REGISTRY


def register_workload(cls: Type[Workload]) -> Type[Workload]:
    """Class decorator adding a workload to the global registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate workload {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def make_workload(name: str, scale: float = DEFAULT_SCALE,
                  seed: int = 42) -> Workload:
    """Instantiate a registered workload (build() is still the caller's)."""
    known = _registry()
    if name not in known:
        import difflib
        close = difflib.get_close_matches(name, known, n=3, cutoff=0.5)
        if close:
            hint = "did you mean " + " or ".join(repr(c) for c in close) + "?"
        else:
            hint = f"known: {sorted(known)}"
        raise KeyError(f"unknown workload {name!r}; {hint}")
    return known[name](scale=scale, seed=seed)


def all_workload_names() -> List[str]:
    """Table VI order."""
    known = _registry()
    return [n for n in WORKLOAD_NAMES if n in known]


def workload_requirements() -> Dict[str, Tuple[AddrPattern, ComputeKind]]:
    """Per-workload primary (address, compute) requirement (Table I/VI)."""
    known = _registry()
    return {name: known[name].requirement for name in all_workload_names()}
