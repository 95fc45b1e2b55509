"""The near-stream computing ISA abstraction (§III).

Streams are the unit of offloading: a decoupled, coarse-grain memory access
pattern, optionally carrying a near-stream computation and value/address
dependences on other streams.

* :mod:`~repro.isa.pattern` — address patterns (affine up to 3-D, indirect,
  pointer-chasing) and compute types (load / store / RMW-atomic / reduce),
  the two axes of the paper's taxonomy (Table II).
* :mod:`~repro.isa.stream` — :class:`Stream` and :class:`StreamGraph`, the
  stream dependence graph with the paper's eligibility rules.
* :mod:`~repro.isa.encoding` — the bit-level stream configuration encoding of
  Table IV (pack/unpack plus size accounting).
* :mod:`~repro.isa.instructions` — stream instruction and micro-op kinds used
  by the compiler's op accounting and the core model.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AddressPatternKind": "repro.isa.pattern",
    "AffinePattern": "repro.isa.pattern",
    "ComputeKind": "repro.isa.pattern",
    "IndirectPattern": "repro.isa.pattern",
    "PointerChasePattern": "repro.isa.pattern",
    "NearStreamFunction": "repro.isa.stream",
    "Stream": "repro.isa.stream",
    "StreamGraph": "repro.isa.stream",
    "AFFINE_FIELDS": "repro.isa.encoding",
    "COMPUTE_FIELDS": "repro.isa.encoding",
    "INDIRECT_FIELDS": "repro.isa.encoding",
    "EncodedConfig": "repro.isa.encoding",
    "encode_stream": "repro.isa.encoding",
    "config_bits": "repro.isa.encoding",
    "StreamOp": "repro.isa.instructions",
    "UopKind": "repro.isa.instructions",
})
