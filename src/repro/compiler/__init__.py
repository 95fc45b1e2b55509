"""The near-stream compiler (LLVM substitute, §III-B).

Pipeline::

    Kernel (loop-nest IR)
      -> recognize   : classify address patterns, create streams, merge RMW
      -> assign      : attach computation to streams (load closures, store
                       slices, reduction phis, atomics)
      -> outline     : build near-stream functions, count micro-ops per
                       category per iteration
      -> decouple    : sync-free pragma handling + fully-decoupled-loop
                       detection (§V)
      -> StreamProgram

``compile_kernel`` runs the whole pipeline. The resulting
:class:`~repro.compiler.program.StreamProgram` carries the stream graph, the
per-stream and residual micro-op accounting (the substance of Fig 1a/11), and
the transform flags each execution mode needs.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AffineAccess": "repro.compiler.ir",
    "Atomic": "repro.compiler.ir",
    "BinOp": "repro.compiler.ir",
    "IndirectAccess": "repro.compiler.ir",
    "Kernel": "repro.compiler.ir",
    "Load": "repro.compiler.ir",
    "Loop": "repro.compiler.ir",
    "PointerChaseAccess": "repro.compiler.ir",
    "Reduce": "repro.compiler.ir",
    "Store": "repro.compiler.ir",
    "StreamProgram": "repro.compiler.program",
    "compile_kernel": "repro.compiler.program",
})
