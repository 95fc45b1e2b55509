"""Deterministic storage-fault injection for the persistent cache store.

PR 3 chaos-tests the §IV-B *protocol* sites; this module does the same
for the *storage* layer every cache kind (result / replay) sits on.  A :class:`ChaosInjector` wraps the
:class:`~repro.eval.result_cache.ResultCache` I/O paths and fires seeded
faults that mimic what real unattended sweeps hit:

* ``enospc`` — the write raises ``OSError(ENOSPC)`` (disk full);
* ``torn``  — only a prefix of the blob reaches disk (a torn write, as
  if the filesystem lied about durability before a crash);
* ``flip``  — one byte of the blob is flipped at rest (media or DMA
  corruption that the envelope checksum must catch);
* ``eacces`` — the operation raises ``PermissionError`` (a permission
  race, e.g. an overzealous cleanup job);
* ``stall`` — the operation sleeps ``stall_seconds`` first (slow NFS /
  throttled disk), exercising timeout and watchdog paths.

Every fault is drawn from one seeded :class:`random.Random`, so a fixed
:class:`ChaosPlan` replays the same fault sequence for the same sequence
of store operations.  The injector *never* changes simulation results:
the store degrades every injected fault to a miss (write errors) or a
quarantine-and-recompute (corruption), which the chaos property suite
(``tests/fault/test_chaos.py``) asserts bit-identically.

Activation is explicit — pass an injector to ``ResultCache(...)`` — or
ambient via ``$REPRO_CHAOS`` (e.g. ``seed=7,enospc=0.2,torn=0.1``),
which sweep worker processes inherit, so a whole parallel sweep can run
under storage chaos end to end.
"""

from __future__ import annotations

import errno
import os
import time
from dataclasses import dataclass, fields, replace
from random import Random
from typing import Dict, Optional

#: Environment variable carrying a chaos spec (see :meth:`ChaosPlan.parse`);
#: unset or empty disables ambient injection.
ENV_CHAOS = "REPRO_CHAOS"

#: Fault kinds an injector can fire, in draw order.
FAULT_KINDS = ("stall", "eacces", "enospc", "torn", "flip")


@dataclass(frozen=True)
class ChaosPlan:
    """Seeded per-operation fault rates (each a probability in [0, 1])."""

    seed: int = 0
    enospc: float = 0.0        # per write: OSError(ENOSPC)
    torn: float = 0.0          # per write: only a prefix lands on disk
    flip: float = 0.0          # per write: one byte flipped at rest
    eacces: float = 0.0        # per read or write: PermissionError
    stall: float = 0.0         # per read or write: sleep first
    stall_seconds: float = 0.005

    def __post_init__(self) -> None:
        for name in FAULT_KINDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"chaos rate {name}={rate!r} must be a "
                                 f"probability in [0, 1]")
        if self.stall_seconds < 0:
            raise ValueError(f"stall_seconds must be >= 0 "
                             f"(got {self.stall_seconds!r})")

    @property
    def active(self) -> bool:
        return any(getattr(self, name) > 0 for name in FAULT_KINDS)

    @classmethod
    def all_faults(cls, seed: int = 0, rate: float = 0.1) -> "ChaosPlan":
        """Every fault kind at one rate — the property suite's default."""
        return cls(seed=seed, enospc=rate, torn=rate, flip=rate,
                   eacces=rate, stall=rate)

    @classmethod
    def parse(cls, spec: str) -> "ChaosPlan":
        """Build a plan from a ``key=value,key=value`` spec string.

        Keys are the dataclass fields (``seed``, ``enospc``, ``torn``,
        ``flip``, ``eacces``, ``stall``, ``stall_seconds``); unknown keys
        or malformed values raise :class:`ValueError` with the offending
        token, so a typo in ``$REPRO_CHAOS`` fails loudly up front
        instead of silently running without chaos.
        """
        known = {f.name: f.type for f in fields(cls)}
        plan = cls()
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            name, sep, raw = token.partition("=")
            name = name.strip()
            if not sep or name not in known:
                raise ValueError(
                    f"bad chaos spec token {token!r}; want key=value with "
                    f"keys from {', '.join(sorted(known))}")
            try:
                value = int(raw) if name == "seed" else float(raw)
            except ValueError:
                raise ValueError(f"bad chaos spec value in {token!r}")
            plan = replace(plan, **{name: value})
        return plan

    def spec(self) -> str:
        """The ``key=value`` spec round-tripping through :meth:`parse`."""
        parts = [f"seed={self.seed}"]
        for name in FAULT_KINDS:
            rate = getattr(self, name)
            if rate > 0:
                parts.append(f"{name}={rate:g}")
        if self.stall > 0:
            parts.append(f"stall_seconds={self.stall_seconds:g}")
        return ",".join(parts)


class ChaosInjector:
    """Fires a :class:`ChaosPlan` at a store's read/write sites.

    One injector owns one seeded RNG; the store calls :meth:`on_read`
    before reading an entry and :meth:`on_write` before writing one.
    Faults either raise (``OSError`` subtypes the store degrades to a
    miss) or transform the outgoing blob (torn / flipped bytes the
    store's envelope checksum later quarantines).  ``fired`` counts
    injections by kind so tests can assert chaos actually happened.
    """

    def __init__(self, plan: ChaosPlan) -> None:
        self.plan = plan
        self._rng = Random(plan.seed)
        self.reads = 0
        self.writes = 0
        self.fired: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    @property
    def total_fired(self) -> int:
        return sum(self.fired.values())

    def _draw(self, kind: str) -> bool:
        rate = getattr(self.plan, kind)
        if rate <= 0.0:
            return False
        if self._rng.random() >= rate:
            return False
        self.fired[kind] += 1
        return True

    def _common(self, path: os.PathLike) -> None:
        """Faults shared by reads and writes: stalls and EACCES."""
        if self._draw("stall"):
            time.sleep(self.plan.stall_seconds)
        if self._draw("eacces"):
            raise PermissionError(errno.EACCES,
                                  "chaos: injected EACCES", str(path))

    def on_read(self, path: os.PathLike) -> None:
        """Called before an entry read; may stall or raise."""
        self.reads += 1
        self._common(path)

    def on_write(self, path: os.PathLike, blob: bytes) -> bytes:
        """Called before an entry write; may stall, raise, or corrupt.

        Returns the bytes that actually reach disk — a torn prefix or a
        byte-flipped copy when those faults fire.  The store writes the
        returned blob verbatim, so corruption lands *at rest* exactly
        like a real torn write or bit rot, and is only discovered (and
        quarantined) by a later read's checksum verification.
        """
        self.writes += 1
        self._common(path)
        if self._draw("enospc"):
            raise OSError(errno.ENOSPC,
                          "chaos: injected ENOSPC", str(path))
        if self._draw("torn") and len(blob) > 1:
            # Keep at least one byte so the file exists but never parses.
            blob = blob[:self._rng.randrange(1, len(blob))]
        if self._draw("flip") and blob:
            index = self._rng.randrange(len(blob))
            mutated = bytearray(blob)
            mutated[index] ^= 1 << self._rng.randrange(8)
            blob = bytes(mutated)
        return blob


#: Process-wide ambient injector, keyed by the spec it was built from so
#: a changed $REPRO_CHAOS takes effect without stale state.
_ambient: Optional[ChaosInjector] = None
_ambient_spec: Optional[str] = None


def injector_from_env() -> Optional[ChaosInjector]:
    """The process-wide injector configured by ``$REPRO_CHAOS``, if any.

    All :class:`~repro.eval.result_cache.ResultCache` instances in the
    process share one injector (one RNG stream), so the fault sequence
    is deterministic for a deterministic sequence of store operations.
    Returns None when the variable is unset or empty.
    """
    global _ambient, _ambient_spec
    spec = os.environ.get(ENV_CHAOS, "").strip()
    if not spec:
        _ambient = None
        _ambient_spec = None
        return None
    if _ambient is None or spec != _ambient_spec:
        _ambient = ChaosInjector(ChaosPlan.parse(spec))
        _ambient_spec = spec
    return _ambient
