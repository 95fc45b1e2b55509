"""Suite-wide fixtures: tracing is always on under test, and the suite
records into a store of its own.

Every simulation the test suite runs gets an implicit strict
:class:`~repro.trace.Tracer` via ``$REPRO_TRACE`` (inherited by sweep
worker processes), so the online protocol sanitizer validates the §IV-B
invariants — credit bounds, range ordering, commit-before-indirect, done
discipline, message-inventory equality, recovery completeness — on every
traced run of every test. A violation raises
:class:`~repro.trace.ProtocolViolation` and fails the test that
triggered it.

Tests that need tracing *off* (e.g. overhead measurements) monkeypatch
or delete the variable locally.

``$REPRO_CACHE_DIR`` points at a fresh temporary store for the session
(inherited by sweep workers and CLI subprocesses) and the store is
removed when the session ends. So every run records its functional
traces afresh instead of replaying what an earlier run, or older code,
left in ``.repro_cache/``. Tests that count hits or misses use their own
``tmp_path`` store.
"""

import os
import shutil
import tempfile

os.environ.setdefault("REPRO_TRACE", "1")

_session_store = None


def pytest_configure(config):
    global _session_store
    _session_store = tempfile.mkdtemp(prefix="repro-test-store-")
    os.environ["REPRO_CACHE_DIR"] = _session_store


def pytest_unconfigure(config):
    shutil.rmtree(_session_store, ignore_errors=True)
