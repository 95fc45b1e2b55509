"""Shared L3 vs its per-access oracle.

Property test: on any sequence of calls, :meth:`SharedL3Model.access`
must give the same hit mask, hit, miss and writeback counts, and leave
the same resident lines in the same recency order (with the same dirty
bits) as ``shared_l3_access`` (``tests/oracles/hierarchy.py``). A
capacity of a few lines makes evictions and dirty writebacks common;
the simulated workloads never fill the real capacity.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.mem.hierarchy import SharedL3Model
from tests.oracles.hierarchy import shared_l3_access

calls = st.lists(st.tuples(st.integers(min_value=0, max_value=15),
                           st.booleans()),
                 min_size=0, max_size=40)


def _model(capacity):
    model = SharedL3Model(SystemConfig.ooo8())
    model.capacity_lines = capacity
    return model


@given(capacity=st.integers(min_value=1, max_value=6),
       trace=st.lists(calls, min_size=1, max_size=4),
       default_writes=st.booleans())
@settings(max_examples=150, deadline=None)
def test_access_matches_oracle(capacity, trace, default_writes):
    fast, ref = _model(capacity), _model(capacity)
    for step, call in enumerate(trace):
        lines = np.array([line for line, _ in call], dtype=np.int64)
        writes = (None if default_writes and step % 2
                  else np.array([w for _, w in call], dtype=bool))
        got = fast.access(lines, writes)
        want = shared_l3_access(ref, lines, writes)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert (fast.hits, fast.misses, fast.writebacks) == \
            (ref.hits, ref.misses, ref.writebacks), step
        assert list(fast._resident.items()) == \
            list(ref._resident.items()), step


def test_oracle_sees_evictions_and_writebacks():
    """The property test's capacity does exercise the eviction path."""
    model = _model(2)
    shared_l3_access(model, np.array([1, 2, 3, 1]),
                     np.array([True, False, False, True]))
    assert model.writebacks == 1
    assert list(model._resident) == [3, 1]
