"""The stored-trace layout: per-stream first values plus narrow deltas.

A :class:`~repro.sim.replay.PhaseTrace`'s ``vaddrs`` and a
:class:`~repro.sim.replay.PhaseStatsPack`'s ``lines`` are pickled per
stream slice by :func:`~repro.sim.replay.pack_slices` and rebuilt by
:func:`~repro.sim.replay.unpack_slices`.  The encoding must be exact for
any int64 input, must rebuild the same in-memory arrays every kernel
replays, must actually shrink the store, and a damaged part must
quarantine like any other corrupt entry.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.eval.result_cache import KIND_REPLAY, ResultCache
from repro.offload.modes import ExecMode
from repro.sim import replay, tracestats
from repro.sim.machine import Machine
from repro.sim.replay import pack_slices, unpack_slices
from repro.sim.run import run_workload
from repro.workloads import all_workload_names, build_cache
from repro.workloads.build_cache import load_or_record, trace_key

SCALE = 1.0 / 256.0
SEED = 42
INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1
#: Delta bounds whose slices must store as int8, int16, int32, int64.
WIDTHS = ((2 ** 7, np.int8), (2 ** 15, np.int16), (2 ** 31, np.int32),
          (2 ** 63, np.int64))


@st.composite
def sliced_values(draw):
    """An int64 array and an in-order partition of it into slices.

    Each slice starts anywhere in the int64 range (the bounds included)
    and steps by deltas of one drawn width, wrapping past ±2**63; empty
    and one-element slices are common.
    """
    pieces, widths, slices = [], [], []
    start = 0
    for _ in range(draw(st.integers(0, 8))):
        n = draw(st.integers(0, 24))
        bound, dtype = draw(st.sampled_from(WIDTHS))
        first = draw(st.one_of(
            st.integers(INT64_MIN, INT64_MAX),
            st.integers(INT64_MIN, INT64_MIN + 1000),
            st.integers(INT64_MAX - 1000, INT64_MAX)))
        steps = draw(st.lists(st.integers(-bound, bound - 1),
                              min_size=max(n - 1, 0),
                              max_size=max(n - 1, 0)))
        seg = np.empty(n, dtype=np.int64)
        if n:
            seg[0] = first
            seg[1:] = np.array(steps, dtype=np.int64)
            seg = np.cumsum(seg, dtype=np.int64)  # wraps modulo 2**64
        pieces.append(seg)
        widths.append(dtype)
        slices.append((start, start + n))
        start += n
    values = (np.concatenate(pieces) if pieces
              else np.zeros(0, dtype=np.int64))
    return values, slices, widths


@settings(max_examples=300, deadline=None)
@given(sliced_values())
def test_round_trip_is_exact_for_any_int64(case):
    values, slices, widths = case
    parts = pack_slices(values, slices)
    assert len(parts) == len(slices)
    for (s0, s1), (first, deltas), dtype in zip(slices, parts, widths):
        assert len(deltas) == max(s1 - s0 - 1, 0)
        if s1 > s0:
            assert first == values[s0]
        # never wider than the deltas the slice was drawn with
        assert deltas.dtype.itemsize <= np.dtype(dtype).itemsize
    out = unpack_slices(parts, slices)
    assert out.dtype == np.int64
    # read-only: one loaded trace feeds every run that reuses it
    assert out.flags.c_contiguous and not out.flags.writeable
    assert np.array_equal(out, values)


def test_each_width_is_the_narrowest_that_fits():
    values = np.array([5, 5 + 127, 5 - 1,                  # int8
                       0, 128, 0,                          # int16
                       0, 2 ** 31 - 1, 0,                  # int32
                       INT64_MAX, INT64_MIN, 0,            # int64 (wraps)
                       7], dtype=np.int64)
    slices = [(0, 3), (3, 6), (6, 9), (9, 12), (12, 13), (13, 13)]
    parts = pack_slices(values, slices)
    assert [d.dtype for _, d in parts] == [
        np.int8, np.int16, np.int32, np.int64, np.int8, np.int8]
    assert np.array_equal(unpack_slices(parts, slices), values)


def test_mismatched_parts_and_slices_raise():
    values = np.arange(10, dtype=np.int64)
    slices = [(0, 4), (4, 10)]
    parts = pack_slices(values, slices)
    with pytest.raises(ValueError):
        pack_slices(values, [(0, 4), (5, 10)])       # a gap
    with pytest.raises(ValueError):
        pack_slices(values, [(0, 4)])                # short of the array
    with pytest.raises(ValueError):
        unpack_slices(parts[:1], slices)             # a part missing
    with pytest.raises(ValueError):
        unpack_slices([parts[0], (parts[1][0], parts[1][1][:-1])], slices)


def _assert_stats_equal(got, want):
    assert list(got) == list(want)
    for name in want:
        for f in dataclasses.fields(want[name]):
            a, b = getattr(got[name], f.name), getattr(want[name], f.name)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                assert np.array_equal(a, b), (name, f.name)
            else:
                assert a == b, (name, f.name)


def _recorded_with_stats(workload, config):
    """A freshly recorded trace carrying the packed geometry of every
    phase, and the mesh it was derived on."""
    trace = load_or_record(workload, SCALE, SEED, config, None)
    mesh = Machine.build(config, sample_cores=4, data_scale=SCALE).mesh
    for i, (phase, _) in enumerate(trace.phase_programs()):
        trace.geometry_for(i, phase, mesh)
    assert trace.pack_stats()
    return trace, mesh


@pytest.mark.parametrize("workload", all_workload_names())
def test_store_round_trip_rebuilds_every_array(workload, tmp_path):
    """Every Table VI kernel: the trace read back through a real store
    has the same int64 ``vaddrs`` and ``lines`` per phase, as views of
    one contiguous array, and the same stream stats."""
    config = SystemConfig.ooo8()
    trace, mesh = _recorded_with_stats(workload, config)
    key = trace_key(workload, SCALE, SEED, config)
    assert ResultCache(tmp_path).store(key, trace, kind=KIND_REPLAY)
    loaded = ResultCache(tmp_path).lookup(key)
    assert loaded is not None and loaded is not trace
    assert len(loaded.phases) == len(trace.phases)
    for i, (pt, lt) in enumerate(zip(trace.phases, loaded.phases)):
        assert lt.vaddr_slices == pt.vaddr_slices
        assert lt.vaddrs.dtype == np.int64 and lt.vaddrs.flags.c_contiguous
        assert np.array_equal(lt.vaddrs, pt.vaddrs)
        assert np.array_equal(loaded.stats[i].lines, trace.stats[i].lines)
        assert loaded.stats[i].lines.dtype == np.int64
        phase = lt.to_phase()
        for name, stream in phase.traces.items():
            assert np.shares_memory(stream.vaddrs, lt.vaddrs) \
                or stream.steps == 0
        _assert_stats_equal(loaded.geometry_for(i, phase, mesh).stats,
                            trace.geometry_for(i, pt.to_phase(), mesh).stats)


@pytest.mark.parametrize("workload", ["bfs_push", "bin_tree"])
def test_loaded_trace_arrays_are_read_only(workload, tmp_path):
    """One loaded trace feeds every run that reuses it, so a write into
    a ``to_phase()`` view (or a stored geometry array) raises instead of
    changing the next run's input."""
    config = SystemConfig.ooo8()
    trace, _ = _recorded_with_stats(workload, config)
    key = trace_key(workload, SCALE, SEED, config)
    assert ResultCache(tmp_path).store(key, trace, kind=KIND_REPLAY)
    loaded = ResultCache(tmp_path).lookup(key)
    views = [loaded.stats[i].lines for i in range(len(loaded.phases))]
    for pt in loaded.phases:
        for stream in pt.to_phase().traces.values():
            views += [a for a in (stream.vaddrs, stream.modifies,
                                  stream.chain_lengths) if a is not None]
    # A stream read before any flat array is decoded on its own, and
    # its arrays, banks and cores included, are read-only too.
    lazy = ResultCache(tmp_path).lookup(key)
    mesh = Machine.build(config, sample_cores=4, data_scale=SCALE).mesh
    for i, pt in enumerate(lazy.phases):
        phase = pt.to_phase()
        views += [s.vaddrs for s in phase.traces.values()]
        for st in lazy.stats[i].to_stats(phase, mesh).values():
            views += [st.lines, st.banks, st.cores]
    written = [v for v in views if len(v)]
    assert any(s.modifies is not None or s.chain_lengths is not None
               for pt in loaded.phases for s in pt.to_phase().traces.values())
    assert written
    for view in written:
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = view[0]


def test_stored_trace_takes_under_a_third_of_its_int64_bytes(tmp_path):
    config = SystemConfig.ooo8()
    trace, _ = _recorded_with_stats("histogram", config)
    cache = ResultCache(tmp_path)
    key = trace_key("histogram", SCALE, SEED, config)
    assert cache.store(key, trace, kind=KIND_REPLAY)
    stored = cache._path(key).stat().st_size
    assert stored < trace.nbytes / 3, (stored, trace.nbytes)


def _damage_stored_part(trace, damage):
    """Damage, in place, the first stored part with deltas: a ``vaddrs``
    part one delta short or gone, or a ``lines`` part whose deltas are
    floats.  Pickling the loaded trace writes its stored parts as they
    are, so the damage reaches the entry."""
    holders = ([pack._stored for pack in trace.stats] if damage == "float"
               else [pt._stored for pt in trace.phases])
    parts = next(h.parts for h in holders
                 if any(len(d) for _, d in h.parts))
    i = next(i for i, (_, d) in enumerate(parts) if len(d))
    first, deltas = parts[i]
    if damage == "short":
        parts[i] = (first, deltas[:-1])
    elif damage == "missing":
        del parts[i]
    else:
        parts[i] = (first, deltas.astype(np.float64))


def _damaged_entry_quarantines_and_the_rerun_rebuilds(tmp_path, monkeypatch,
                                                      damage):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    from repro.eval import result_cache
    monkeypatch.setattr(result_cache, "_default_cache", None)
    monkeypatch.setattr(build_cache, "_last_loaded", None)
    config = SystemConfig.ooo8()
    first = run_workload("histogram", ExecMode.NS, config=config,
                         scale=SCALE, seed=SEED)
    assert "run.store" in first.profile
    key = trace_key("histogram", SCALE, SEED, config)
    cache = ResultCache(tmp_path)
    trace = cache.lookup(key)
    _damage_stored_part(trace, damage)
    assert cache.store(key, trace, kind=KIND_REPLAY)
    # The damage fails the load itself, not a run that decodes it later.
    assert cache.lookup(key) is None
    assert cache.quarantined == 1
    assert len(list(cache.quarantine_root.glob("*.pkl"))) == 1

    again = run_workload("histogram", ExecMode.NS, config=config,
                         scale=SCALE, seed=SEED)
    assert "run.build" in again.profile and "run.store" in again.profile
    assert again.to_dict() == first.to_dict()
    fresh = ResultCache(tmp_path)
    assert fresh.lookup(key) is not None and fresh.quarantined == 0


def test_wrong_length_part_quarantines_and_the_rerun_rebuilds(
        tmp_path, monkeypatch):
    """A stored part one delta short of its slice fails ``__setstate__``;
    the lookup quarantines the entry, and the next run rebuilds and
    rewrites it with a bit-identical result."""
    _damaged_entry_quarantines_and_the_rerun_rebuilds(tmp_path, monkeypatch,
                                                      "short")


@pytest.mark.parametrize("damage", ["missing", "float"])
def test_missing_or_float_part_quarantines_at_lookup(tmp_path, monkeypatch,
                                                     damage):
    """So does a part missing from its array's list, and deltas stored
    as floats, which would decode to the same values without the check:
    ``__setstate__`` checks every part before anything is decoded."""
    _damaged_entry_quarantines_and_the_rerun_rebuilds(tmp_path, monkeypatch,
                                                      damage)


def test_repickled_loaded_trace_writes_its_parts_unchanged(tmp_path):
    """Pickling a loaded trace again writes each stored part as it was
    loaded, decoding and encoding nothing, whether or not a stream was
    decoded in between."""
    config = SystemConfig.ooo8()
    trace, _ = _recorded_with_stats("bfs_push", config)
    loaded = pickle.loads(pickle.dumps(trace))
    pt = loaded.phases[0]
    assert len(pt.to_phase().traces[pt.names[0]].vaddrs)   # one decoded
    packs = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(replay, "pack_slices", lambda *a: packs.append(a))
        again = pickle.loads(pickle.dumps(loaded))
    assert packs == []
    for old, new in zip(trace.phases, again.phases):
        assert np.array_equal(old.vaddrs, new.vaddrs)
    for old, new in zip(trace.stats, again.stats):
        assert np.array_equal(old.lines, new.lines)


def _count(monkeypatch, owner, name, calls):
    """Append ``name`` to ``calls`` on each call of ``owner.name``."""
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("workload", all_workload_names())
def test_run_on_a_loaded_entry_with_its_walk_decodes_nothing(
        workload, tmp_path, monkeypatch):
    """Every mode: once the entry holds the mode's walk (its first run by
    name writes it back), a run by name on the entry loaded afresh reads
    no stream's ``vaddrs`` or ``lines`` and computes no ``banks``, and
    equals the live run."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    from repro.eval import result_cache
    monkeypatch.setattr(result_cache, "_default_cache", None)
    config = SystemConfig.paper_mesh(8)
    decodes, banks = [], []
    _count(monkeypatch, replay, "unpack_part", decodes)
    for module in (replay, tracestats):
        _count(monkeypatch, module, "banks_of_lines", banks)
    for mode in ExecMode:
        run_workload(workload, mode, config=config, scale=SCALE, seed=SEED)
        monkeypatch.setattr(build_cache, "_last_loaded", None)
        decodes.clear()
        banks.clear()
        warm = run_workload(workload, mode, config=config, scale=SCALE,
                            seed=SEED)
        assert "run.replay" in warm.profile and "run.store" not in \
            warm.profile, mode
        assert (decodes, banks) == ([], []), mode
        live = run_workload(workload, mode, config=config, scale=SCALE,
                            seed=SEED, use_replay=False)
        assert warm.to_dict() == live.to_dict(), mode
