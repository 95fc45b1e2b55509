# Convenience targets for the near-stream computing reproduction.

PYTHON ?= python

.PHONY: install test golden bench bench-quick replay-bench scale-bench stats-bench report sweep-fast sweep serve service-test chaos profile faults trace examples clean

# Workload/scale for `make profile`.
W ?= bfs_push
PROFILE_SCALE ?= 0.25

install:
	pip install -e . || \
	echo "$(CURDIR)/src" > "$$($(PYTHON) -c 'import site; print(site.getsitepackages()[0])')/repro-dev.pth"

test:
	$(PYTHON) -m pytest tests/

# Regenerate the golden corpus (tests/golden/corpus.json) traced, print
# the first differing field of every point that moved, then write it.
# tests/golden/test_corpus.py only ever compares against the file.
golden:
	REPRO_TRACE=1 $(PYTHON) -m tests.golden.corpus

bench:
	REPRO_BENCH_LOG=BENCH_PR2.json $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-quick:
	REPRO_SCALE=0.0078125 $(PYTHON) -m pytest benchmarks/ --benchmark-disable

# Cold-vs-warm timings for the trace-replay fast path (BENCH_PR6.json).
replay-bench:
	REPRO_BENCH_LOG=BENCH_PR6.json $(PYTHON) -m pytest benchmarks/test_perf_replay.py

# Protocol engine speedup over the event-driven oracle + big-mesh
# scaling curves (BENCH_PR7.json): engine timing at 16x16,
# speedup/traffic vs tile count for three workloads, and the 32x32
# sweep point.
scale-bench:
	REPRO_BENCH_LOG=BENCH_PR7.json $(PYTHON) -m pytest benchmarks/test_perf_protocol.py --benchmark-disable

# Derived-geometry stats bundle: warm-path speedups and phase.stats
# share on the 32x32 mesh, plus steady-state replay throughput vs the
# BENCH_PR6 baseline (BENCH_PR8.json).
stats-bench:
	REPRO_BENCH_LOG=BENCH_PR8.json $(PYTHON) -m pytest benchmarks/test_perf_stats.py --benchmark-disable

report:
	$(PYTHON) -m repro report

# Full headline sweep using every core and the persistent result cache;
# a second invocation is near-instant (`python -m repro cache clear`
# invalidates).
sweep-fast:
	REPRO_BENCH_LOG=BENCH_PR2.json $(PYTHON) -m repro report --jobs 0 --cache

# Durable journaled sweep with resume: interrupt it (Ctrl-C, SIGTERM,
# even SIGKILL) and re-run — completed points replay from the journal,
# only the remainder is recomputed (override with W="<workloads>").
SWEEP_W ?= bfs_push sssp histogram
sweep:
	$(PYTHON) -m repro sweep $(SWEEP_W) --journal sweep.jsonl --resume --watchdog 600

# Long-lived sweep daemon on a unix socket: `repro submit`/`repro
# status` from any shell share one scheduler, one cache, and one
# journal; restart the daemon and it adopts everything the journal
# holds (stop with `python -m repro serve --stop`).
serve:
	$(PYTHON) -m repro serve --journal service.jsonl --event-log events.jsonl --watchdog 600

# Sweep-service suites: jobstore contract, daemon lifecycle
# (dedup/reconnect/SIGKILL-restart), and the scheduler regressions the
# service work flushed out (single-group watchdog, queue-wait billing).
service-test:
	$(PYTHON) -m pytest -x -q tests/service tests/eval/test_sweep_scheduler.py

# Storage/worker chaos harness: seeded fault injection against the
# cache store, journal durability, concurrent-writer stress, and the
# SIGKILL-then-resume bit-identity suite.
chaos:
	$(PYTHON) -m pytest -x -q tests/fault/test_chaos.py tests/eval/test_journal.py tests/eval/test_concurrent_writers.py tests/eval/test_sweep_resume.py

# Per-stage simulator wall-time breakdown (override with W=<workload>).
profile:
	$(PYTHON) -m repro profile $(W) --scale $(PROFILE_SCALE)

# Fault-injection recovery-cost curve (override with W=<workload>).
faults:
	$(PYTHON) -m repro faults $(W)

# Protocol event trace + invariant sanitizer; writes trace.json for
# chrome://tracing / Perfetto (override with W=<workload>).
trace:
	$(PYTHON) -m repro trace $(W) --out trace.json

examples:
	for ex in examples/*.py; do echo "== $$ex"; $(PYTHON) $$ex; done

clean:
	rm -rf .pytest_cache .hypothesis src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
