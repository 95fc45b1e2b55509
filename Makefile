# Convenience targets for the near-stream computing reproduction.

PYTHON ?= python

.PHONY: install test golden bench bench-quick report sweep-fast sweep chaos profile faults trace examples clean

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
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-quick:
	REPRO_SCALE=0.0078125 $(PYTHON) -m pytest benchmarks/ --benchmark-disable

report:
	$(PYTHON) -m repro report

# Full headline sweep using every core and the persistent result cache;
# a second invocation is near-instant (`python -m repro cache clear`
# invalidates).
sweep-fast:
	$(PYTHON) -m repro report --jobs 0 --cache

# Durable journaled sweep with resume: interrupt it (Ctrl-C, SIGTERM,
# even SIGKILL) and re-run — completed points are read back from the
# journal's store (sweep.jsonl.store/), only the remainder is recomputed
# (override with SWEEP_W="<workloads>").
SWEEP_W ?= bfs_push sssp histogram
sweep:
	$(PYTHON) -m repro sweep $(SWEEP_W) --journal sweep.jsonl --resume --watchdog 600

# Storage/worker chaos harness: seeded fault injection against the
# cache store, journal durability, concurrent-writer stress, the
# SIGKILL-then-resume bit-identity suite, and the scheduler and job-store
# suites.
chaos:
	$(PYTHON) -m pytest -x -q tests/fault/test_chaos.py tests/eval/test_journal.py tests/eval/test_concurrent_writers.py tests/eval/test_sweep_resume.py tests/eval/test_sweep_scheduler.py tests/eval/test_jobstore.py

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
