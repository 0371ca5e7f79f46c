# Development targets for the Clio log-files reproduction.

PYTHON ?= python

.PHONY: install test lint check campaign workload bench bench-fastpath bench-tables examples fsck-demo obs-demo health-demo outputs clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# The clio-lint invariant analyzer (docs/LINTING.md): sim-time purity, WORM
# encapsulation, charge discipline, engine imports, set-iteration order.
# Exit 1 on findings.
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint src/repro

# Pre-commit gate: lint + tier-1 tests (+ mypy when installed).
check:
	./scripts/check.sh

# The deterministic fault campaign (docs/FAULTS.md): every injected
# fault must surface in at least one observability channel; the coverage
# matrix artifact must be byte-identical across runs.  Exit 2 on any
# silent miss.
campaign:
	PYTHONPATH=src $(PYTHON) -m repro campaign run --menu full --check-determinism

# The year-in-the-life workload observatory (docs/WORKLOADS.md): replay
# the year profile with the full fault menu under load, require
# byte-identical artifacts, and re-register the run catalog.  Exit 2 on
# an attribution shortfall or a silent miss.
workload:
	PYTHONPATH=src $(PYTHON) -m repro workload run --profile year --campaign full --check-determinism --register benchmarks/runs
	PYTHONPATH=src $(PYTHON) -m repro workload index benchmarks/runs

bench:
	CLIO_BENCH_RECORD_DIR=. $(PYTHON) -m pytest benchmarks/ --benchmark-only

# The fast-path bench alone (parsed cache / group commit / read-ahead):
# quick enough for a CI smoke run, writes BENCH_fastpath.json.
bench-fastpath:
	CLIO_BENCH_RECORD_DIR=. PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ -k fastpath -s -q

# The paper-style result tables (Figure 3, Table 1, Figure 4, ...).
# Every bench* target records its headline numbers as BENCH_*.json
# (CLIO_BENCH_RECORD_DIR, see docs/PERFORMANCE.md); the checked-in ones
# are regenerated here and compared by scripts/check.sh.
bench-tables:
	CLIO_BENCH_RECORD_DIR=. $(PYTHON) -m pytest benchmarks/ -s -q

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

# Observability walkthrough: build a small file-backed store, then show
# the live metric families and the mount/read span trees.
obs-demo:
	rm -rf /tmp/clio-obs-demo
	PYTHONPATH=src $(PYTHON) -m repro init /tmp/clio-obs-demo --block-size 512 --degree 8
	PYTHONPATH=src $(PYTHON) -m repro create /tmp/clio-obs-demo /app
	@for i in 1 2 3 4 5 6 7 8; do \
		PYTHONPATH=src $(PYTHON) -m repro append /tmp/clio-obs-demo /app "event $$i" || exit 1; \
	done
	PYTHONPATH=src $(PYTHON) -m repro stats /tmp/clio-obs-demo --touch /app
	PYTHONPATH=src $(PYTHON) -m repro trace live /tmp/clio-obs-demo --read /app
	PYTHONPATH=src $(PYTHON) -m repro append /tmp/clio-obs-demo /app "traced event" --trace
	PYTHONPATH=src $(PYTHON) -m repro why /tmp/clio-obs-demo --slowest

# Diagnosis walkthrough: build a store, then run the event journal and
# the SLO health checks over it.
health-demo:
	rm -rf /tmp/clio-health-demo
	PYTHONPATH=src $(PYTHON) -m repro init /tmp/clio-health-demo --block-size 512 --degree 8
	PYTHONPATH=src $(PYTHON) -m repro create /tmp/clio-health-demo /login
	@for i in 1 2 3 4 5 6 7 8 9 10 11 12; do \
		PYTHONPATH=src $(PYTHON) -m repro append /tmp/clio-health-demo /login "user$$i logged in" || exit 1; \
	done
	PYTHONPATH=src $(PYTHON) -m repro events /tmp/clio-health-demo --limit 12
	PYTHONPATH=src $(PYTHON) -m repro health /tmp/clio-health-demo --read /login

# The final artifacts recorded in the repository.
outputs:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
