# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test verify ledger ledger-smoke bench-figs bench-paper examples report clean

install:
	$(PYTHON) -m pip install -e '.[test]'

test:
	$(PYTHON) -m pytest tests/

# One-shot gate (CI runs this on every push/PR).  Tier-1 includes the
# behaviour pins (tests/integration/test_behavior_pins.py): every
# seeded fingerprint, sharded-kernel digest and ledger smoke workload
# must equal its pinned record exactly; nothing is gated on a clock.
# Then the CLI end to end, everything written under the ignored
# artifacts/: an audited Chord run whose trace must reconstruct its
# causal trees (repro stats), render the load report (repro report) and
# show no violation (repro audit exits non-zero on one); and the same
# audited run over CAN.
verify: export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
verify:
	$(PYTHON) -m pytest tests/ -q
	mkdir -p artifacts
	$(PYTHON) -m repro run --nodes 100 --subscriptions 50 \
		--publications 50 --audit \
		--telemetry artifacts/sample-trace.jsonl > /dev/null
	$(PYTHON) -m repro stats artifacts/sample-trace.jsonl
	$(PYTHON) -m repro report artifacts/sample-trace.jsonl \
		--json artifacts/load-report.json
	$(PYTHON) -m repro audit artifacts/sample-trace.jsonl \
		--report artifacts/audit-report.txt
	$(PYTHON) -m repro run --overlay can --nodes 100 \
		--subscriptions 50 --publications 50 --audit \
		--telemetry artifacts/sample-trace-can.jsonl > /dev/null
	$(PYTHON) -m repro audit artifacts/sample-trace-can.jsonl \
		--report artifacts/audit-report-can.txt

# The performance ledger (BENCHMARK.json): five seeded workloads, eight
# end-to-end and 111 per-layer metrics, about 3 min.  ledger-smoke runs
# it at a tenth of the size in-process (~10 s) and checks that the
# metric catalog still equals BENCHMARK.json; CI runs it after verify.
# One workload: make ledger LEDGER_ARGS="--workload steady-can".
ledger:
	$(PYTHON) benchmarks/ledger/run.py $(LEDGER_ARGS)

ledger-smoke:
	$(PYTHON) -m pytest benchmarks/ledger/test_ledger.py

# Regenerate the paper's figures (the simulated-outcome benchmarks).
bench-figs:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Approach the paper's 25 000-subscription memory runs (hours).
bench-paper:
	REPRO_BENCH_SCALE=8 $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script || exit 1; \
	done

report:
	$(PYTHON) -m repro report --out-dir results --scale default

clean:
	rm -rf results artifacts .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
