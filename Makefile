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
# artifacts/: an audited Chord run and the same audited run over CAN
# and over Pastry, each read back by repro report, which exits non-zero
# on a violation or an incomplete causal tree; the Chord report also
# writes the Perfetto trace.  The last line checks that all three traces
# were audited and load-metered (a section not recorded is null in the
# JSON), that each exported fewer than 100 counters (a 100-node run that
# needs more has an instrument per node, which grows with the ring),
# that each audited at least one publication (audit.publications_audited
# > 0: the delivery oracle ran) and that every CAN probe checked every
# node (nodes_checked == nodes_total: CAN geometry is the overlay's own
# table and never lags).  A Chord or Pastry node holds no routing state
# (each hop reads the sorted ring), so their probes check none.
# The same audited CAN run under Mapping 1 (--mapping attribute-split)
# puts wide m-casts under the oracle: each subscription casts to many
# keys at once, so one step splits into many groups; its report faces
# the same last line, the every-node CAN probe check included.
# The same audited Chord run with --cache 0 puts the empty location
# cache under the oracle: every cache view a node reads is empty.
# The same audited Chord run under Mapping 1 (--mapping
# attribute-split) and Mapping 2 (--mapping keyspace-split) puts
# SK(σ)s of several key runs each on the overlay the ledger's Chord
# workloads use (Mapping 3's SK(σ) is one run); both reports face the
# same last line.  The same audited Chord run with --buffering, and
# with --collecting under Mapping 1 (--mapping attribute-split, which
# sends many more COLLECT hops than Mapping 3), puts Section 4.3.2's
# notification buffers and COLLECT path under the oracle; both reports
# face the same last line.  The same audited Chord run with --matcher
# vector, on 20 nodes with 200 subscriptions so that some stores reach
# SCAN_LIMIT entries and build their engine, is the one run of the
# numpy engine under the oracle (numpy loads with that first engine);
# its report faces the same last line, which also fails if its
# covering gauges read no root (load.matching.covering.roots == 0: no
# store built an engine).  The
# same audited run with --routing sequential, once per overlay, puts
# the conservative walk (one step, in the overlay base) under the
# delivery oracle too; these four reports face the same last line,
# the CAN one its every-node probe check included.
# Every overlay m-casts by the one Fig. 4 step, which delivers at most
# once per node, so the last line also fails if the Chord runs (with and
# without a cache, under Mappings 1 and 2, buffered, collected and on
# the vector engine), the
# two CAN runs or the Pastry run audited a notification that reached
# its subscriber twice (audit.deliveries_duplicate > 0).
# The churn-resilience bench (about 0.3 s of simulation) runs too, with
# its timing off: it is the one check of delivery under crashes with and
# without replication.  So do the event-space-partition and
# hotspot-adaptation benches, timing off too (about a second together):
# outside tier-1 they are the only code that reads a mapping's key sets.
verify: export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
verify:
	$(PYTHON) -m pytest tests/ -q
	$(PYTHON) -m pytest benchmarks/test_churn_resilience.py \
		benchmarks/test_esp_baseline.py benchmarks/test_hotspot_adaptation.py \
		-q --benchmark-disable
	mkdir -p artifacts
	$(PYTHON) -m repro run --nodes 100 --subscriptions 50 \
		--publications 50 --audit \
		--telemetry artifacts/sample-trace.jsonl > /dev/null
	$(PYTHON) -m repro report artifacts/sample-trace.jsonl \
		--json artifacts/report-chord.json \
		--perfetto artifacts/perfetto-chord.json
	$(PYTHON) -m repro run --overlay can --nodes 100 \
		--subscriptions 50 --publications 50 --audit \
		--telemetry artifacts/sample-trace-can.jsonl > /dev/null
	$(PYTHON) -m repro report artifacts/sample-trace-can.jsonl \
		--json artifacts/report-can.json
	$(PYTHON) -m repro run --overlay can --mapping attribute-split \
		--nodes 100 --subscriptions 50 --publications 50 --audit \
		--telemetry artifacts/sample-trace-can-attribute-split.jsonl \
		> /dev/null
	$(PYTHON) -m repro report artifacts/sample-trace-can-attribute-split.jsonl \
		--json artifacts/report-can-attribute-split.json
	$(PYTHON) -m repro run --overlay pastry --nodes 100 \
		--subscriptions 50 --publications 50 --audit \
		--telemetry artifacts/sample-trace-pastry.jsonl > /dev/null
	$(PYTHON) -m repro report artifacts/sample-trace-pastry.jsonl \
		--json artifacts/report-pastry.json
	$(PYTHON) -m repro run --cache 0 --nodes 100 --subscriptions 50 \
		--publications 50 --audit \
		--telemetry artifacts/sample-trace-chord-cache0.jsonl > /dev/null
	$(PYTHON) -m repro report artifacts/sample-trace-chord-cache0.jsonl \
		--json artifacts/report-chord-cache0.json
	$(PYTHON) -m repro run --buffering --nodes 100 --subscriptions 50 \
		--publications 50 --audit \
		--telemetry artifacts/sample-trace-chord-buffering.jsonl > /dev/null
	$(PYTHON) -m repro report artifacts/sample-trace-chord-buffering.jsonl \
		--json artifacts/report-chord-buffering.json > /dev/null
	$(PYTHON) -m repro run --collecting --mapping attribute-split \
		--nodes 100 --subscriptions 50 --publications 50 --audit \
		--telemetry artifacts/sample-trace-chord-collecting.jsonl > /dev/null
	$(PYTHON) -m repro report artifacts/sample-trace-chord-collecting.jsonl \
		--json artifacts/report-chord-collecting.json > /dev/null
	$(PYTHON) -m repro run --matcher vector --nodes 20 \
		--subscriptions 200 --publications 50 --audit \
		--telemetry artifacts/sample-trace-chord-vector.jsonl > /dev/null
	$(PYTHON) -m repro report artifacts/sample-trace-chord-vector.jsonl \
		--json artifacts/report-chord-vector.json > /dev/null
	for mapping in attribute-split keyspace-split; do \
		$(PYTHON) -m repro run --mapping $$mapping --nodes 100 \
			--subscriptions 50 --publications 50 --audit \
			--telemetry artifacts/sample-trace-chord-$$mapping.jsonl \
			> /dev/null && \
		$(PYTHON) -m repro report \
			artifacts/sample-trace-chord-$$mapping.jsonl \
			--json artifacts/report-chord-$$mapping.json > /dev/null \
		|| exit 1; \
	done
	for overlay in chord can pastry; do \
		$(PYTHON) -m repro run --overlay $$overlay --routing sequential \
			--nodes 100 --subscriptions 50 --publications 50 --audit \
			--telemetry artifacts/sample-trace-$$overlay-sequential.jsonl \
			> /dev/null && \
		$(PYTHON) -m repro report \
			artifacts/sample-trace-$$overlay-sequential.jsonl \
			--json artifacts/report-$$overlay-sequential.json > /dev/null \
		|| exit 1; \
	done
	$(PYTHON) -c "import json; reports = {p: json.load(open(p)) for p in ('artifacts/report-chord.json', 'artifacts/report-can.json', 'artifacts/report-can-attribute-split.json', 'artifacts/report-pastry.json', 'artifacts/report-chord-cache0.json', 'artifacts/report-chord-attribute-split.json', 'artifacts/report-chord-keyspace-split.json', 'artifacts/report-chord-sequential.json', 'artifacts/report-can-sequential.json', 'artifacts/report-pastry-sequential.json', 'artifacts/report-chord-buffering.json', 'artifacts/report-chord-collecting.json', 'artifacts/report-chord-vector.json')}; [exit(f'{p}: {k} not recorded') for p, r in reports.items() for k in ('audit', 'load') if r[k] is None]; [exit(f'{p}: {n} counters, one per node?') for p, r in reports.items() for n in [r['trace']['final_counters']] if n >= 100]; [exit(f'{p}: no publication audited') for p, r in reports.items() if sum(c['value'] for c in r['audit']['counters'] if c['name'] == 'audit.publications_audited') == 0]; [exit(f'{p}: a probe missed a node') for p in ('artifacts/report-can.json', 'artifacts/report-can-attribute-split.json', 'artifacts/report-can-sequential.json') for q in reports[p]['audit']['probes'] if q['nodes_checked'] != q['nodes_total']]; [exit(f'{p}: a notification delivered twice') for p in ('artifacts/report-chord.json', 'artifacts/report-chord-cache0.json', 'artifacts/report-chord-attribute-split.json', 'artifacts/report-chord-keyspace-split.json', 'artifacts/report-can.json', 'artifacts/report-can-attribute-split.json', 'artifacts/report-pastry.json', 'artifacts/report-chord-buffering.json', 'artifacts/report-chord-collecting.json', 'artifacts/report-chord-vector.json') if sum(c['value'] for c in reports[p]['audit']['counters'] if c['name'] == 'audit.deliveries_duplicate') > 0]; [exit('artifacts/report-chord-vector.json: no store built an engine') for r in [reports['artifacts/report-chord-vector.json']] if r['load']['matching']['covering']['roots'] == 0]"

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
	$(PYTHON) -m repro suite --out-dir results --scale default

clean:
	rm -rf results artifacts .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
