# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test verify bench bench-quick bench-scale bench-trajectory ledger ledger-smoke bench-figs bench-paper examples report clean

install:
	$(PYTHON) -m pip install -e '.[test]'

test:
	$(PYTHON) -m pytest tests/

# One-shot gate (CI runs this on every push/PR): the tier-1 suite plus
# a quick-size bench whose behavior fingerprints must match the
# committed baseline bit for bit — any simulated-outcome drift fails.
# The bench's churn scenarios (one per overlay) also report their
# rebuild/patch maintenance totals, and --check fails if any of them
# recorded zero patches: a regression to wholesale table rebuilds
# breaks the build even when behavior is unchanged.
# The bench runs with telemetry disabled (the default), so the
# fingerprint check doubles as the telemetry-and-audit-overhead gate:
# both layers must be invisible to an untraced run.  The quick suite
# includes the full-size flash-crowd-n2000 leg, which --check gates on
# a perf floor, on the covering index collapsing subscriptions on the
# Zipf workload, and on the covering run's delivery fingerprint
# equalling its uncollapsed reference leg bit for bit.  The last steps
# record an audited sample trace, assert its causal trees reconstruct
# (repro stats exits non-zero on an orphaned delivery), render the
# load-skew observatory report from the same trace (repro report — the
# hot-node/hot-key heatmap plus load-report.json), and render the
# audit health report (repro audit exits non-zero on any recorded
# invariant or delivery-correctness violation); everything generated
# lands under the ignored artifacts/ directory (the work tree stays
# clean) and CI uploads artifacts/sample-trace*.jsonl,
# artifacts/load-report.json, artifacts/audit-report*.txt and
# artifacts/shard-profile.txt as workflow artifacts.  The
# audited run is then repeated over the CAN overlay, whose probes also
# grade the routing fast path's express links and regenerated hop
# sequences.  The scale-bench smoke leg (4000 nodes, serial vs two
# forked shard workers) gates the sharded kernel the same way: its
# behavior digests must match the committed baseline bit for bit (the
# K=1 leg pins serial parity, the K=2 leg pins the deterministic
# barrier merge) and sharded throughput must stay above the
# CPU-availability-aware floor.  Its JSON goes to
# artifacts/BENCH_PR7_smoke.json (uploaded as a CI artifact; the
# committed BENCH_PR7.json is the full 20k/100k-node run and is not
# regenerated here).  A sharded smoke leg then runs with the execution
# profiler attached (--shard-profile): its v4 trace goes to
# artifacts/sample-trace-shard.jsonl (riding the sample-trace* upload)
# and the rendered critical-path report — per-shard busy/stall bars,
# laggard attribution, rebalance advisor — to
# artifacts/shard-profile.txt, uploaded as a workflow artifact.
# Finally the perf trajectory table aggregates every committed
# BENCH_PR*.json so a cross-PR events/s dip is visible in the CI log
# (informational; always exits 0).
verify:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -q
	mkdir -p artifacts
	PYTHONPATH=src $(PYTHON) benchmarks/bench_throughput.py --quick --repeat 3 \
		--baseline benchmarks/baselines/bench_quick_baseline.json --check
	PYTHONPATH=src $(PYTHON) benchmarks/bench_scale.py --scenario smoke \
		--repeat 2 --out artifacts/BENCH_PR7_smoke.json \
		--baseline benchmarks/baselines/bench_scale_baseline.json --check
	PYTHONPATH=src $(PYTHON) -m repro run --nodes 100 --subscriptions 50 \
		--publications 50 --audit \
		--telemetry artifacts/sample-trace.jsonl > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro stats artifacts/sample-trace.jsonl
	PYTHONPATH=src $(PYTHON) -m repro report artifacts/sample-trace.jsonl \
		--json artifacts/load-report.json
	PYTHONPATH=src $(PYTHON) -m repro audit artifacts/sample-trace.jsonl \
		--report artifacts/audit-report.txt
	PYTHONPATH=src $(PYTHON) -m repro run --overlay can --nodes 100 \
		--subscriptions 50 --publications 50 --audit \
		--telemetry artifacts/sample-trace-can.jsonl > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro audit artifacts/sample-trace-can.jsonl \
		--report artifacts/audit-report-can.txt
	PYTHONPATH=src $(PYTHON) -m repro run --nodes 4000 --subscriptions 400 \
		--publications 400 --shards 2 --shard-profile \
		--discretization 256 --cache 1024 --matcher vector \
		--telemetry artifacts/sample-trace-shard.jsonl > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro report artifacts/sample-trace-shard.jsonl \
		--mode shard > artifacts/shard-profile.txt
	cat artifacts/shard-profile.txt
	PYTHONPATH=src $(PYTHON) benchmarks/trajectory.py

# Wall-clock throughput of the hot paths (routing, kernel, matching) on
# the fixed seeded workload; writes $(BENCH_OUT), under the ignored
# artifacts/ by default so the committed BENCH_PR*.json snapshots that
# bench-trajectory reads stay as recorded (to commit a new snapshot:
# make bench BENCH_OUT=BENCH_PR<N>.json).  Pass BENCH_BASELINE=<old.json>
# to record a before/after delta.
BENCH_OUT ?= artifacts/BENCH.json

bench:
	mkdir -p $(dir $(BENCH_OUT))
	PYTHONPATH=src $(PYTHON) benchmarks/bench_throughput.py \
		$(if $(BENCH_BASELINE),--baseline $(BENCH_BASELINE)) --out $(BENCH_OUT)

bench-quick:
	mkdir -p $(dir $(BENCH_OUT))
	PYTHONPATH=src $(PYTHON) benchmarks/bench_throughput.py --quick \
		$(if $(BENCH_BASELINE),--baseline $(BENCH_BASELINE)) --out $(BENCH_OUT)

# The sharded kernel at scale: 4k / 20k / 100k-node Chord rings, serial
# vs forked shard workers, with per-worker peak-RSS and bytes/node
# reporting; writes BENCH_PR7.json (the 100k leg replays 10^6
# publications — expect tens of minutes on a laptop-class machine).
bench-scale:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_scale.py \
		$(if $(BENCH_BASELINE),--baseline $(BENCH_BASELINE)) --out BENCH_PR7.json

# Perf trajectory across every committed BENCH_PR*.json snapshot:
# events/s and peak-RSS per scenario per PR, with cross-PR regressions
# flagged (latest < 0.9x previous).  Informational — always exits 0.
bench-trajectory:
	PYTHONPATH=src $(PYTHON) benchmarks/trajectory.py

# The performance ledger (BENCHMARK.json): five seeded workloads, eight
# end-to-end and 111 per-layer metrics, about 3 min.  ledger-smoke runs
# it at a tenth of the size in-process (~10 s) and checks that the
# metric catalog still equals BENCHMARK.json; CI runs it after verify.
# One workload: make ledger LEDGER_ARGS="--workload steady-can".
ledger:
	python3 benchmarks/ledger/run.py $(LEDGER_ARGS)

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
	rm -rf results .pytest_cache .benchmarks sample-trace.jsonl audit-report.txt \
		sample-trace-can.jsonl audit-report-can.txt BENCH_PR7_smoke.json \
		load-report.json
	find . -name __pycache__ -type d -exec rm -rf {} +
