# Convenience targets for the reproduction.

PYTHON ?= python
JOBS ?= 4

.PHONY: install test bench bench-parallel bench-full bench-floor \
	bench-sweep-floor sample-bench repro examples cache-smoke \
	sampling-smoke kernel-smoke ports-smoke sweep-smoke verify fuzz \
	fuzz-smoke faults-smoke faults fleet-smoke fleet-chaos golden \
	lint-goldens clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# sweep grids fan out over $(JOBS) worker processes, warm runs hit the cache
bench-parallel:
	REPRO_JOBS=$(JOBS) REPRO_CACHE=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_SCALE=full $(PYTHON) -m pytest benchmarks/ --benchmark-only

cache-smoke:
	$(PYTHON) tools/cache_smoke.py

# interval-sampling engine: sampled sweep determinism, CI fields, trace cache
sampling-smoke:
	$(PYTHON) tools/sampling_smoke.py

# code-generated cycle kernels: every scheme bit-identical to the event
# loop, sharing kernel >= 2x faster (same process, same machine)
kernel-smoke:
	$(PYTHON) tools/kernel_smoke.py

# read-port-reduction schemes: both schemes on two profiles, three-way
# loop identity + commit-time oracle, port counters exercised
ports-smoke:
	$(PYTHON) tools/ports_smoke.py

# sweep backends + data plane: small grid bit-identical across serial, the
# worker pool (shared-memory, legacy jsonl, timeout+retries) and the fleet
# coordinator degraded to local runs; broadcast engages and leaks nothing
sweep-smoke:
	$(PYTHON) tools/sweep_smoke.py

# oracle-checked kernel battery: every scheme, lockstep vs the golden model
verify:
	PYTHONPATH=src $(PYTHON) -m repro verify --all-schemes --faults --interrupts

# quick CI gate: 25 seeded random programs, all schemes, oracle+invariants on
fuzz-smoke:
	PYTHONPATH=src $(PYTHON) -m repro fuzz --count 25

# longer local fuzzing run (FUZZ_COUNT and FUZZ_SEED are overridable)
FUZZ_COUNT ?= 250
FUZZ_SEED ?= 0
fuzz:
	PYTHONPATH=src $(PYTHON) -m repro fuzz --count $(FUZZ_COUNT) --seed $(FUZZ_SEED)

# fault-injection gate: 200 seeded injections fully classified with zero
# silent corruption, plus the SIGKILL-and-resume sweep-journal check
faults-smoke:
	$(PYTHON) tools/faults_smoke.py

# longer local fault campaign (FAULT_COUNT and FAULT_SEED are overridable)
FAULT_COUNT ?= 1000
FAULT_SEED ?= 0
faults:
	PYTHONPATH=src $(PYTHON) -m repro faults --injections $(FAULT_COUNT) --seed $(FAULT_SEED)

# distributed-fleet gate: localhost coordinator + 3 forked workers, one
# SIGKILLed mid-point, one truncating an upload; results must stay
# bit-identical to the serial reference
fleet-smoke:
	$(PYTHON) tools/fleet_smoke.py fleet-smoke.json

# fleet chaos campaign: seeded kills/partitions/mangled uploads/stalls/
# coordinator restarts, every fault classified, zero silent corruption
# (CHAOS_FAULTS and CHAOS_SEED are overridable)
CHAOS_FAULTS ?= 100
CHAOS_SEED ?= 0
fleet-chaos:
	PYTHONPATH=src $(PYTHON) -m repro fleet chaos \
		--faults $(CHAOS_FAULTS) --seed $(CHAOS_SEED) \
		--out fleet-chaos.json

repro:
	$(PYTHON) examples/reproduce_paper.py

examples:
	@for ex in examples/*.py; do \
		echo "=== $$ex ==="; \
		$(PYTHON) $$ex || exit 1; \
	done

# regenerate tests/golden_stats.json after an *intended* timing change
golden:
	PYTHONPATH=src $(PYTHON) tests/test_golden.py regen

lint-goldens: golden

# cycle-loop throughput gate: fail if the sharing scheme drops >25% below
# the committed BENCH_cycleloop.json record, or if interval sampling no
# longer runs >= 3x faster than exact simulation
bench-floor:
	PYTHONPATH=src $(PYTHON) -m repro bench --quick --out bench-quick.json

# sweep data-plane gate: binary decode must stay >= 5x JSON-lines per
# pass, the sampled grid's cold-cache wall-clock >= 2x the legacy path,
# and results bit-identical across jobs/shm/codec configurations
bench-sweep-floor:
	PYTHONPATH=src $(PYTHON) -m repro bench sweep --quick --out bench-sweep.json

# sampled-simulation gate: columnar skim >= 5x the per-inst path, no
# scheme's end-to-end sampled run slower than materializing everything
sample-bench:
	PYTHONPATH=src $(PYTHON) -m repro bench sample --quick --out bench-sampling.json

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
