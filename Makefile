PYTHON ?= python
export PYTHONPATH := src

.PHONY: test faults churn chaos bench perf perf-check cov trace lint

## Tier-1: the fast default test suite (fault campaigns and perf guards
## deselected -- see the marker list in pyproject.toml).
test:
	$(PYTHON) -m pytest -x -q

## Fault-injection smoke: the marked campaign tests, a 50-trial CLI
## campaign comparing FT OC-Bcast against the baseline, a 10-trial
## multi-fault service campaign (interior crash mid-stream + corrupted
## data + link-down bursts) over the crash-surviving broadcast service,
## a 15-trial coordinator-failover campaign (the root/source itself
## crashes mid-stream -- survived only by leader election + the
## message-completion protocol), and a 20-trial Byzantine campaign
## (3 compromised cores per trial equivocating/forging/lying against
## the Bracha echo/ready RBC -- honest members must never diverge).
## First of all the harness goldens are regenerated and diffed, so a
## drift in any harness (campaign, chaos, scenarios, churn) is named by
## field before the campaigns below print their tables.
faults:
	$(PYTHON) tools/dump_harness_outcomes.py --check
	$(PYTHON) -m pytest -q -m faults tests
	$(PYTHON) -m repro faults --trials 50 --kinds drop_flag corrupt_flag crash --timeline
	$(PYTHON) -m repro faults --trials 10 --service --burst \
		--kinds crash corrupt_data --crash-site interior --mid-stream \
		--cache-lines 288 --faults-per-trial 2 --timeline
	$(PYTHON) -m repro faults --trials 15 --service --no-baseline \
		--kinds crash --crash-site root --mid-stream \
		--cache-lines 288 --timeline
	$(PYTHON) -m repro faults --trials 20 --byz --adversaries 3 \
		--no-baseline --cache-lines 192 --timeline

## Sustained-regime survival (docs/FAULTS.md §10): the marked churn
## acceptance test, then the full 100-trial campaign -- every adaptive
## trial must terminate cleanly with zero false evictions and zero
## online I8 (no-false-eviction) violations, while the fixed-deadline
## comparison leg demonstrates the failure the phi-accrual detector
## and paced retries exist to prevent.
churn:
	$(PYTHON) -m pytest -q -m faults tests/test_churn.py
	$(PYTHON) -m repro churn --trials 100 --seed 1

## Chaos search (docs/FAULTS.md §9): replay the pinned regression
## bundles, then soak 200 randomized composite-fault schedules across
## both transport backends -- every violation is ddmin-shrunk and
## written to chaos_bundles/ with a one-line repro command.  The
## nightly CI job runs the same loop with a wall-clock budget.
chaos:
	$(PYTHON) -m pytest -q -m chaos tests
	$(PYTHON) -m repro chaos --replay tests/chaos_bundles/*.json
	$(PYTHON) -m repro chaos --trials 200 --seed 1 --out-dir chaos_bundles

## Paper tables/figures (slow; writes benchmarks/results/).
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

## Host-time performance: the layered ledger's seven workloads with
## per-metric noise bounds (BENCHMARK.json, benchmarks/ledger/README.md,
## docs/PERFORMANCE.md).
perf:
	$(PYTHON) benchmarks/ledger/run.py

## The deterministic guards: simulated service / rbc / resilience tax,
## exact binomial events and exact scatter-allgather events (kernel
## events of one uncontended EXACT broadcast each: every put/get a
## virtual leg-script stretch), exact oc-bcast calls (function calls of one
## contended EXACT OC-Bcast: every line a leg-script hold, no per-line
## wake-up), L1 runs per core after a streamed broadcast,
## fragmented-L1 ops/access, analytic replay steps per chunk, analytic
## op calls (function calls of one warm AnalyticEngine(k=7) batch of
## the ledger's 128 sizes: a cached plan, no per-lane Python), asyncio
## service calls (function calls of one 48-rank service run on the
## asyncio backend), scc byz service calls (function calls of one
## 48-rank Byzantine service run on the SCC backend: every vote fan-out
## one leg script, no per-write wake-up), faulted byz calls (function
## calls of one 4x3 SCC byz chaos schedule: no per-primitive injector
## call, the vote casts scripted under a quiet injector), empty-plan
## event tax (a FaultPlan() injector adds no kernel event to a 48-core
## ft broadcast, BATCH or EXACT), analytic fast path serves every
## fault-free trial.
## Exact on any host -- no tolerance, no committed baseline.
perf-check:
	$(PYTHON) benchmarks/perf_check.py

## Function-coverage gate (stdlib-only; takes several minutes -- the
## profiler hooks every call).  Uses coverage.py instead when installed.
cov:
	$(PYTHON) tools/funccov.py --prefer-coverage-py --fail-under 90

## Export a Chrome/Perfetto trace of the paper's headline broadcast
## (OC-Bcast k=7, 96 cache lines, 48 cores) to trace.json.
trace:
	$(PYTHON) -m repro trace --algo oc --k 7 --cache-lines 96 -o trace.json

## Seconds, before the tier-1 matrix: everything compiles, no option
## has regrown without a caller (tests/test_option_census.py), no
## protocol module without something that runs it
## (tests/test_module_census.py), no bad CLI input ends in a
## traceback (tests/test_cli.py), and the trace-kind table and the
## FaultKind facts agree with the code (tests/test_vocabulary.py).
lint:
	$(PYTHON) -m compileall -q src tests benchmarks
	$(PYTHON) -m pytest -q tests/test_option_census.py \
		tests/test_module_census.py tests/test_cli.py \
		tests/test_vocabulary.py
