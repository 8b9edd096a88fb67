GO ?= go

.PHONY: all build test race vet fmt check bench benchsmoke benchrepo benchscale servesmoke servecrash serveshard pins crashmatrix fuzzsmoke loc clean

all: check

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails if any file is not gofmt-clean (prints the offenders).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# race runs the short test suite under the race detector, then on four
# workers, whatever the host has, the crash campaign's recovery-cost, oracle
# and lifetime tests, batch and serving, pools created and reopened on the heap
# tables and transaction slots other workers' pools released, four forks of
# one device checkpoint writing copy-on-write, four machines forked from one
# machine image, two serving runs forked from one loaded shard, and two
# fig14 cells run twice, the second time on the images, pages and arrays the
# first gave back. A simulated machine is plain data that one goroutine
# owns (TestOneGoroutinePerMachine keeps a second goroutine off it,
# TestNoHostSyncInMachine keeps locks and atomics out of it), so the detector
# watches what is left: what workpool jobs share — a campaign's read-only
# prefixes, the media pages forks share until they write them, an image's
# fork count, the page, image, cache-array, TLB-array, epoch-memory,
# pool-state and latency-histogram free lists, the worker pool itself — and
# -httpobs, which may read only finished experiments
# (TestMetricsScrapeDuringRun scrapes /metrics during a run).
race:
	$(GO) test -race -short ./...
	FFCCD_PARALLEL=4 $(GO) test -race -short -count=1 ./internal/faultinject/ \
		-run 'TestEqualCrashImagesRecoverAtEqualCost|TestForked(Serve)?TrialMatchesScratch|Test(Serve)?CampaignLeavesNoPrefixBehind|TestPooledTrialsMatchSerial|TestCampaignsReturnTheirPages'
	FFCCD_PARALLEL=4 $(GO) test -race -short -count=1 ./internal/pmop/ \
		-run 'TestReopenedPoolMatchesFresh'
	FFCCD_PARALLEL=4 $(GO) test -race -short -count=1 ./internal/pmem/ \
		-run 'TestCopyOnWriteMatchesDenseModels|TestForksOfOneCheckpointOnWorkers'
	FFCCD_PARALLEL=4 $(GO) test -race -short -count=1 ./internal/machine/ \
		-run 'TestForksOfOneImageOnWorkers'
	FFCCD_PARALLEL=4 $(GO) test -race -short -count=1 ./internal/redisws/ \
		-run 'TestForkedLoadedRunsMatchServe'
	FFCCD_PARALLEL=4 $(GO) test -race -short -count=1 ./internal/experiments/ \
		-run 'TestRunSpecsForkedWarmMatchesCold'

# crashmatrix is the reduced scheduled crash campaign: every one of the 26
# settings, a pinned seed, stratified site sampling (each site class's first
# occurrence always included), and both single and crash-during-recovery
# schedules. Any failure prints a one-line `ffccd-crashtest -repro` command
# that replays it bit-identically. The target prints its wall time (compile
# included) so the `make check` log shows what the campaign costs.
crashmatrix: build
	@t0=$$(date +%s); \
	$(GO) run ./cmd/ffccd-crashtest -seed 1 -max-sites 56 \
		-nested -max-nested 16 -timeout 2m || exit 1; \
	echo "crashmatrix wall time: $$(( $$(date +%s) - t0 ))s"

# servecrash is the same campaign over the serving settings, at a budget of
# its own: every scheme, a pinned seed, stratified site sampling over the
# open-loop dispatch phase, nested crash-during-recovery schedules, and
# per-trial durable-ack validation — the server must resume and every
# acknowledged SET must read back after recovery. It runs the campaign's
# default volumes (8 clients, 4 000 ops, 800 keys per trial). Prints its wall
# time like crashmatrix.
servecrash: build
	@t0=$$(date +%s); \
	$(GO) run ./cmd/ffccd-crashtest -setting serve/none,serve/ffccd,serve/stw \
		-seed 1 -max-sites 10 -nested -max-nested 3 -timeout 2m || exit 1; \
	echo "servecrash wall time: $$(( $$(date +%s) - t0 ))s"

# pins rewrites testdata/pins.txt, the one record of pinned simulated output
# (package pins, internal/pins/pins.go, names the test that checks each
# section; the tests run one package at a time, since each rewrites its own
# sections of the file), and prints each line that moved as
# "old <key><TAB><text>" and then "new <key><TAB><text>" (a line no longer
# printed as "gone <key>..."), so `make pins | grep '^new cycles'` lists the
# moved cycle lines. Rewrite it only for an intentional change of the
# simulated machine or the schedule space.
pins:
	$(GO) test -p 1 -count=1 -v \
		-run '^(TestPins|TestGoldenCycles|TestServeGolden|TestReproHashesPinned)$$' \
		. ./internal/experiments ./internal/redisws ./internal/faultinject -args -update-pins | \
		sed -n -e 's/^ *[a-z_]*_test\.go:[0-9]*: //p' -e '/^ok/p' -e '/FAIL/p'

# fuzzsmoke runs every fuzz target for 5 s of coverage-guided fuzzing past
# its seed corpus, which plain `go test` already replays. A failure leaves
# its input under the package's testdata/fuzz/, where `go test` replays it
# from then on.
fuzzsmoke: build
	$(GO) test -run '^$$' -fuzz '^FuzzHeapOps$$' -fuzztime 5s ./internal/alloc/
	$(GO) test -run '^$$' -fuzz '^FuzzParseSchedule$$' -fuzztime 5s ./internal/faultinject/
	$(GO) test -run '^$$' -fuzz '^FuzzLRUCache$$' -fuzztime 5s ./internal/redisws/
	$(GO) test -run '^$$' -fuzz '^FuzzTxCrash$$' -fuzztime 5s ./internal/pmop/
	$(GO) test -run '^$$' -fuzz '^FuzzOpenMetrics$$' -fuzztime 5s ./internal/obsv/

# check is the full CI target: gofmt + vet + race-detector short tests +
# full tests + the reduced crash-schedule matrix + the measurement smoke +
# the repo benchmark's smoke run + the serving-layer smoke + the serving-path
# crash campaign + the multicore scaling gate + the sharded-serving scaling
# gate + 5 s of fuzzing per fuzz target, and ends with the line counts.
# Comparing two commits' host cost is `go run ./bench -compare A.json B.json`
# on two results files, not a target.
check: fmt vet race test crashmatrix benchsmoke benchrepo servesmoke servecrash benchscale serveshard fuzzsmoke loc

# loc prints the non-test and test Go line counts of every top-level package
# and of the whole repo. Net non-test lines are a tracked metric (ROADMAP's
# "least code" aim); this is the one way they are counted.
loc:
	@count() { find "$$@" -exec cat {} + | wc -l; }; \
	printf '%-26s %9s %9s\n' package non-test test; \
	for d in . bench $$(find cmd examples internal scripts -mindepth 1 -maxdepth 1 -type d | sort); do \
		depth=; [ $$d = . ] && depth='-maxdepth 1'; \
		printf '%-26s %9d %9d\n' $$d \
			$$(count $$d $$depth -name '*.go' ! -name '*_test.go') \
			$$(count $$d $$depth -name '*_test.go'); \
	done; \
	printf '%-26s %9d %9d\n' total $$(count . -name '*.go' ! -name '*_test.go') $$(count . -name '*_test.go')

# bench runs every Go micro-benchmark once: the root read-barrier benchmark
# and the package ladders. The paper's tables and figures run through
# ffccd-bench, not testing.B.
bench:
	$(GO) test -run XXX -bench . -benchtime=1x ./...

# benchscale is the multicore scaling gate: fig5 under FFCCD_PARALLEL=1 vs
# =GOMAXPROCS must show a parallel speedup (work-stealing pool regression
# check). Skips cleanly on single-core hosts.
benchscale: build
	scripts/benchscale.sh

# serveshard is the sharded-serving scaling gate: one serving scheme at
# -shards 4 must run at least 2x faster than at -shards 1 on a >=4-core
# host (each shard is an independent simulated machine run as a workpool
# job). Skips cleanly on hosts with fewer than 4 cores.
serveshard: build
	scripts/serveshard.sh

# benchsmoke is the fast CI pass over the measurement tooling: the device
# (HashMedia dense-ref vs sparse, the pooled device life cycle, and the B/op
# of checkpoint/restore over an all-dirty and an all-clean cache included),
# allocator, engine (mark, summary, epoch cycle, barrier resolve), the Echo
# store's batched read (B/op), serving dispatcher (ns and B per request) and
# crash-campaign (ms and B per batch and serving trial) micro-benchmarks run
# once each (-benchtime=1x), and the
# bench CLI runs a tiny fig5 with -json — the record the two scaling scripts
# read.
benchsmoke: build
	$(GO) test -run XXX -bench . -benchtime=1x -benchmem ./internal/pmem/ ./internal/alloc/ ./internal/core/ ./internal/kv/ ./internal/redisws/
	$(GO) test -run XXX -bench CampaignTrial -benchtime=1x -benchmem ./internal/faultinject/
	$(GO) run ./cmd/ffccd-bench -experiment fig5 -scale 0.0005 -json /tmp/ffccd_benchsmoke.json >/dev/null
	@echo "benchsmoke OK"

# benchrepo runs the repo benchmark (BENCHMARK.json, bench/) at about 1/20
# size: all seven workloads and the ladder, every output check on, < 30 s. It
# judges nothing — it only keeps `go run ./bench` from rotting unnoticed when
# the program under it changes.
benchrepo: build
	$(GO) run ./bench -smoke >/dev/null
	@echo "benchrepo OK"

# servesmoke is the fast CI pass over the open-loop serving layer: a tiny
# serving grid of every serving scheme (2 000 keys, 12 000 ops) through
# ffccd-bench (exercising the virtual-time scheduler, batched dispatch, and
# the SLO table), the closed-loop Figure 16 run, which builds the same serving
# machines and scheme hooks and adds its Mesh comparator, plus the
# dispatcher's shape test from the test suite.
servesmoke: build
	$(GO) run ./cmd/ffccd-bench -experiment serving -scale 0.0001 >/dev/null
	$(GO) run ./cmd/ffccd-bench -experiment fig16 -scale 0.0005 >/dev/null
	$(GO) test ./internal/redisws/ -run 'TestServeShape' >/dev/null
	@echo "servesmoke OK"

clean:
	rm -f ffccd.test
