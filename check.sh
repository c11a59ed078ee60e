#!/bin/sh
# check.sh — the repository's full verification gate. Tier-1 CI runs
# `go build ./... && go test ./...`; this script is the stricter local/CI
# superset: vet, the project's own static analyzers (pplint), the build,
# and the full test suite under the race detector.
set -e

echo "==> gofmt -l ."
unformatted="$(gofmt -l .)"
test -z "$unformatted" || { echo "$unformatted"; exit 1; }

echo "==> go vet ./..."
go vet ./...

echo "==> go run ./cmd/pplint ./..."
go run ./cmd/pplint ./...

echo "==> pplint dataflow analyzers (pinbalance, chargeonce, atomicconsistency, lockbalance, suppress)"
# The full run above already includes these; this explicit pass pins the
# CFG/dataflow analyzers and the suppression audit as a named gate (and is
# what CI should quote on failure). The second invocation self-cleans the
# lint package: the analyzers must pass over their own implementation.
go run ./cmd/pplint -only pinbalance,chargeonce,atomicconsistency,lockbalance,suppress ./...
go run ./cmd/pplint ./internal/lint

echo "==> planner gates (plan-identity corpus, annotation property, allocation budget)"
# Also part of the full test run below; named here so that a planner change
# which alters a plan (testdata/plans.golden), leaves a stale estimate or an
# unfilled column list on a returned plan, or doubles planning allocations
# fails under this heading, not somewhere inside `go test ./...`.
go test -count=1 -run '^(TestPlanCorpus|TestCorpusPlansCarryFullAnnotations|TestPlanAllocBudget)$' ./internal/optimizer

echo "==> row-memory gates (arena lifetime matrix, release on every exit, allocation budget)"
# Also part of the full test run below; named here so that a row that outlives
# its slab (the race build poisons every slab a pool rewinds or releases), a
# Run exit that keeps slabs, or a figure query that allocates more than half
# of what it did before the query arena fails under this heading. The budget
# test skips itself under -race (sync.Pool drops puts at random under the
# detector), so it gets a run of its own without.
go test -race -count=1 -run 'TestArena|TestFiguresAllocBudget' ./internal/exec
go test -count=1 -run '^TestFiguresAllocBudget$' ./internal/exec

echo "==> executor gates (recorded answers at every width, mixed-width pulls, deterministic IKKBZ)"
# Also part of the full test run below. A failure of the first command means
# an operator's rows, order, charged cost or invocation counts depend on the
# batch width (testdata/executor.golden holds the width-1 answers) or on the
# width changing between calls on one instance.
go test -race -count=1 -timeout 30m -run '^(TestExecutorGolden|TestOperatorsWidthSchedule)$' . ./internal/exec
# A failure here means LDL-IKKBZ breaks a rank tie by map iteration order
# again, and the golden above will flake with it.
go test -count=1 -run 'TestIKKBZDeterministic' ./internal/optimizer

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
# The root package replays testdata/executor.golden (8 400 queries, several
# minutes under the detector): past the default 10 m on a loaded machine.
go test -race -timeout 30m ./...

echo "==> benchmark module (cd bench && go vet . && go test .)"
# bench/ is a module of its own (so ./... above never compiles it) and calls
# internal/ packages directly; a signature change there must fail this gate.
(cd bench && go vet . && go test .)

echo "==> bench smoke (go test -bench Fig3 -benchtime 1x)"
go test -run '^$' -bench Fig3 -benchtime 1x .

echo "==> parallel-executor gate (ppbench -parallel)"
# Runs Queries 1-5 serially and with 4-way parallelism on one database;
# exits nonzero if the parallel executor's result sets or charged cost
# (caching off) diverge from serial.
go run ./cmd/ppbench -parallel -workers 4 -iters 3 -json -scale 0.02

echo "==> batch-executor gate (ppbench -batch)"
# Runs Queries 1-5 at BatchSize 1 (one row per call), at the default width
# serially, and at the default width in parallel on one database; exits
# nonzero if result sets, row order (serial modes), or charged cost differ
# from the width-1 run.
go run ./cmd/ppbench -batch -workers 4 -iters 3 -json -scale 0.02

echo "==> fault/timeout gate (ppbench -faults)"
# Runs Queries 1-5 under deterministic injected read faults and aggressive
# deadlines across serial/parallel x tuple/batched configurations; exits
# nonzero if any run panics, hangs, silently truncates, returns an error not
# wrapping the injected fault, or leaks pinned frames/goroutines.
go run ./cmd/ppbench -faults -seeds 2 -workers 4 -scale 0.02

echo "==> profiling gate (ppbench -profile)"
# Runs Queries 1-5 plus the Figure 1 example, each unprofiled and then with
# per-operator profiling on; exits nonzero if profiling changes any result
# set or charged cost (profiling must be strictly observational).
go run ./cmd/ppbench -profile -json -scale 0.02

echo "==> predicate-transfer gate (ppbench -transfer)"
# Runs the join queries (3-5) with predicate transfer off and on across
# tuple/batched x serial/parallel configurations; exits nonzero if any
# transfer-on result set diverges from transfer-off.
go run ./cmd/ppbench -transfer -workers 4 -iters 3 -json -scale 0.02

echo "==> top-k gate (ppbench -topk)"
# Runs ORDER BY ... LIMIT k queries with top-k execution off and on across
# tuple/batched x serial/parallel configurations and k in {1,10,100,1000};
# exits nonzero if any top-k-on result diverges row-for-row from top-k-off
# or the ordered-index flagship at k=10 misses a 2x charged-cost reduction.
go run ./cmd/ppbench -topk -workers 4 -iters 3 -json -scale 0.02

echo "==> multi-session server gate (ppbench -server)"
# Runs the figure queries from 1/2/4/8 concurrent sessions against one DB
# behind the admission-controlled server, plus a shed probe (burst against a
# single slot with no queue) and a tenant-quota probe (DNF at the boundary,
# then rejection); exits nonzero if any concurrent result diverges from the
# serial baseline in rows or charged cost, the plan cache never hits, a shed
# query errors with anything but ErrOverloaded, or the quota sequence is
# wrong.
go run ./cmd/ppbench -server -sessions 1,2,4,8 -iters 3 -json -scale 0.02

echo "==> estimate-error/feedback gate (ppbench -feedback)"
# Sweeps injected estimate error (e in {1,2,4,8}, both directions) over a
# join-order-sensitive query under PushDown/Migration/Robust with feedback
# off, then closes the loop with feedback on; exits nonzero if any result
# multiset diverges, the algorithms disagree at e=1, Robust's worst-case
# charged cost loses at e>=4, or the feedback rerun fails to repair the
# misestimate in one refresh.
go run ./cmd/ppbench -feedback -json -scale 0.02

echo "OK"
