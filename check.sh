#!/bin/sh
# check.sh — the repository's full verification gate. Tier-1 CI runs
# `go build ./... && go test ./...`; this script is the stricter local/CI
# superset: vet (its copylocks check holds typed atomics to their words),
# the project's own static analyzers (pplint, run once over the whole
# module), the build, and the full test suite under the race detector. It
# writes no files unless the fuzz smoke finds a crasher.
set -e

echo "==> gofmt -l ."
unformatted="$(gofmt -l .)"
test -z "$unformatted" || { echo "$unformatted"; exit 1; }

echo "==> go vet ./..."
go vet ./...

echo "==> go run ./cmd/pplint ./..."
# One run: every analyzer and the suppression audit over every package of
# the module, internal/lint's own source included.
go run ./cmd/pplint ./...

echo "==> storage accounting gate (pins released, shard locks released, each transfer charged once, failed I/O never)"
# Also part of the full test run below; named here so that a buffer-pool
# path that leaves a frame pinned or its shard locked (a bounded wait names
# the test within seconds), a physical read or write charged twice, or a
# failed one charged at all, fails under this heading. DESIGN.md §15 lists
# the mutations each of these tests catches.
go test -race -count=1 -run '^(TestFaultWriteNth|TestFaultNotCharged|TestBufferPoolAllPinnedError|TestBufferPoolSingleflightFault|TestFaultScanUnpinsOnError|TestDeadSlotReleasesPin|TestBufferPoolEviction)$' ./internal/storage

echo "==> planner gates (plan-identity corpus, annotation property, allocation budgets, scratch reuse, Robust's reduced ÷e scaling and its scalings under race)"
# Also part of the full test run below; named here so that a planner change
# which alters a plan (testdata/plans.golden), leaves a stale estimate or an
# unfilled column list on a returned plan, lets a plan_only planning allocate
# 10 % more, gives a losing DP candidate or a migration pass heap of its own,
# lets Robust score one operator tree twice, write a predicate's estimates,
# choose other than the full four-algorithm spectrum at ÷e would (plan,
# nominal cost or worst case, at six interval widths), or plan differently
# when its scalings' goroutines share one processor (the Robust legs of the
# corpus at GOMAXPROCS=1) fails under this heading, not somewhere inside
# `go test ./...`. The allocation tests skip
# themselves under -race (counts differ there); the race runs cover the
# candidate scratch and the migration state a planning reuses, the skeleton
# Robust's scalings share, and two Robust plannings of one query at once.
go test -count=1 -run '^(TestPlanCorpus|TestPlanCorpusRobustSerial|TestCorpusPlansCarryFullAnnotations|TestPlanAllocBudget|TestDPAllocatesForWhatItRetains|TestMigrationPassesRunInPlace|TestRobustCandidatesStructurallyDistinct|TestRobustLeavesPredicatesUntouched|TestRobustMatchesFullSpectrum)$' ./internal/optimizer
go test -race -count=1 -run '^(TestRobustConcurrentPlannings|TestPlanCorpusRobustSerial)$' ./internal/optimizer
go test -race -count=1 ./internal/optimizer

echo "==> row-memory gates (arena lifetime matrix, release on every exit, allocation budget)"
# Also part of the full test run below; named here so that a row that outlives
# its slab (the race build poisons every slab a pool rewinds or releases; the
# matrix covers every root shape of the result-row rule), a Run exit that
# keeps slabs, or a figure query that allocates more than half
# of what it did before the query arena fails under this heading. The budget
# test skips itself under -race (sync.Pool drops puts at random under the
# detector), so it gets a run of its own without.
go test -race -count=1 -run 'TestArena|TestFiguresAllocBudget' ./internal/exec
go test -count=1 -run '^TestFiguresAllocBudget$' ./internal/exec

echo "==> decode gate (who decodes late, thin rows never read unfinished, the codec under fuzz)"
# Also part of the full test run below; named here so that a scan Build lets
# decode late when its consumer reads whole rows (or the reverse) or sits
# across an exchange from it, a thin row's undecoded column read before the
# row is kept (the poison makes it a sentinel in the result), a
# fetched-then-rejected row that keeps its slot, a radix sort that reorders
# equal keys, or a decode entry point that indexes past a short record fails
# under this heading, and so does a nested loop whose in-place primary, thin
# rescanned or whole taped inner or once-made survivor pair changes its
# rows, charged cost, invocations or cache counts at any width or worker
# count (TestNLJoinMatrix).
# The fuzz smoke is bounded; a crasher it finds is written under
# internal/catalog/testdata/fuzz and becomes a committed seed.
go test -race -count=1 -run '^(TestArenaMatrix|TestThinScanStaysInItsSegment|TestRejectedFetchCarvesNothing|TestSortRowsByKeyMatchesReference|TestNLJoinMatrix)$' ./internal/exec
go test -count=1 -run '^(FuzzRowCodec|TestDecode.*)$' ./internal/catalog
go test -run '^$' -fuzz '^FuzzRowCodec$' -fuzztime 10s ./internal/catalog

echo "==> predicate-cache gate (one hash per binding, as-if-sequential batches, three-valued IN)"
# Also part of the full test run below; named here so that a cache table that
# loses or misplaces a binding (the backward-shift delete, the bounded FIFO
# ring), a batch that reports a hit, duplicate, count or eviction a row-at-a-
# time Lookup/Store loop would not, a GetBatch that allocates, an IN / NOT IN
# subquery that leaves SQL's three-valued logic or decodes every column of
# every record it scans, or a nested loop whose cached primary changes its
# rows, charged cost, invocations or cache counts fails under this heading —
# against its own width-1 run (TestNLJoinMatrix) and against the same
# predicate as a filter over the bare cross product, unbounded and bounded
# (TestNLCachedPrimaryMatchesFilter, whose inners include one under an
# expensive filter and keys at the int64 extremes, colliding under the hash,
# bool, and outgrowing the memo's first table), with an inner NULL kept apart
# from 0 at every width (TestNLMemoNullAndZero), or a memo whose value table
# loses or confuses a number, or whose outer halves share a verdict vector
# they should not (TestSweepMemoTable) — and so does a
# Query 5 execution that allocates more than 64 objects over what it did
# before the nested loop's sweep memo (TestNLSweepMemoAllocs, no -race:
# counts differ under the detector).
# The fuzz smoke is bounded; a crasher it finds is written under
# internal/pcache/testdata/fuzz and becomes a committed seed.
go test -race -count=1 ./internal/pcache
go test -race -count=1 -run '^(TestInSubquery.*|TestNLMemoNullAndZero)$' .
go test -count=1 -run '^TestNLSweepMemoAllocs$' .
go test -count=1 -run '^(TestNLJoinMatrix|TestNLCachedPrimaryMatchesFilter|TestSweepMemoTable)$' ./internal/exec
go test -run '^$' -fuzz '^FuzzBatchMatchesSequential$' -fuzztime 10s ./internal/pcache

echo "==> record-gate (a record one of its scan's gates drops is never a row and counts as the row would have; comparisons are typed)"
# Also part of the full test run below; named here so that a scan gate
# (DESIGN.md §12: transfer probe, absorbed record test, merge key set) that
# changes what its dropped records count fails under this heading: a filter
# a scan absorbs whose EXPLAIN ANALYZE actual= or predicate evaluations
# drift from what its own operator reported (recorded literals, every width
# and worker count, profiling on and off), a rejected record that carves a
# row, a comparison between two types that binds instead of failing, a
# record test that disagrees with op.Apply(DecodeCol(...)) or allocates, a
# merge join whose second side drops the keys its first side lacks that
# differs from the same plan with the gates withheld — rows, charged cost,
# invocations or an actual= — at Parallelism 1 or 3 (the exchange's parts
# under the race detector), drops other records than those, or drains its
# sides in another order than Build's rule says, and a nested loop whose
# cached primary — over an inner scan running a transfer probe and a record
# test among others — differs from the filter over the cross product or
# from the plan with the gates withheld. So does a nested loop that reads
# its inner heap scan once and walks it (sweepTape) and differs from the
# same plan rescanning it — rows, charged-cost bits, invocations, cache hits
# and misses or an actual=, or under a budget a run that stops more than
# three reads past it or makes other than a prefix of the full run's rows —
# cached (repeating and unique outer bindings, NULL and extreme outer
# arguments, NULL and bool inner values, outer arguments from two tables),
# uncached, bounded or a cross product, under absorbed filters and a
# transfer probe, over a pool the inner misses every sweep, at Parallelism
# 1 or 3, every width, profiling on and off (TestNLReplayMatchesRescan), or
# that leaves a frame pinned or a slab out after a read fault in its first
# sweep or any page of a walk (TestNLReplayFault). The alloc tests run without -race; the fuzz smoke is
# bounded and a crasher it finds is written under
# internal/catalog/testdata/fuzz.
go test -race -count=1 -run '^(TestAbsorbedFilterCounts|TestRejectedFetchCarvesNothing)$' ./internal/exec
go test -race -count=1 -run '^TestMergeJoinSideDrops$' ./internal/exec
go test -race -count=1 -run '^(TestNLCachedPrimaryMatchesFilter|TestSweepMemoTable)$' ./internal/exec
go test -race -count=1 -run '^(TestNLReplayMatchesRescan|TestNLReplayFault)$' ./internal/exec
go test -race -count=1 -run '^TestBindTypeMismatch$' . ./internal/sqlparse
go test -count=1 -run '^(TestColTestAllocFree|FuzzColTest)$' ./internal/catalog
go test -run '^$' -fuzz '^FuzzColTest$' -fuzztime 10s ./internal/catalog

echo "==> transfer-prepass gate (the prepass reads through the scan's gates in their order, and aborts cleanly)"
# Also part of the full test run below; named here so that a transfer
# prepass whose Bloom probes, adds, pruned count or invocations differ from
# the record-by-record reference kept in the test (a cheap comparison or the
# NULL-key gate run after the probes; TestTransferPrepassCounts), whose
# filter-build scan leaves a page pinned, a goroutine behind or a
# half-built filter after a read fault, or charges a budget it exceeds as
# anything but a DNF (TestFaultTransferPrepass), whose rows differ from the
# run without transfer or which charges or invokes more than it
# (TestRandomizedTransferAgreement), or whose experiment misses its shape
# checks (TestTransferPlacement) fails under this heading.
go test -race -count=1 -run '^TestTransferPrepassCounts$' ./internal/exec
go test -race -count=1 -run '^(TestFaultTransferPrepass|TestRandomizedTransferAgreement)$' .
go test -race -count=1 -run '^TestTransferPlacement$' ./internal/harness

echo "==> executor gates (recorded answers at every width, mixed-width pulls, deterministic IKKBZ)"
# Also part of the full test run below. A failure of the first command means
# an operator's rows, order, charged cost or invocation counts depend on the
# batch width (testdata/executor.golden holds the width-1 answers; its
# tight-pool merge-* legs also hold the order a merge join drains its sides
# in) or on the width changing between calls on one instance.
go test -race -count=1 -timeout 30m -run '^(TestExecutorGolden|TestOperatorsWidthSchedule)$' . ./internal/exec
# A failure here means LDL-IKKBZ breaks a rank tie by map iteration order
# again, and the golden above will flake with it.
go test -count=1 -run 'TestIKKBZDeterministic' ./internal/optimizer

echo "==> knob lattice (one contract row per execution knob, every option a row or a reasoned exclusion)"
# Also part of the full test run below. A failure of TestKnobLattice names the
# knob whose contract against its baseline broke — rows, charged cost,
# invocation counts — and prints a one-line reproducer; TestKnobCoverage fails
# when predplace.Config gains a per-statement field with no contract row, and
# TestSetOptions when SetOptions changes a field only Open reads, resolves a
# value otherwise than Open, or reaches a statement already running. The
# ppbench experiments (topk, transfer, esterror among them) are held to their
# shape checks by internal/harness's tests inside `go test -race ./...`.
go test -race -count=1 -run '^(TestKnobLattice|TestKnobCoverage|TestSetOptions)$' .

echo "==> row oracle (the executor's rows against the statement's definition, under race)"
# Also part of the full test run below; named here so that a result row that
# the executor gets wrong at every knob setting alike — which the knob
# lattice, comparing the executor with itself, cannot see — fails under this
# heading: 260 generated statements at scale 0.01 — 200 joins, of which at
# least 90 reach a merge join's key drops, 12 of Query 5's shape, 24
# ORDER BY … LIMIT statements, whose order is checked too, and 24 that plan
# an index access (at least 7 an IndexScan, 9 an IndexNestLoop; each Open's
# first one builds its tree) — each answered by a reference evaluator that
# decodes records off the simulated disk and takes the cross product, at
# Parallelism {1, 3} × BatchSize {1, 7, 256} × caching off/on.
go test -race -count=1 -run '^TestRowOracle$' .

echo "==> ORDER BY / LIMIT gate (the plan root against the in-test reference sort)"
# Also part of the full test run below; named here so that a broken sort
# order, a LIMIT that over-pulls (charges for rows it cuts off) or a plan
# under a Limit root that depends on the worker count fails under this
# heading, not somewhere inside `go test ./...`.
go test -race -count=1 -run '^(TestRandomizedTopKAgreement|TestOrderBy.*|TestTopKOrderedIndexPlan|TestFaultTopKMidFill)$' .

echo "==> exchange gate (parallel = serial, no worker left behind, no row outliving its slab under a worker pipeline)"
# Also part of the full test run below; named here so that a parallel/serial
# mismatch, a worker or a pinned page left behind by an abort, a budget DNF,
# a cancellation or an early Close, a worker's panic that is not raised again
# on the caller's goroutine (TestParallelWorkerPanicReachesCaller), or a row a
# worker's copy of a segment keeps past its slab fails under this heading.
go test -race -count=1 -run '^(TestParallel.*|TestBudgetAbortTeardownMatrix|TestCancelTeardownMatrix|TestDeadlineTeardownMatrix|TestArenaMatrix|TestArenaReleased)$' ./internal/exec

echo "==> request-path gates (response bytes, request-body bound, point-lookup allocation budgets, server admission, pool misses)"
# Also part of the full test run below; named here so that a POST /query body
# that differs by one byte from json.Encoder's over QueryResponse, an
# unbounded request body, a point lookup that goes back to allocating a
# slab per result row, a row trace without profiling, a predicate cache
# without caching or tracker frames for pool shards it never touches, or a
# buffer-pool miss that allocates fails under this heading. No -race: the
# point-lookup budgets skip themselves under the detector, like
# TestFiguresAllocBudget.
go test -count=1 -run '^(TestQueryResponseBytes|TestPointLookupAllocBudget|TestPointLookupAllocCount|TestServer.*)$' .
go test -count=1 -run '^TestFetchMissAllocFree$' ./internal/storage

echo "==> load gate (the loader against the per-tuple load, a deferred index built once on first use, the tree under fuzz)"
# Also part of the full test run below; named here so that a load that puts
# a record on another page or slot, leaves the pool with other resident pages
# (pins, dirty bits, LRU order), or a deferred B-tree that differs from the
# eagerly built one — node for node, in Probe/Range answers or in the leaf
# reads it charges — after its first probe, a post-load Insert or Delete, or
# an OpenFile round trip, fails under this heading; and so does a tree built
# twice, or read before its build, when goroutines or server sessions at
# Parallelism 3 probe it first at once (under the race detector). The fuzz
# smoke is bounded; a crasher it finds is written under
# internal/btree/testdata/fuzz and becomes a committed seed.
go test -count=1 -run '^(TestLoaderMatchesPerTupleLoad|TestAppender.*)$' ./internal/datagen ./internal/storage
go test -race -count=1 -run '^(TestDeferred.*|FuzzDeferredTree)$' ./internal/btree
go test -race -count=1 -run '^(TestFirstProbeConcurrentSessions|TestOpenFileDefersIndexes)$' .
go test -run '^$' -fuzz '^FuzzDeferredTree$' -fuzztime 10s ./internal/btree

echo "==> mutation gate (every recorded mutation still caught, race rows under -race, hang rows by timeout, within 180 s)"
# Each row of testdata/mutations.txt is a one-place change to a source file
# and the tests that must catch it; TestMutations applies it through
# `go test -overlay` (the tree is never written) and fails the row when none
# of its tests fails, or when its old text is no longer in the file. A row
# marked -race builds its tests with the race detector; one marked -hang
# passes when a 10 s test timeout finds one of its tests still running. 82
# rows name the smallest package whose test catches them, as the root
# package links the executor golden. The first two commands build, unmutated,
# every test binary the rows name (race builds for the packages of -race
# rows), so the -timeout budget covers the mutated builds only and not the
# dependencies they share with the tree. On 2 vCPUs of a shared machine, run
# alone from an empty build cache (GOCACHE emptied before each run): with 82
# rows, four runs, the two builds took 59, 66, 62 and 65 s and the gate's
# test binary 140, 151, 151 and 160 s, 20–40 s under the budget; the 79 rows
# before them read 142 s the same way between those runs (106–159 s on
# other days). Warm, the 82 rows take 82 s.
go test -count=1 -run '^$' $(awk -F'\t' '!/^#/ && NF >= 7 && $8 != "-race" {print $5}' testdata/mutations.txt | sort -u)
go test -race -count=1 -run '^$' $(awk -F'\t' '!/^#/ && NF >= 7 && $8 == "-race" {print $5}' testdata/mutations.txt | sort -u)
go test -count=1 -timeout 180s -run '^TestMutations$' .

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

echo "==> bench smoke (go test -bench 'Fig3|Fig9Query5|RequestPath|MergeJoinSort|NLJoinRescan|PcacheGetBatch' -benchtime 1x)"
go test -run '^$' -bench 'Fig3|Fig9Query5|RequestPath|MergeJoinSort|NLJoinRescan|PcacheGetBatch' -benchtime 1x . ./internal/exec ./internal/pcache

echo "OK"
