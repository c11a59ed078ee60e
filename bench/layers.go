package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"predplace"
	"predplace/internal/catalog"
	"predplace/internal/datagen"
	"predplace/internal/expr"
	"predplace/internal/optimizer"
	"predplace/internal/pcache"
	"predplace/internal/sqlparse"
	"predplace/internal/storage"
)

// traced is a workload's per-layer result: the traced pass plus the probes.
type traced struct {
	Metrics   map[string]float64 `json:"metrics"`
	Samples   int                `json:"samples"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failure   string             `json:"failure,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// serialSample is how many requests of the stream server_mix's serial
// layer passes run.
const serialSample = 1000

// runTraced is the --trace 1 flow. A quarter of dur runs untraced to give
// the base the tracing overhead is measured against; the rest runs with the
// benchmark's spans on and Config.Profile set. Then come the serial layer
// passes (server_mix) and the fixed-count layer probes.
func runTraced(w *workload, e *env, dur time.Duration, outDir string) (*traced, error) {
	inst, _, err := timedOpen(w, e)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()
	clients, maxOps, err := ready(inst, w, e)
	if err != nil {
		return nil, err
	}
	base := runPass(inst, clients, dur/4, maxOps, nil, nil)

	tr, acc := newTracer(), newLayerAcc()
	var srv0 predplace.ServerStats
	mix, isMix := inst.(*serverMix)
	if isMix {
		srv0 = mix.srv.Stats()
	}
	inst.db().SetProfile(true)
	runtime.GC()
	p := runPass(inst, clients, dur-dur/4, maxOps, tr, acc)
	inst.db().SetProfile(false)

	n := float64(p.ops)
	m := map[string]float64{}
	var opNs, sumOpMs float64
	for _, s := range tr.spans {
		if s.Name == "op" {
			opNs += float64(s.EndNs - s.StartNs)
		}
	}
	for _, ms := range p.opMs {
		sumOpMs += ms
	}
	self := selfTimes(tr.spans)
	benchNs := float64(self["op"] + self["bench.verify"] + self["bench.decode"])

	m["plancache.hit_rate"] = ratio(float64(p.planHits), float64(p.planHits+p.planMisses))
	m["plancache.evictions_per_op"] = float64(p.planEvictions) / n
	m["runtime.allocs_per_op"] = float64(p.mallocs) / n
	m["runtime.gc_cpu_share"] = p.gcCPU
	m["runtime.speed_factor"] = p.speed
	m["trace.overhead_ratio"] = ratio(percentile(p.opMs, 50), percentile(base.opMs, 50))
	m["trace.spans_per_op"] = float64(len(tr.spans)) / n
	// The tail comes from the untraced quarter. p99 needs ten samples beyond
	// it: only server_mix has them.
	m["tail.op_ms_p90"] = percentile(base.opMs, 90)
	if base.ops >= 1000 {
		m["tail.op_ms_p99"] = percentile(base.opMs, 99)
	}

	failed := base.failed + p.failed
	if isMix {
		srv1 := mix.srv.Stats()
		m["server.shed_share"] = float64(srv1.Shed-srv0.Shed) / n
		m["server.dnf_share"] = float64(srv1.DNF-srv0.DNF) / n
		m["httpserver.resp_kb_per_op"] = float64(acc.respBytes) / n / 1024
		// The HTTP responses carry no profile, so the layers below the
		// handler are measured on a serial sample of the same stream.
		accounted, err := mix.serialLayers(m)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		m["trace.accounted_share"] = accounted
	} else {
		execMetrics(m, acc, n)
		m["optimizer.plan_share"] = ratio(float64(acc.prepareNs)/1e6, sumOpMs)
		layerNs := float64(acc.fold.totalSelfNs()+(acc.execNs-acc.fold.rootNs)) + float64(acc.prepareNs)
		m["trace.accounted_share"] = ratio(layerNs+benchNs, opNs)
	}

	if err := probes(inst, e, m); err != nil {
		return nil, fmt.Errorf("%s: probes: %w", w.name, err)
	}
	for _, s := range perLayer {
		if _, ok := m[s.Name]; !ok {
			m[s.Name] = 0 // a layer this workload does not reach
		}
	}
	out := &traced{Metrics: m, Samples: p.ops, Attempted: base.ops + p.ops, Failed: failed, Failure: inst.failure()}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		out.TraceFile = filepath.Join(outDir, "trace-"+w.name+".json")
		if err := tr.write(out.TraceFile); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// execMetrics turns the accumulated Result.Stats and Result.Profile trees
// into the exec, storage-count and pcache-count metrics, per operation.
func execMetrics(m map[string]float64, acc *layerAcc, n float64) {
	f := acc.fold
	m["exec.run_ms"] = float64(acc.execNs) / n / 1e6
	for _, k := range opKinds {
		m["exec.self_ms."+k] = float64(f.selfNs[k]) / n / 1e6
	}
	m["exec.finish_ms"] = float64(acc.execNs-f.rootNs) / n / 1e6
	m["exec.rows_in_per_row_out"] = ratio(float64(f.rowsIn), float64(f.rowsOut))
	m["exec.pred_evals_per_op"] = float64(f.predEvals) / n
	m["exec.udf_invocations_per_op"] = float64(f.udfCalls) / n
	m["exec.batches_per_op"] = float64(f.batches) / n
	m["storage.seq_reads_per_op"] = float64(acc.seqReads) / n
	m["storage.rand_reads_per_op"] = float64(acc.randReads) / n
	m["pcache.hit_rate"] = ratio(float64(acc.cacheHits), float64(acc.cacheHits+acc.cacheMiss))
	m["pcache.entries_per_op"] = float64(acc.cacheEnts) / n
}

// serialLayers runs a sample of the stream serially: once through
// DB.Prepare + Exec with profiling on, for the planner's share and the
// executor's break-down, and once through DB.Query, Server.Query and HTTP,
// whose differences are what admission and the HTTP layer add. It returns
// the share of the profiled pass's time that the named layers account for.
func (m *serverMix) serialLayers(out map[string]float64) (float64, error) {
	sample := make([]int, min(serialSample, len(m.reqs)))
	for i := range sample {
		sample[i] = i
	}
	acc := newLayerAcc()
	m.database.SetProfile(true)
	for _, i := range sample {
		sql := m.reqs[i].sql
		t0 := time.Now()
		ps, err := m.database.Prepare(sql, predplace.Migration)
		acc.addPrepare(time.Since(t0).Nanoseconds())
		if err != nil {
			return 0, err
		}
		t0 = time.Now()
		res, err := ps.Exec()
		if err != nil {
			return 0, err
		}
		acc.addExec(time.Since(t0).Nanoseconds(), res)
	}
	m.database.SetProfile(false)
	n := float64(len(sample))
	execMetrics(out, acc, n)
	out["optimizer.plan_share"] = ratio(float64(acc.prepareNs), float64(acc.prepareNs+acc.execNs))

	db, server, http, err := m.serialTimes(sample)
	if err != nil {
		return 0, fmt.Errorf("serial pass: %w", err)
	}
	// Paired medians: the same request through two entry points, so that the
	// heavy requests' own variance cancels out of the difference.
	diff := func(a, b []float64) float64 {
		d := make([]float64, len(a))
		for i := range a {
			d[i] = a[i] - b[i]
		}
		return median(d) / 1e3
	}
	out["server.admit_us"] = diff(server, db)
	out["httpserver.overhead_us"] = diff(http, server)
	layerNs := acc.prepareNs + acc.fold.totalSelfNs() + (acc.execNs - acc.fold.rootNs)
	return ratio(float64(layerNs), float64(acc.prepareNs+acc.execNs)), nil
}

// timeNs runs f in `batches` batches of `calls` calls and returns the
// median batch's time per call in nanoseconds.
func timeNs(batches, calls int, f func(i int)) float64 {
	per := make([]float64, batches)
	i := 0
	for b := range per {
		t0 := time.Now()
		for c := 0; c < calls; c++ {
			f(i)
			i++
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(calls)
	}
	return median(per)
}

// probes time fixed numbers of calls into single layers on the workload's
// own database (or, where the facade hides the object, on a database built
// the same way at the workload's scale).
func probes(inst instance, e *env, m map[string]float64) error {
	batches, calls := 5, 2000
	if e.quick {
		batches, calls = 1, 50
	}
	cat := inst.db().Catalog()
	if err := planProbes(inst, cat, m, batches); err != nil {
		return err
	}

	// plancache: Prepare of a statement never seen before, then again.
	var hit, miss []float64
	for i := 0; i < batches*20; i++ {
		sql := fmt.Sprintf("SELECT * FROM t10 WHERE t10.a1 = %d", 1<<40+i)
		t0 := time.Now()
		if _, err := inst.db().Prepare(sql, predplace.Migration); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := inst.db().Prepare(sql, predplace.Migration); err != nil {
			return err
		}
		miss = append(miss, float64(t1.Sub(t0).Nanoseconds())/1e3)
		hit = append(hit, float64(time.Since(t1).Nanoseconds())/1e3)
	}
	m["plancache.prepare_miss_us"] = median(miss)
	m["plancache.prepare_hit_us"] = median(hit)

	t10, err := cat.Table("t10")
	if err != nil {
		return err
	}
	if err := storageProbes(t10.Card, m, batches, calls); err != nil {
		return err
	}

	// btree: the workload's own indexes, charged to a private accountant.
	var acct storage.Accountant
	a10 := t10.Indexes["a10"].WithAcct(&acct)
	keys := max(t10.Card/10, 1)
	probesDone := 0
	m["btree.probe_ns"] = timeNs(batches, calls, func(i int) {
		a10.Probe(int64(mix64(uint64(i)) % uint64(keys)))
		probesDone++
	})
	m["btree.leaf_reads_per_probe"] = float64(acct.Stats().RandReads) / float64(probesDone)
	a1 := t10.Indexes["a1"].WithAcct(&acct)
	span := min(t10.Card, 1000)
	m["btree.range_ns_per_entry"] = timeNs(batches, max(calls/100, 1), func(i int) {
		lo := int64(mix64(uint64(i)) % uint64(max(t10.Card-span, 1)))
		it := a1.Range(lo, lo+span-1)
		for _, ok := it.Next(); ok; _, ok = it.Next() {
		}
	}) / float64(span)

	pcacheProbes(m, batches, calls)
	return nil
}

// planProbes time sqlparse.Parse, Binder.Bind and Optimizer.Plan per
// placement algorithm on the workload's own statements, one call each.
func planProbes(inst instance, cat *catalog.Catalog, m map[string]float64, batches int) error {
	sqls := inst.probeSQL()
	var parse, bind []float64
	plan := make([][]float64, len(planAlgos))
	for b := 0; b < batches; b++ {
		var parseNs, bindNs int64
		planNs := make([]int64, len(planAlgos))
		for _, sql := range sqls {
			t0 := time.Now()
			stmt, err := sqlparse.Parse(sql)
			t1 := time.Now()
			if err != nil {
				return err
			}
			bound, err := (&sqlparse.Binder{Cat: cat}).Bind(stmt)
			t2 := time.Now()
			if err != nil {
				return err
			}
			parseNs += t1.Sub(t0).Nanoseconds()
			bindNs += t2.Sub(t1).Nanoseconds()
			for a, pa := range planAlgos {
				t0 := time.Now()
				_, _, err := optimizer.New(cat, optimizer.Options{Algorithm: pa.algo}).Plan(bound.Query)
				planNs[a] += time.Since(t0).Nanoseconds()
				if err != nil {
					return err
				}
			}
		}
		n := float64(len(sqls)) * 1e3
		parse = append(parse, float64(parseNs)/n)
		bind = append(bind, float64(bindNs)/n)
		for a := range planAlgos {
			plan[a] = append(plan[a], float64(planNs[a])/n)
		}
	}
	m["sqlparse.parse_us"] = median(parse)
	m["sqlparse.bind_us"] = median(bind)
	for a, pa := range planAlgos {
		m["optimizer.plan_us."+pa.suffix] = median(plan[a])
	}
	return nil
}

// storageProbes build t10 alone at the workload's cardinality with a pool
// an eighth of its pages (the facade does not expose its pool), and time the
// heap scan, pool hits and misses, random record fetches and the row codec.
func storageProbes(card int64, m map[string]float64, batches, calls int) error {
	scale := float64(card) / (10 * datagen.BaseCard)
	perPage := int64((storage.PageSize - 8) / (100 + 4))
	pool := int(max(card/perPage/8, 8))
	t0 := time.Now()
	db, err := datagen.Build(datagen.Config{Scale: scale, Tables: []int{10}, PoolPages: pool})
	if err != nil {
		return err
	}
	build := time.Since(t0).Seconds()
	m["datagen.build_s"] = build
	m["datagen.rows_per_s"] = float64(card) / build
	tab, err := db.Cat.Table("t10")
	if err != nil {
		return err
	}

	var (
		recs [][]byte
		tids []storage.TID
	)
	scan := func(keep bool) (int, error) {
		it := tab.Heap.Scan()
		defer it.Close()
		rows := 0
		for {
			rec, tid, ok, err := it.NextRef()
			if err != nil || !ok {
				return rows, err
			}
			if keep && rows%17 == 0 && len(recs) < 4096 {
				recs = append(recs, append([]byte(nil), rec...))
			}
			if keep && rows%5 == 0 {
				tids = append(tids, tid)
			}
			rows++
		}
	}
	if _, err := scan(true); err != nil {
		return err
	}
	var scanErr error
	scanNs := timeNs(batches, 1, func(int) {
		if _, err := scan(false); err != nil {
			scanErr = err
		}
	})
	if scanErr != nil {
		return scanErr
	}
	m["storage.scan_rows_per_s"] = float64(card) / (scanNs / 1e9)

	file, pages := tab.Heap.FileID(), tab.Heap.NumPages()
	var fetchErr error
	fetch := func(p int) {
		if _, err := db.Pool.Fetch(file, storage.PageID(p)); err != nil {
			fetchErr = err
			return
		}
		db.Pool.Unpin(file, storage.PageID(p), false)
	}
	fetch(0)
	m["storage.fetch_hit_ns"] = timeNs(batches, calls, func(int) { fetch(0) })
	// Cycling through more pages than the pool holds defeats LRU: all misses.
	m["storage.fetch_miss_ns"] = timeNs(batches, calls, func(i int) { fetch(i % pages) })
	if fetchErr != nil {
		return fetchErr
	}

	db.Pool.ResetCounters()
	var getErr error
	m["storage.get_rand_ns"] = timeNs(batches, calls, func(i int) {
		if _, err := tab.Heap.Get(tids[mix64(uint64(i))%uint64(len(tids))]); err != nil {
			getErr = err
		}
	})
	if getErr != nil {
		return getErr
	}
	hits, misses := db.Pool.HitRate()
	m["storage.pool_hit_rate"] = ratio(float64(hits), float64(hits+misses))

	var rows []expr.Row
	var codecErr error
	m["catalog.decode_ns_per_row"] = timeNs(batches, calls, func(i int) {
		row, err := tab.Codec.Decode(recs[i%len(recs)])
		if err != nil {
			codecErr = err
		}
		if len(rows) < 256 {
			rows = append(rows, row)
		}
	})
	m["catalog.encode_ns_per_row"] = timeNs(batches, calls, func(i int) {
		if _, err := tab.Codec.Encode(rows[i%len(rows)]); err != nil {
			codecErr = err
		}
	})
	return codecErr
}

// pcacheProbes time the predicate cache's single-key and batched paths on a
// table of 4096 one-argument bindings.
func pcacheProbes(m map[string]float64, batches, calls int) {
	const entries = 4096
	keys := make([]string, entries)
	raw := make([][]byte, entries)
	for i := range keys {
		keys[i] = pcache.Key([]expr.Value{expr.I(int64(i))})
		raw[i] = []byte(keys[i])
	}
	mgr := pcache.NewManager(true, 0)
	owner := mgr.Owner(1, "costly100")
	m["pcache.store_ns"] = timeNs(batches, entries, func(i int) {
		if i%entries == 0 {
			mgr.Reset() // every batch stores into an empty table
		}
		mgr.Store(owner, keys[i%entries], expr.B(i%2 == 0))
	})
	m["pcache.lookup_hit_ns"] = timeNs(batches, calls, func(i int) { mgr.Lookup(owner, keys[i%entries]) })
	const batch = 256
	out := make([]pcache.BatchEntry, batch)
	m["pcache.getbatch_ns_per_key"] = timeNs(batches, max(calls/batch, 1), func(i int) {
		lo := i * batch % entries
		mgr.GetBatch(owner, raw[lo:lo+batch], out)
	}) / batch
}
