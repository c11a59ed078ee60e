package main

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"predplace"
)

// The sandbox's speed changes under the benchmark: the same binary's wall
// times move by 10-25 % between runs, in phases of seconds to minutes, and
// the whole machine was 25 % slower in one hour of the calibration than in
// another. So that two runs of one commit can be compared at all, every timed
// pass measures the machine as it goes. Between operations each client runs
// a small fixed reference kernel — register arithmetic, a pointer chase
// through 64 MB, and row materialization with a map build, the three kinds of
// work the engine does — and the pass's speed factor is how long those took
// relative to nominal times fixed below. setup_s, ops_per_s and op_ms_p50 are
// reported at reference speed: wall time divided by the factor. In ten
// interleaved runs per workload this cut the run-to-run spread of ops_per_s
// from 11/7.6/7.4/13 % to 7/2.6/2.8/2.8 % (figures_scan, plan_only,
// nl_cache, server_mix). The factor itself is reported as
// runtime.speed_factor; raw times are in result.json beside the scaled ones.

const (
	aluIters   = 400_000
	chaseSteps = 4_000
	chaseSlots = 16 << 20 // x 4 bytes = 64 MB, far beyond the last-level cache
	refRows    = 3_000
	// refGap is the least time between two reference units of one client. A
	// unit takes about 1.6 ms, so the kernel costs at most 4 % of a pass.
	refGap = 40 * time.Millisecond
)

// refNominalNs are the three parts' times on the reference machine: this
// sandbox's medians when the benchmark was defined. Only ratios to them
// matter.
var refNominalNs = [3]float64{497_000, 805_000, 319_000}

var (
	chaseOnce sync.Once
	chaseBuf  []uint32
)

// chaseInit builds one cycle through every slot (Sattolo's algorithm), so
// that each load depends on the one before and misses the caches.
func chaseInit() {
	chaseBuf = make([]uint32, chaseSlots)
	for i := range chaseBuf {
		chaseBuf[i] = uint32(i)
	}
	x := uint64(99)
	for i := chaseSlots - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i))
		chaseBuf[i], chaseBuf[j] = chaseBuf[j], chaseBuf[i]
	}
}

// refSample is one unit's three part times in ns.
type refSample [3]float64

// refMeter runs reference units for one client. Its sinks keep the compiler
// from removing the work.
type refMeter struct {
	last    time.Time
	samples []refSample
	busyNs  int64
	x       uint64
	pos     uint32
	rows    [][]predplace.Value
}

func newRefMeter(client int) *refMeter {
	chaseOnce.Do(chaseInit)
	m := &refMeter{x: uint64(client)*2 + 1, pos: uint32(client) * 7919}
	m.unit() // so that even a pass shorter than refGap has a reading
	m.busyNs = 0
	return m
}

// tick runs a unit if the last one is older than refGap.
func (m *refMeter) tick() {
	if time.Since(m.last) >= refGap {
		m.unit()
	}
}

func (m *refMeter) unit() {
	t0 := time.Now()
	x := m.x
	for i := 0; i < aluIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	m.x = x | 1
	t1 := time.Now()
	p := m.pos
	for i := 0; i < chaseSteps; i++ {
		p = chaseBuf[p]
	}
	m.pos = p
	t2 := time.Now()
	// What a scan feeding a hash join does: a slice of Values per row, a
	// map entry per key, then a probe of every key.
	rows := make([][]predplace.Value, 0, refRows)
	built := make(map[int64][]predplace.Value, refRows)
	for i := 0; i < refRows; i++ {
		row := make([]predplace.Value, 8)
		for c := range row {
			row[c] = predplace.Int(int64(i*7 + c))
		}
		row[7] = predplace.Str("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
		rows = append(rows, row)
		built[int64(i)*2654435761%100003] = row
	}
	for i := 0; i < refRows; i++ {
		if r, ok := built[int64(i)*2654435761%100003]; ok {
			m.x += uint64(r[3].I)
		}
	}
	m.rows = rows
	t3 := time.Now()
	m.samples = append(m.samples, refSample{
		float64(t1.Sub(t0).Nanoseconds()), float64(t2.Sub(t1).Nanoseconds()), float64(t3.Sub(t2).Nanoseconds()),
	})
	m.busyNs += t3.Sub(t0).Nanoseconds()
	m.last = t3
}

// speedFactor is how slow the machine ran relative to the reference: the
// mean over the three parts of median time / nominal time. A wall time
// divided by it is the time on the reference machine.
func speedFactor(samples []refSample) float64 {
	var f float64
	col := make([]float64, len(samples))
	for k, nominal := range refNominalNs {
		for i, s := range samples {
			col[i] = s[k]
		}
		sort.Float64s(col)
		f += col[len(col)/2] / nominal / float64(len(refNominalNs))
	}
	return f
}

// refAlloc is what one unit allocates, in bytes and in objects, measured
// once, so that a pass can keep the kernel out of alloc_mb_per_op and
// runtime.allocs_per_op.
var refAlloc = sync.OnceValues(func() (bytes, mallocs uint64) {
	m := newRefMeter(0)
	const units = 8
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < units; i++ {
		m.unit()
	}
	runtime.ReadMemStats(&b)
	return (b.TotalAlloc - a.TotalAlloc) / units, (b.Mallocs - a.Mallocs) / units
})
