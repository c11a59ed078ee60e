package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"predplace"
)

// span is one timed call the benchmark made into a layer. Spans live in
// memory until the run ends; spans of one operation share Op, and Parent is
// the id of the span that caused this one (-1 for an operation's root).
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Op      int32  `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records spans. A nil *tracer is tracing turned off: begin and end
// return at once, so the untraced pass pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent, op int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNs: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// maxTraceSpans caps the spans written to a trace file (server_mix records
// several hundred thousand); the per-layer numbers use every span.
const maxTraceSpans = 50000

func (t *tracer) write(path string) error {
	spans := t.spans
	if len(spans) > maxTraceSpans {
		spans = spans[:maxTraceSpans]
	}
	data, err := json.Marshal(struct {
		Unit      string `json:"unit"`
		Total     int    `json:"spans_recorded"`
		Truncated bool   `json:"truncated"`
		Spans     []span `json:"spans"`
	}{"ns since trace start", len(t.spans), len(spans) < len(t.spans), spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes folds spans into self time per span name: a span's duration
// minus the part of its interval that its direct children cover (overlapping
// children are counted once).
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += (s.EndNs - s.StartNs) - coverage(children[s.ID], s.StartNs, s.EndNs)
	}
	return out
}

// coverage is the length of the union of the spans' intervals, clipped to
// [lo, hi].
func coverage(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })
	var covered int64
	at := lo
	for _, s := range spans {
		start, end := max(s.StartNs, at), min(s.EndNs, hi)
		if end > start {
			covered += end - start
			at = end
		}
	}
	return covered
}

// Operator kinds exec self time is reported under: the first word of
// plan.Node.Describe, lower-cased; anything else folds into "other".
var opKinds = []string{"seqscan", "indexscan", "filter", "hashjoin", "mergejoin", "nljoin", "indexnljoin", "other"}

func opKind(describe string) string {
	word, _, _ := strings.Cut(describe, " ")
	switch strings.TrimSuffix(word, "*") {
	case "SeqScan":
		return "seqscan"
	case "IndexScan":
		return "indexscan"
	case "Filter":
		return "filter"
	case "HashJoin":
		return "hashjoin"
	case "MergeJoin":
		return "mergejoin"
	case "NestLoop":
		return "nljoin"
	case "IndexNestLoop":
		return "indexnljoin"
	}
	return "other"
}

// execFold accumulates what Result.Profile trees say about the executor.
type execFold struct {
	selfNs    map[string]int64 // per operator kind
	rootNs    int64            // Σ root WallNs: time inside the operator tree
	rowsIn    int64            // Σ RowsIn over every node
	rowsOut   int64            // Σ root ActRows
	predEvals int64
	udfCalls  int64
	batches   int64
}

func newExecFold() *execFold { return &execFold{selfNs: make(map[string]int64)} }

// add folds one profile tree. An operator's self time is its inclusive wall
// time minus its children's; under intra-query parallelism children overlap
// their parent and each other, so the difference is clamped at zero.
func (f *execFold) add(root *predplace.OpProfile) {
	if root == nil {
		return
	}
	f.rootNs += root.WallNs
	f.rowsOut += root.ActRows
	var walk func(p *predplace.OpProfile)
	walk = func(p *predplace.OpProfile) {
		self := p.WallNs
		for _, c := range p.Children {
			self -= c.WallNs
			walk(c)
		}
		f.selfNs[opKind(p.Op)] += max(self, 0)
		f.rowsIn += p.RowsIn
		f.predEvals += p.PredEvals
		f.udfCalls += p.Invocations
		f.batches += p.Batches
	}
	walk(root)
}

func (f *execFold) totalSelfNs() int64 {
	var sum int64
	for _, ns := range f.selfNs {
		sum += ns
	}
	return sum
}
