package predplace

import (
	"container/list"
	"strings"
	"sync"

	"predplace/internal/optimizer"
	"predplace/internal/plan"
	"predplace/internal/sqlparse"
)

// DefaultPlanCacheSize is the plan cache's entry bound when
// Config.PlanCacheSize is 0.
const DefaultPlanCacheSize = 64

// planKey identifies one cached plan. Two lookups share an entry only when
// they would plan identically: same normalized SQL text, same placement
// algorithm, the same settings of every knob the optimizer consults
// (caching, transfer, feedback, Robust's e), and the same catalog version
// (schema, statistics, and data as of planning). ORDER BY and LIMIT are part
// of the SQL text, not knobs. Execution-only knobs — budget,
// parallelism, batch size, timeout, profiling — are deliberately absent:
// they never change the chosen plan, and keying on them would fragment the
// cache.
type planKey struct {
	sql      string
	algo     Algorithm
	caching  bool
	transfer bool
	// feedback and robustE are planning-affecting: the feedback overlay
	// changes the selectivities the optimizer sees, and the Robust
	// algorithm's plan depends on its error-interval half-width.
	feedback bool
	robustE  float64
	catVer   int64
}

// normalizeSQL collapses runs of whitespace so trivially reformatted
// statements share a cache entry. It deliberately stops there: SQL string
// literals are case- and space-significant, so anything smarter than
// whitespace folding risks conflating distinct queries.
func normalizeSQL(sql string) string {
	return strings.Join(strings.Fields(sql), " ")
}

// planEntry is one prepared plan, cached or not. The plan tree, bound
// statement, and planner info are all immutable after planning (the executor
// keys its per-query mutable state by node pointer inside its own Env), so
// any number of concurrent executions may share one entry — and the plan's
// text, which is rendered when the first of them asks for it, not at Prepare.
type planEntry struct {
	key   planKey
	root  plan.Node
	bound *sqlparse.Bound
	info  *optimizer.Info
	elem  *list.Element

	render   sync.Once
	rendered string
}

// text is the plan as EXPLAIN prints it and Result.Plan carries it.
func (e *planEntry) text() string {
	e.render.Do(func() { e.rendered = plan.Render(e.root) + robustSummary(e.info) })
	return e.rendered
}

// planCache is an LRU cache of prepared plans shared by every session on
// one DB. Hits skip parse, bind, and optimization entirely.
type planCache struct {
	mu      sync.Mutex
	max     int
	entries map[planKey]*planEntry
	lru     *list.List // front = most recently used; holds *planEntry

	hits      int64
	misses    int64
	evictions int64
}

// newPlanCache creates a cache bounded to max entries (max < 1 returns nil:
// plan caching disabled).
func newPlanCache(max int) *planCache {
	if max < 1 {
		return nil
	}
	return &planCache{
		max:     max,
		entries: make(map[planKey]*planEntry, max),
		lru:     list.New(),
	}
}

// get returns the cached entry for key, if any, refreshing its recency.
func (c *planCache) get(key planKey) (*planEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(e.elem)
	return e, true
}

// put inserts e, evicting the least recently used entry when full. A
// concurrent insert of the same key wins by arrival: the second insert
// replaces the first (the plans are equivalent — same key, same inputs).
func (c *planCache) put(e *planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[e.key]; ok {
		c.lru.Remove(old.elem)
		delete(c.entries, e.key)
	}
	for len(c.entries) >= c.max {
		back := c.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*planEntry)
		c.lru.Remove(back)
		delete(c.entries, victim.key)
		c.evictions++
	}
	e.elem = c.lru.PushFront(e)
	c.entries[e.key] = e
}

// stats snapshots the cache counters and current size.
func (c *planCache) stats() (hits, misses, evictions int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, len(c.entries)
}

// PlanCacheStats reports the shared plan cache's lifetime counters: lookup
// hits (plans reused without parsing or optimizing), misses, LRU evictions,
// and the current entry count. All zeros when plan caching is disabled.
func (d *DB) PlanCacheStats() (hits, misses, evictions int64, entries int) {
	if d.plans == nil {
		return 0, 0, 0, 0
	}
	return d.plans.stats()
}
