package predplace

// Server is the multi-session front door over one DB: it admits queries
// under a global worker budget, meters each tenant's cumulative charged
// cost against a quota, and sheds load gracefully when the machine is
// saturated instead of queueing without bound. The per-query machinery —
// private execution environments, knob snapshots, the shared plan cache —
// lives in DB; Server adds only the cross-query policy.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrOverloaded is returned when admission control sheds a query: every
// execution slot is busy and the queue is full, or the query waited longer
// than the configured queue wait. Shed queries consumed no execution
// resources; clients should back off and retry.
var ErrOverloaded = errors.New("predplace: server overloaded")

// ErrQuotaExceeded is returned when a tenant's cumulative charged cost has
// exhausted its quota. The query was not executed.
var ErrQuotaExceeded = errors.New("predplace: tenant quota exceeded")

// ServerConfig controls admission and shedding.
type ServerConfig struct {
	// MaxConcurrent bounds the number of queries executing at once — the
	// global worker budget (0 = GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds how many admitted-but-waiting queries may hold a
	// queue slot while every execution slot is busy. 0 uses the default of
	// 2×MaxConcurrent; negative disables queueing entirely, shedding the
	// moment no execution slot is free.
	MaxQueue int
	// QueueWait bounds how long a queued query waits for an execution slot
	// before it is shed (0 = 100ms).
	QueueWait time.Duration
}

// Server wraps a DB with admission control and per-tenant accounting. All
// methods are safe for concurrent use.
type Server struct {
	db *DB
	// slots is the execution-slot semaphore: a buffered channel holding one
	// token per running query.
	slots     chan struct{}
	maxQueue  int64
	queueWait time.Duration
	queued    atomic.Int64

	mu      sync.Mutex
	tenants map[string]*tenantState

	served        atomic.Int64
	shed          atomic.Int64
	quotaRejected atomic.Int64
	dnf           atomic.Int64
}

// tenantState meters one tenant's cumulative charged cost.
type tenantState struct {
	mu    sync.Mutex
	quota float64 // 0 = unlimited
	used  float64
}

// NewServer builds a server over db.
func NewServer(db *DB, cfg ServerConfig) *Server {
	slots := cfg.MaxConcurrent
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	queue := int64(cfg.MaxQueue)
	switch {
	case cfg.MaxQueue == 0:
		queue = int64(2 * slots)
	case cfg.MaxQueue < 0:
		queue = 0
	}
	wait := cfg.QueueWait
	if wait == 0 {
		wait = 100 * time.Millisecond
	}
	return &Server{
		db:        db,
		slots:     make(chan struct{}, slots),
		maxQueue:  queue,
		queueWait: wait,
		tenants:   map[string]*tenantState{},
	}
}

// DB returns the underlying database handle.
func (s *Server) DB() *DB { return s.db }

// SetTenantQuota sets a tenant's cumulative charged-cost quota (0 removes
// the limit; usage accounting continues either way). The quota is a budget
// over the tenant's whole query history on this server, the per-tenant
// lift of Config.Budget's per-query abort: a query that would run past the
// remaining quota is clamped to it and returns DNF, having used at most the
// bound of DESIGN.md §13 past it (one charge per worker; see Query), and
// once the quota is exhausted further queries are rejected with
// ErrQuotaExceeded.
func (s *Server) SetTenantQuota(tenant string, quota float64) {
	t := s.tenant(tenant)
	t.mu.Lock()
	t.quota = quota
	t.mu.Unlock()
}

// TenantUsage reports a tenant's cumulative charged cost and its quota
// (0 = unlimited).
func (s *Server) TenantUsage(tenant string) (used, quota float64) {
	t := s.tenant(tenant)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.used, t.quota
}

// tenant returns the tenant's state, creating it on first reference.
func (s *Server) tenant(name string) *tenantState {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[name]
	if !ok {
		t = &tenantState{}
		s.tenants[name] = t
	}
	return t
}

// admit acquires an execution slot, queueing briefly when all are busy.
// It returns ErrOverloaded when the queue is full or the wait expires, and
// the context's cause when ctx ends first. On nil return the caller holds
// a slot and must release it.
func (s *Server) admit(ctx context.Context) error {
	select {
	case s.slots <- struct{}{}:
		return nil
	default:
	}
	if s.queued.Add(1) > s.maxQueue {
		s.queued.Add(-1)
		s.shed.Add(1)
		return ErrOverloaded
	}
	defer s.queued.Add(-1)
	timer := time.NewTimer(s.queueWait)
	defer timer.Stop()
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-timer.C:
		s.shed.Add(1)
		return ErrOverloaded
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// release returns an execution slot.
func (s *Server) release() { <-s.slots }

// Query admits, quota-checks, and executes sql for tenant under algo.
// Admission may shed the query with ErrOverloaded; an exhausted tenant
// quota rejects it with ErrQuotaExceeded before any work happens. The
// executed query's budget is the tighter of the DB's per-query budget and
// the tenant's remaining quota, and it DNFs as Config.Budget queries do:
// the charge that crosses the budget stops it, so it charges past either
// at most one more charge — a page, a UDF call, a batch's spill — per
// worker, and an index access one page more (DESIGN.md §13).
func (s *Server) Query(ctx context.Context, tenant, sql string, algo Algorithm) (*Result, error) {
	if err := s.admit(ctx); err != nil {
		return nil, err
	}
	defer s.release()

	k := s.db.Options()
	t := s.tenant(tenant)
	t.mu.Lock()
	if t.quota > 0 {
		rem := t.quota - t.used
		if rem <= 0 {
			t.mu.Unlock()
			s.quotaRejected.Add(1)
			return nil, fmt.Errorf("tenant %q: %w", tenant, ErrQuotaExceeded)
		}
		if k.Budget == 0 || rem < k.Budget {
			k.Budget = rem
		}
	}
	t.mu.Unlock()

	p, err := s.db.prepare(sql, algo, k)
	if err != nil {
		return nil, err
	}
	res, err := s.db.execPrepared(ctx, p, k)
	if err != nil {
		return nil, err
	}
	// A DNF charged up to the abort point; that work happened and counts
	// against the tenant like any finished query's.
	t.mu.Lock()
	t.used += res.Stats.Charged()
	t.mu.Unlock()
	s.served.Add(1)
	if res.DNF {
		s.dnf.Add(1)
	}
	return res, nil
}

// ServerStats is a point-in-time snapshot of the server's counters.
type ServerStats struct {
	// Served counts queries that executed to completion (DNFs included).
	Served int64 `json:"served"`
	// Shed counts queries rejected by admission control.
	Shed int64 `json:"shed"`
	// QuotaRejected counts queries rejected on an exhausted tenant quota.
	QuotaRejected int64 `json:"quota_rejected"`
	// DNF counts served queries aborted by a budget or quota clamp.
	DNF int64 `json:"dnf"`
	// Running and Queued are the instantaneous slot and queue occupancy.
	Running int `json:"running"`
	Queued  int `json:"queued"`
	// Plan-cache counters from the underlying DB.
	PlanHits      int64 `json:"plan_hits"`
	PlanMisses    int64 `json:"plan_misses"`
	PlanEvictions int64 `json:"plan_evictions"`
	PlanEntries   int   `json:"plan_entries"`
}

// Stats snapshots the server's counters.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Served:        s.served.Load(),
		Shed:          s.shed.Load(),
		QuotaRejected: s.quotaRejected.Load(),
		DNF:           s.dnf.Load(),
		Running:       len(s.slots),
		Queued:        int(s.queued.Load()),
	}
	st.PlanHits, st.PlanMisses, st.PlanEvictions, st.PlanEntries = s.db.PlanCacheStats()
	return st
}
