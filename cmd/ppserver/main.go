// Command ppserver serves the predplace engine over HTTP: one shared
// database, any number of concurrent sessions, admission control with
// graceful shedding, and per-tenant charged-cost quotas.
//
// Usage:
//
//	ppserver [-addr :8080] [-scale 0.05] [-tables 1,2,3] [-caching]
//	         [-transfer] [-parallelism N] [-budget F]
//	         [-max-concurrent N] [-max-queue N] [-queue-wait D]
//	         [-plan-cache N] [-quota tenant=F,...]
//
// API:
//
//	POST /query   {"tenant":"t","sql":"SELECT …","algorithm":"migration"}
//	GET  /stats   admission/quota/plan-cache counters
//	GET  /healthz liveness
//
// A shed query answers 503 with Retry-After; an exhausted tenant quota
// answers 429. SIGINT/SIGTERM drain in-flight queries before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"predplace"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	scale := flag.Float64("scale", 0.05, "benchmark database scale factor")
	tables := flag.String("tables", "", "comma-separated benchmark tables to load (empty = all)")
	caching := flag.Bool("caching", false, "enable predicate caching")
	transfer := flag.Bool("transfer", false, "enable predicate transfer")
	parallelism := flag.Int("parallelism", 1, "intra-query worker fan-out (<0 = GOMAXPROCS)")
	budget := flag.Float64("budget", 0, "per-query charged-cost budget (0 = unlimited)")
	maxConc := flag.Int("max-concurrent", 0, "queries executing at once (0 = GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "admission queue depth (0 = 2x concurrent, <0 = none)")
	queueWait := flag.Duration("queue-wait", 100*time.Millisecond, "max wait for an execution slot")
	planCache := flag.Int("plan-cache", 0, "plan cache entries (0 = default 64, <0 = disabled)")
	quotas := flag.String("quota", "", "per-tenant quotas, tenant=cost comma-separated")
	flag.Parse()

	tabs, err := parseTables(*tables)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "building benchmark database at scale %.3f…\n", *scale)
	db, err := predplace.Open(predplace.Config{
		Scale: *scale, Tables: tabs,
		Caching: *caching, Transfer: *transfer,
		Parallelism: *parallelism, Budget: *budget,
		PlanCacheSize: *planCache,
	})
	if err != nil {
		fatal(err)
	}
	srv := predplace.NewServer(db, predplace.ServerConfig{
		MaxConcurrent: *maxConc,
		MaxQueue:      *maxQueue,
		QueueWait:     *queueWait,
	})
	if err := applyQuotas(srv, *quotas); err != nil {
		fatal(err)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "ppserver listening on %s\n", *addr)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	// Drain: stop accepting, let in-flight queries finish.
	fmt.Fprintln(os.Stderr, "ppserver draining…")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "ppserver served=%d shed=%d quota-rejected=%d dnf=%d plan-cache=%d/%d\n",
		st.Served, st.Shed, st.QuotaRejected, st.DNF, st.PlanHits, st.PlanHits+st.PlanMisses)
}

// parseTables turns "1,3,10" into table numbers.
func parseTables(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -tables entry %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// applyQuotas parses "alice=500,bob=100" and installs each quota.
func applyQuotas(srv *predplace.Server, s string) error {
	if s == "" {
		return nil
	}
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		name, val, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("bad -quota entry %q (want tenant=cost)", f)
		}
		q, err := strconv.ParseFloat(val, 64)
		if err != nil || q < 0 {
			return fmt.Errorf("bad -quota value %q", val)
		}
		srv.SetTenantQuota(name, q)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ppserver:", err)
	os.Exit(1)
}
