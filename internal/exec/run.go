package exec

import (
	"errors"

	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/query"
	"predplace/internal/storage"
)

// Result is an executed query's output.
type Result struct {
	// Cols names the output columns.
	Cols []string
	// Rows holds the result rows (nil when Env.CountOnly).
	Rows []expr.Row
	// Stats reports resource consumption.
	Stats Stats
	// DNF is set when the charged-cost budget aborted the query; Stats then
	// reflects consumption up to the abort.
	DNF bool
	// Profile is the per-operator runtime profile tree, every plan node's
	// record of the run (nil unless Env.Profile was on).
	Profile *OpProfile
}

// Run executes a plan tree to completion, resetting the Env's per-query
// state first (each query is measured in isolation).
func Run(e *Env, root plan.Node) (*Result, error) {
	e.begin()
	// Every return below comes after it.Close() has joined the tree's
	// goroutines (or before any exist); only result rows outlive this.
	defer e.slabs.release()
	res := &Result{}
	for _, c := range root.Cols() {
		res.Cols = append(res.Cols, c.String())
	}
	if e.Transfer {
		// Predicate-transfer prepass: build and exchange the join graph's
		// Bloom filters before the main plan runs. A budget abort here is
		// the same measurement outcome as one mid-query (DNF below);
		// cancellation and injected faults surface as errors, as always.
		if err := e.runTransferPrepass(root); err != nil {
			if errors.Is(err, ErrBudgetExceeded) {
				res.DNF = true
				res.Stats = e.finish(0)
				if e.prof != nil {
					res.Profile = assembleProfile(e, root)
				}
				return res, nil
			}
			return nil, err
		}
	}
	it, err := Build(e, root)
	if err != nil {
		return nil, err
	}
	rows, n, err := collect(e, it, root.Card(), !e.CountOnly)
	res.Rows = rows
	cerr := it.Close()
	if err == nil {
		// A run whose last charges crossed its budget, after its last abort
		// check, did not finish either: the stop flag says so.
		err = e.stopped()
	}
	if errors.Is(err, ErrBudgetExceeded) {
		// The abort is the measurement (the paper's "did not finish"); a
		// Close failure after it would still be a real engine error.
		// Cancellation and injected faults are NOT folded into DNF — they
		// surface as wrapped errors (the abort is an outcome of the run, not
		// part of the measurement).
		res.DNF = true
		err = nil
	}
	if err := errors.Join(err, cerr); err != nil {
		return nil, err
	}
	res.Stats = e.finish(n)
	if e.prof != nil {
		res.Profile = assembleProfile(e, root)
	}
	return res, nil
}

// collect opens it and pulls it dry, returning the number of rows it
// produced and, when keep is set, the rows themselves — also on an error,
// up to where it struck. The caller owns closing the iterator. card, the
// plan's estimate for it, sizes the first allocation (cardHint).
func collect(e *Env, it Iterator, card float64, keep bool) ([]expr.Row, int, error) {
	if err := it.Open(); err != nil {
		return nil, 0, err
	}
	var rows []expr.Row
	buf := getRowBuf(e.batchSize())
	defer putRowBuf(buf)
	for count := 0; ; {
		n, err := it.NextBatch(buf)
		if err != nil || n == 0 {
			return rows, count, err
		}
		count += n
		if keep {
			if rows == nil {
				rows = make([]expr.Row, 0, max(n, cardHint(card)))
			}
			rows = append(rows, buf[:n]...)
		}
	}
}

// cardHint turns a cardinality estimate into an initial capacity. An
// estimate is a hint, never a bound: past 1<<16 entries (1.5 MiB of row
// headers) the holder doubles like any slice, however wrong the plan was.
func cardHint(card float64) int {
	if !(card > 0) {
		return 0
	}
	return int(min(card, 1<<16))
}

// MatchingTIDs scans a base table and returns the tuple ids of rows
// satisfying every predicate — the lookup side of DML (DELETE). Predicates
// are evaluated in the given order with the usual caching behaviour. Like
// Run it resets the Env's per-query state first, and it checks for an abort
// after each page it fetches: a budget or cancellation stops it with an
// error, and no tuple id.
func MatchingTIDs(e *Env, tableName string, preds []*query.Predicate) ([]storage.TID, error) {
	e.begin()
	tab, err := e.Cat.Table(tableName)
	if err != nil {
		return nil, err
	}
	cols := make([]query.ColRef, len(tab.Columns))
	for i, c := range tab.Columns {
		cols[i] = query.ColRef{Table: tableName, Col: c.Name}
	}
	compiled, err := compilePreds(e, preds, cols)
	if err != nil {
		return nil, err
	}
	var out []storage.TID
	it := e.heap(tab).Scan()
	defer it.Close()
	var sc predScratch
	for {
		pg, page, ok, err := it.NextPage()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := e.checkAbort(); err != nil {
			return nil, err
		}
	slots:
		for slot := storage.SlotID(0); int(slot) < pg.NumSlots(); slot++ {
			rec, live := pg.Get(slot)
			if !live {
				continue
			}
			row, err := tab.Codec.Decode(rec)
			if err != nil {
				return nil, err
			}
			for _, cp := range compiled {
				pass, err := cp.holds(e, row, &sc)
				if err != nil {
					return nil, err
				}
				if !pass {
					continue slots
				}
			}
			out = append(out, storage.TID{Page: page, Slot: slot})
		}
	}
	if err := e.stopped(); err != nil {
		return nil, err
	}
	return out, nil
}
