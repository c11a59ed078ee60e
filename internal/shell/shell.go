// Package shell implements the interactive SQL shell logic behind cmd/ppsql:
// meta-command dispatch, result formatting, and session state (current
// algorithm, caching toggle). It is separated from the binary so the REPL
// behaviour is testable.
package shell

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"predplace"
)

// AlgoNames maps shell names to algorithms.
var AlgoNames = map[string]predplace.Algorithm{
	"naive":      predplace.NaivePushDown,
	"pushdown":   predplace.PushDown,
	"pullup":     predplace.PullUp,
	"pullrank":   predplace.PullRank,
	"migration":  predplace.Migration,
	"ldl":        predplace.LDL,
	"ldl-ikkbz":  predplace.LDLIKKBZ,
	"exhaustive": predplace.Exhaustive,
	"robust":     predplace.Robust,
}

// Session is one interactive shell session over a database.
type Session struct {
	DB *predplace.DB
	// Algo is the current placement algorithm (default Migration).
	Algo predplace.Algorithm
	// MaxRows caps printed rows per result (default 20).
	MaxRows int
}

// New creates a session with defaults.
func New(db *predplace.DB) *Session {
	return &Session{DB: db, Algo: predplace.Migration, MaxRows: 20}
}

// say writes one line of REPL output. A write failure means the user's
// terminal (or the test buffer) is gone; the next read ends the session, so
// the error is deliberately dropped here — and only here.
func say(w io.Writer, args ...interface{}) {
	//pplint:ignore errdrop REPL terminal write; session ends on next read anyway
	fmt.Fprintln(w, args...)
}

// sayf is say with Printf formatting and no implicit newline.
func sayf(w io.Writer, format string, args ...interface{}) {
	//pplint:ignore errdrop REPL terminal write; session ends on next read anyway
	fmt.Fprintf(w, format, args...)
}

// Execute handles one input line, writing output to w. It returns false when
// the session should end.
func (s *Session) Execute(line string, w io.Writer) bool {
	line = strings.TrimSpace(line)
	switch {
	case line == "":
		return true
	case line == `\q` || line == "quit" || line == "exit":
		return false
	case strings.HasPrefix(line, `\algo`):
		s.cmdAlgo(strings.TrimSpace(strings.TrimPrefix(line, `\algo`)), w)
	case strings.HasPrefix(line, `\caching`) || strings.HasPrefix(line, `\cache`):
		on := strings.HasSuffix(line, "on")
		s.DB.SetCaching(on)
		say(w, "predicate caching:", on)
	case strings.HasPrefix(line, `\transfer`):
		on := strings.HasSuffix(line, "on")
		s.DB.SetTransfer(on)
		say(w, "predicate transfer:", on)
	case strings.HasPrefix(line, `\feedback`):
		on := strings.HasSuffix(line, "on")
		s.DB.SetFeedback(on)
		say(w, "feedback-driven statistics:", on)
	case line == `\tables`:
		s.cmdTables(w)
	case strings.HasPrefix(line, `\save `):
		path := strings.TrimSpace(strings.TrimPrefix(line, `\save `))
		if err := s.DB.Save(path); err != nil {
			say(w, "error:", err)
		} else {
			say(w, "saved to", path)
		}
	case strings.HasPrefix(line, `\open `):
		path := strings.TrimSpace(strings.TrimPrefix(line, `\open `))
		db, err := predplace.OpenFile(path, predplace.Config{})
		if err != nil {
			say(w, "error:", err)
		} else {
			s.DB = db
			say(w, "opened", path)
		}
	case line == `\funcs`:
		s.cmdFuncs(w)
	case line == `\compare` || strings.HasPrefix(line, `\compare `):
		say(w, `usage: \compare is implicit — prefix a query with COMPARE`)
	case line == `\help` || line == `\?`:
		s.cmdHelp(w)
	case strings.HasPrefix(strings.ToUpper(line), "COMPARE "):
		s.cmdCompare(strings.TrimSpace(line[len("COMPARE"):]), w)
	case strings.HasPrefix(strings.ToUpper(line), "DELETE"):
		n, err := s.DB.Exec(line)
		if err != nil {
			say(w, "error:", err)
		} else {
			sayf(w, "%d rows deleted\n", n)
		}
	default:
		s.runSQL(line, w)
	}
	return true
}

func (s *Session) cmdHelp(w io.Writer) {
	sayf(w, "%s", `commands:
  \algo <name>      switch placement algorithm
  \caching on|off   toggle predicate caching
  \transfer on|off  toggle predicate transfer (Bloom pre-filtering)
  \feedback on|off  toggle feedback-driven statistics (observed selectivities)
  \tables           list relations
  \funcs            list registered functions
  \save <path>      snapshot the database to a file
  \open <path>      load a database snapshot
  \help             this help
  \q                quit
  EXPLAIN SELECT …  show the plan without running
  COMPARE SELECT …  run under every algorithm and compare
`)
}

func (s *Session) cmdAlgo(name string, w io.Writer) {
	if a, ok := AlgoNames[name]; ok {
		s.Algo = a
		say(w, "algorithm:", a)
		return
	}
	names := make([]string, 0, len(AlgoNames))
	for n := range AlgoNames {
		names = append(names, n)
	}
	sort.Strings(names)
	say(w, "algorithms:", strings.Join(names, " "))
}

func (s *Session) cmdTables(w io.Writer) {
	for _, t := range s.DB.Catalog().Tables() {
		idx := make([]string, 0, len(t.Indexes))
		for col := range t.Indexes {
			idx = append(idx, col)
		}
		sort.Strings(idx)
		sayf(w, "  %-10s %10d tuples %8d pages  indexes: %s\n",
			t.Name, t.Card, t.Pages(), strings.Join(idx, ","))
	}
}

func (s *Session) cmdFuncs(w io.Writer) {
	for _, f := range s.DB.Catalog().Funcs() {
		sayf(w, "  %s\n", f)
	}
}

func (s *Session) cmdCompare(sql string, w io.Writer) {
	algos := predplace.Algorithms()
	results, err := s.DB.CompareAll(sql, algos...)
	if err != nil {
		say(w, "error:", err)
		return
	}
	sayf(w, "%s", predplace.FormatComparison(algos, results))
}

func (s *Session) runSQL(sql string, w io.Writer) {
	res, err := s.DB.Query(sql, s.Algo)
	if err != nil {
		say(w, "error:", err)
		return
	}
	if res.Explained {
		sayf(w, "%s", res.Plan)
		sayf(w, "estimated cost: %.0f (plans retained %d, planning %v)\n",
			res.EstCost, res.Info.PlansRetained, res.Info.Elapsed)
		return
	}
	if res.DNF {
		say(w, "aborted: charged-cost budget exceeded")
		return
	}
	say(w, strings.Join(res.Cols, " | "))
	for i, row := range res.Rows {
		if i == s.MaxRows {
			sayf(w, "… (%d more rows)\n", len(res.Rows)-s.MaxRows)
			break
		}
		cells := make([]string, len(row))
		for k, v := range row {
			cells[k] = v.String()
		}
		say(w, strings.Join(cells, " | "))
	}
	sayf(w, "%d rows; %s\n", res.Stats.Rows, res.Stats)
	if res.Profile != nil {
		if buf, err := json.MarshalIndent(res.Profile, "", "  "); err == nil {
			sayf(w, "%s\n", buf)
		}
	}
}
