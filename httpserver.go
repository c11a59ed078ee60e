package predplace

// The server's HTTP surface, kept in the library so cmd/ppserver stays a
// thin flag-parsing shell and the handler is testable with httptest.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"predplace/internal/expr"
)

// ParseAlgorithm resolves an algorithm by its String() name, ignoring
// case and punctuation ("ldl-ikkbz" = "LDLIKKBZ"); "migration" is accepted
// for PredicateMigration, and empty selects Migration (the paper's
// default).
func ParseAlgorithm(name string) (Algorithm, error) {
	key := algoKey(name)
	if key == "" || key == "migration" {
		return Migration, nil
	}
	for _, a := range Algorithms() {
		if algoKey(a.String()) == key {
			return a, nil
		}
	}
	return 0, fmt.Errorf("predplace: unknown algorithm %q", name)
}

// algoKey lowercases a name and drops everything but letters and digits.
func algoKey(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// QueryRequest is the POST /query body.
type QueryRequest struct {
	// Tenant identifies the caller for quota accounting ("" is a shared
	// anonymous tenant).
	Tenant string `json:"tenant,omitempty"`
	// SQL is the statement text.
	SQL string `json:"sql"`
	// Algorithm names the placement algorithm ("" = migration).
	Algorithm string `json:"algorithm,omitempty"`
}

// QueryResponse is the POST /query success body.
type QueryResponse struct {
	Cols []string `json:"cols,omitempty"`
	// Rows renders values as JSON natural types (null/number/string).
	Rows    [][]any `json:"rows,omitempty"`
	RowN    int     `json:"row_count"`
	Charged float64 `json:"charged"`
	DNF     bool    `json:"dnf,omitempty"`
	Plan    string  `json:"plan,omitempty"`
	Elapsed string  `json:"elapsed"`
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the server's HTTP API:
//
//	POST /query   {"tenant","sql","algorithm"} → QueryResponse
//	GET  /stats   → ServerStats
//	GET  /healthz → 200 "ok"
//
// Shed queries answer 503 (retryable), exhausted quotas 429, client
// mistakes 400.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		//pplint:ignore errdrop health-probe write; a broken client connection has no one left to tell
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		code := http.StatusBadRequest
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, "bad request body: "+err.Error())
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		httpError(w, http.StatusBadRequest, "empty sql")
		return
	}
	algo, err := ParseAlgorithm(req.Algorithm)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	start := time.Now()
	res, err := s.Query(r.Context(), req.Tenant, req.SQL, algo)
	if err != nil {
		switch {
		case errors.Is(err, ErrOverloaded):
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, err.Error())
		case errors.Is(err, ErrQuotaExceeded):
			httpError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, ErrCanceled):
			// The client went away or its deadline fired mid-query.
			httpError(w, 499, err.Error())
		default:
			httpError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	buf := respBufs.Get().(*[]byte)
	*buf, err = appendQueryResponse((*buf)[:0], res, time.Since(start).String())
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(*buf)))
	w.WriteHeader(http.StatusOK)
	//pplint:ignore errdrop response already committed; a failed write means the client hung up
	w.Write(*buf)
	if cap(*buf) <= maxPooledResponse {
		respBufs.Put(buf)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

const (
	// maxRequestBytes bounds the POST /query body; a larger one answers 413.
	maxRequestBytes = 1 << 20
	// maxPooledResponse is the largest response buffer respBufs takes back:
	// one huge result must not stay pinned under every later point lookup.
	maxPooledResponse = 1 << 20
)

// respBufs recycles the buffers POST /query success bodies are encoded into.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendQueryResponse appends the POST /query success body for res: byte for
// byte what json.Encoder with SetIndent("", "  ") writes for its
// QueryResponse (TestQueryResponseBytes), without boxing a value, reflecting
// over a row or re-scanning the body to indent it.
func appendQueryResponse(b []byte, res *Result, elapsed string) ([]byte, error) {
	charged, err := json.Marshal(res.Stats.Charged())
	str := func(s string) {
		if err == nil {
			b, err = appendJSONString(b, s)
		}
	}
	item := func(i int, indent string) {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, indent...)
	}
	b = append(b, '{')
	if len(res.Cols) > 0 {
		b = append(b, "\n  \"cols\": ["...)
		for i, c := range res.Cols {
			item(i, "\n    ")
			str(c)
		}
		b = append(b, "\n  ],"...)
	}
	if len(res.Rows) > 0 {
		b = append(b, "\n  \"rows\": ["...)
		for i, row := range res.Rows {
			item(i, "\n    [")
			for j, v := range row {
				item(j, "\n      ")
				switch {
				case v.IsNull():
					b = append(b, "null"...)
				case v.Kind == expr.TString:
					str(v.S)
				default:
					b = strconv.AppendInt(b, v.I, 10)
				}
			}
			if len(row) > 0 {
				b = append(b, "\n    "...)
			}
			b = append(b, ']')
		}
		b = append(b, "\n  ],"...)
	}
	b = append(b, "\n  \"row_count\": "...)
	b = strconv.AppendInt(b, int64(len(res.Rows)), 10)
	b = append(append(b, ",\n  \"charged\": "...), charged...)
	if res.DNF {
		b = append(b, ",\n  \"dnf\": true"...)
	}
	if res.Explained && res.Plan != "" {
		b = append(b, ",\n  \"plan\": "...)
		str(res.Plan)
	}
	b = append(b, ",\n  \"elapsed\": "...)
	str(elapsed)
	return append(b, "\n}\n"...), err
}

// appendJSONString appends s as a JSON string. Printable ASCII with nothing
// json.Encoder escapes — quote, backslash and the HTML three — is quoted as
// it stands; any other string goes through encoding/json.
func appendJSONString(b []byte, s string) ([]byte, error) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, err := json.Marshal(s)
			return append(b, enc...), err
		}
	}
	return append(append(append(b, '"'), s...), '"'), nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//pplint:ignore errdrop response already committed; an encode failure here means the client hung up
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}
