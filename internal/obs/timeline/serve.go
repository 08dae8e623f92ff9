package timeline

import (
	"errors"
	"math"
	"net/http"
	"strconv"
)

// ServeHistory answers a windowed history query with JSONL, one sample
// per line in the canonical merged order. Query parameters:
//
//	from, to  inclusive time bounds (defaults: the whole history)
//	metric    restrict to one series name
//
// A nil timeline serves an empty body rather than panicking, so handlers
// can be mounted unconditionally. A malformed or NaN bound is a 400: NaN
// compares false against every sample, so it would silently drop the
// bound instead of applying it.
func (t *Timeline) ServeHistory(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	if t == nil {
		return
	}
	q := r.URL.Query()
	from, err := parseBound(q.Get("from"), math.Inf(-1))
	if err != nil {
		http.Error(w, "bad from: "+err.Error(), http.StatusBadRequest)
		return
	}
	to, err := parseBound(q.Get("to"), math.Inf(1))
	if err != nil {
		http.Error(w, "bad to: "+err.Error(), http.StatusBadRequest)
		return
	}
	// The write error is consciously dropped after the header went out —
	// a client that hung up mid-response is its own problem.
	_ = writeJSONL(w, t.columns(), t.Window(from, to, q.Get("metric")))
}

// parseBound parses one window bound; empty selects def.
func parseBound(s string, def float64) (float64, error) {
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) {
		return 0, errors.New("NaN")
	}
	return v, nil
}
