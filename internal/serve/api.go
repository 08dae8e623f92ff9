package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"dcnr/internal/sev"
	"dcnr/internal/stats"
	"dcnr/internal/topology"
)

// params is one parsed query-endpoint request: the SEV filters plus the
// grouping dimension. Parsing canonicalizes every value (device and
// cause names are matched case-insensitively and re-rendered from the
// parsed value), so two spellings of the same query share one cache key.
type params struct {
	year     *int
	device   *topology.DeviceType
	severity *sev.Severity
	design   *topology.Design
	cause    *sev.RootCause
	since    *float64
	until    *float64
	by       string
}

// designs are the network designs a `design` filter names.
var designs = []topology.Design{topology.DesignShared, topology.DesignCluster, topology.DesignFabric}

// parseName matches s case-insensitively against the names of all,
// naming the parameter as what in the error. An empty s leaves the
// filter unset (nil).
func parseName[T fmt.Stringer](s, what string, all []T) (*T, error) {
	if s == "" {
		return nil, nil
	}
	for _, v := range all {
		if strings.EqualFold(s, v.String()) {
			return &v, nil
		}
	}
	return nil, fmt.Errorf("unknown %s %q", what, s)
}

// knownKey reports whether k is a parameter the query endpoints read.
func knownKey(k string) bool {
	switch k {
	case "year", "device", "severity", "design", "cause", "since", "until", "by":
		return true
	}
	return false
}

// parseParams reads the filter/grouping query parameters. allowedBy
// lists the endpoint's valid `by` dimensions ("" entries allowed). An
// unknown or repeated key is rejected, naming the smallest such key so
// the error is the same on every run.
func parseParams(q url.Values, allowedBy []string) (params, error) {
	var p params
	bad, found := "", false
	for k, vs := range q {
		if (!knownKey(k) || len(vs) > 1) && (!found || k < bad) {
			bad, found = k, true
		}
	}
	if found {
		if knownKey(bad) {
			return p, fmt.Errorf("repeated key %q", bad)
		}
		return p, fmt.Errorf("unknown key %q", bad)
	}
	if s := q.Get("year"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			return p, fmt.Errorf("bad year: %v", err)
		}
		p.year = &v
	}
	var err error
	if p.device, err = parseName(q.Get("device"), "device type", topology.DeviceTypes); err != nil {
		return p, err
	}
	if s := q.Get("severity"); s != "" {
		n, err := strconv.Atoi(strings.TrimPrefix(strings.ToUpper(s), "SEV"))
		if err != nil {
			return p, fmt.Errorf("bad severity: %v", err)
		}
		v := sev.Severity(n)
		if !v.Valid() {
			return p, fmt.Errorf("bad severity %d", n)
		}
		p.severity = &v
	}
	if p.design, err = parseName(q.Get("design"), "design", designs); err != nil {
		return p, err
	}
	if p.cause, err = parseName(q.Get("cause"), "root cause", sev.RootCauses); err != nil {
		return p, err
	}
	for _, bound := range []struct {
		name string
		dst  **float64
	}{{"since", &p.since}, {"until", &p.until}} {
		if s := q.Get(bound.name); s != "" {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return p, fmt.Errorf("bad %s: %v", bound.name, err)
			}
			if math.IsNaN(v) {
				return p, fmt.Errorf("bad %s: NaN", bound.name)
			}
			*bound.dst = &v
		}
	}
	p.by = q.Get("by")
	for _, ok := range allowedBy {
		if p.by == ok {
			return p, nil
		}
	}
	return p, fmt.Errorf("bad by=%q (want one of %s)", p.by, strings.Join(allowedBy, "|"))
}

// normalized renders the params in canonical field order with canonical
// value spellings — the cache-key and ETag basis. Values are
// query-escaped, so the string parses back to the same params (a
// formatted float such as "1e+06" or "+Inf" carries a '+').
func (p params) normalized() string {
	var sb strings.Builder
	add := func(k, v string) {
		if sb.Len() > 0 {
			sb.WriteByte('&')
		}
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(url.QueryEscape(v))
	}
	if p.year != nil {
		add("year", strconv.Itoa(*p.year))
	}
	if p.device != nil {
		add("device", p.device.String())
	}
	if p.severity != nil {
		add("severity", strconv.Itoa(int(*p.severity)))
	}
	if p.design != nil {
		add("design", p.design.String())
	}
	if p.cause != nil {
		add("cause", p.cause.String())
	}
	if p.since != nil {
		add("since", strconv.FormatFloat(*p.since, 'g', -1, 64))
	}
	if p.until != nil {
		add("until", strconv.FormatFloat(*p.until, 'g', -1, 64))
	}
	if p.by != "" {
		add("by", p.by)
	}
	return sb.String()
}

// apply narrows the store query with every set filter.
func (p params) apply(q sev.Query) sev.Query {
	if p.year != nil {
		q = q.Year(*p.year)
	}
	if p.device != nil {
		q = q.DeviceType(*p.device)
	}
	if p.severity != nil {
		q = q.Severity(*p.severity)
	}
	if p.design != nil {
		q = q.Design(*p.design)
	}
	if p.cause != nil {
		q = q.RootCause(*p.cause)
	}
	if p.since != nil {
		q = q.Since(*p.since)
	}
	if p.until != nil {
		q = q.Until(*p.until)
	}
	return q
}

// etagFor derives the ETag for a normalized query at a generation: a
// deterministic function of both, so If-None-Match revalidates without
// recomputing the aggregation.
func etagFor(gen uint64, path, norm string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(path))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(norm))
	return fmt.Sprintf("\"%d-%x\"", gen, h.Sum64())
}

// route is one query endpoint: its path, the aggregation it computes and
// the grouping dimensions its `by` accepts ("" = ungrouped).
type route struct {
	path    string
	compute func(sev.Query, params) (any, error)
	by      []string
}

// routes are the query endpoints in mount order: a slice, so
// Server.Routes lists them the same way on every run.
var routes = []route{
	{"/query/count", handleCount, []string{"", "device", "severity", "year", "cause", "severity-device", "year-severity", "year-device", "year-design"}},
	{"/query/resolutions", handleResolutions, []string{"", "device", "year"}},
}

// parse reads a raw query string into the route's params. A malformed
// query string is rejected, not read in part.
func (rt route) parse(rawQuery string) (params, error) {
	q, err := url.ParseQuery(rawQuery)
	if err != nil {
		return params{}, fmt.Errorf("bad query: %v", err)
	}
	return parseParams(q, rt.by)
}

// answer computes the route's aggregation over store and marshals it:
// the body a cache miss serves.
func (rt route) answer(store *sev.Store, p params) ([]byte, error) {
	v, err := rt.compute(p.apply(store.Query()), p)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// Answer returns the body dcnrd serves for a GET of target, a request
// target such as "/query/count?year=2017&by=device", over store on a
// cache miss. It errors wherever dcnrd answers anything but 200: a
// target that does not parse, a path that is not a query endpoint, or
// parameters the endpoint rejects.
func Answer(store *sev.Store, target string) ([]byte, error) {
	u, err := url.ParseRequestURI(target)
	if err != nil {
		return nil, err
	}
	for _, rt := range routes {
		// The mux matches unescaped path segments, so a '/' spelled %2F
		// is not a separator to it.
		if u.Path == rt.path && !strings.Contains(strings.ToUpper(u.RawPath), "%2F") {
			p, err := rt.parse(u.RawQuery)
			if err != nil {
				return nil, err
			}
			return rt.answer(store, p)
		}
	}
	return nil, fmt.Errorf("no query endpoint at %q", u.Path)
}

// registerAPI mounts the query endpoints.
func (d *Daemon) registerAPI() {
	for _, rt := range routes {
		d.srv.Register(rt.path, d.cached(rt))
	}
	d.srv.Register("/ingest", http.HandlerFunc(d.handleIngest))
	d.srv.Register("/stats", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, d.stats())
	}))
}

// WriteJSON writes v as a JSON response. The write error is consciously
// dropped after the header went out — a client that hung up mid-response
// is its own problem, not the server's.
func WriteJSON(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(append(data, '\n')); err != nil {
		return
	}
}

// cached serves a query route through the normalize → ETag → LRU flow:
// parse and canonicalize the request, revalidate If-None-Match against
// the generation-bearing ETag (304, no recompute), then serve from the
// LRU or compute and fill it. Responses carry ETag and X-Cache (hit |
// miss) headers.
func (d *Daemon) cached(rt route) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		started := time.Now()
		d.mQueries.Inc()
		p, err := rt.parse(r.URL.RawQuery)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		norm := p.normalized()
		gen := d.store.Generation()
		etag := etagFor(gen, r.URL.Path, norm)
		w.Header().Set("ETag", etag)
		if r.Header.Get("If-None-Match") == etag {
			d.mNotModified.Inc()
			w.WriteHeader(http.StatusNotModified)
			return
		}
		key := fmt.Sprintf("%d|%s|%s", gen, r.URL.Path, norm)
		body, ok := d.cache.get(key)
		if ok {
			d.mHits.Inc()
			w.Header().Set("X-Cache", "hit")
		} else {
			d.mMisses.Inc()
			// A parsed request's aggregation fails only on the daemon's
			// side (an unencodable value), so this is not a 400.
			if body, err = rt.answer(d.store, p); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			d.cache.put(key, body)
			w.Header().Set("X-Cache", "miss")
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
		d.hLatency.Observe(time.Since(started).Seconds())
	})
}

// countResponse is the GET /query/count body: Count for ungrouped
// queries, Groups (one- or two-level, canonical string keys) otherwise.
type countResponse struct {
	Count  *int           `json:"count,omitempty"`
	Groups map[string]any `json:"groups,omitempty"`
}

func countKeys[K comparable](m map[K]int, render func(K) string) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		out[render(k)] = v
	}
	return out
}

func nestedKeys[K1, K2 comparable](m map[K1]map[K2]int, r1 func(K1) string, r2 func(K2) string) map[string]any {
	out := make(map[string]any, len(m))
	for k1, row := range m {
		inner := make(map[string]int, len(row))
		for k2, v := range row {
			inner[r2(k2)] = v
		}
		out[r1(k1)] = inner
	}
	return out
}

func itoaKey(y int) string                   { return strconv.Itoa(y) }
func devKey(t topology.DeviceType) string    { return t.String() }
func sevKey(s sev.Severity) string           { return s.String() }
func causeKey(c sev.RootCause) string        { return c.String() }
func designKey(dn topology.Design) string    { return dn.String() }
func groups(m map[string]any) *countResponse { return &countResponse{Groups: m} }
func scalar(n int) *countResponse            { return &countResponse{Count: &n} }

func handleCount(q sev.Query, p params) (any, error) {
	switch p.by {
	case "":
		return scalar(q.Count()), nil
	case "device":
		return groups(countKeys(q.CountByDeviceType(), devKey)), nil
	case "severity":
		return groups(countKeys(q.CountBySeverity(), sevKey)), nil
	case "year":
		return groups(countKeys(q.CountByYear(), itoaKey)), nil
	case "cause":
		return groups(countKeys(q.CountByRootCause(), causeKey)), nil
	case "severity-device":
		return groups(nestedKeys(q.CountBySeverityDeviceType(), sevKey, devKey)), nil
	case "year-severity":
		return groups(nestedKeys(q.CountByYearSeverity(), itoaKey, sevKey)), nil
	case "year-device":
		return groups(nestedKeys(q.CountByYearDeviceType(), itoaKey, devKey)), nil
	case "year-design":
		return groups(nestedKeys(q.CountByYearDesign(), itoaKey, designKey)), nil
	}
	return nil, fmt.Errorf("bad by=%q", p.by)
}

// band summarizes one resolution-time sample set as percentile bands
// (hours): the shape Figures 13/14 plot.
type band struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P75   float64 `json:"p75"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

func makeBand(xs []float64) (band, error) {
	ps, err := stats.Percentiles(xs, 50, 75, 90, 99)
	if err != nil {
		return band{}, err
	}
	return band{Count: len(xs), Mean: stats.Mean(xs), P50: ps[0], P75: ps[1], P90: ps[2], P99: ps[3]}, nil
}

// resolutionsResponse is the GET /query/resolutions body: percentile
// bands per group ("all" for ungrouped queries). Empty groups are
// omitted — a percentile of nothing is undefined, not zero.
type resolutionsResponse struct {
	Groups map[string]band `json:"groups"`
}

func handleResolutions(q sev.Query, p params) (any, error) {
	samples := make(map[string][]float64)
	switch p.by {
	case "":
		if xs := q.Resolutions(); len(xs) > 0 {
			samples["all"] = xs
		}
	case "device":
		for t, xs := range q.ResolutionsByDeviceType() {
			samples[devKey(t)] = xs
		}
	case "year":
		for y, xs := range q.ResolutionsByYear() {
			samples[itoaKey(y)] = xs
		}
	default:
		return nil, fmt.Errorf("bad by=%q", p.by)
	}
	out := resolutionsResponse{Groups: make(map[string]band, len(samples))}
	for k, xs := range samples {
		if len(xs) == 0 {
			continue
		}
		b, err := makeBand(xs)
		if err != nil {
			return nil, err
		}
		out.Groups[k] = b
	}
	return out, nil
}

// maxIngestBytes caps a POST /ingest body: 16 MiB, about 60k reports. A
// larger batch is refused with 413 before anything is ingested.
const maxIngestBytes = 16 << 20

// handleIngest is POST /ingest: a JSON array of reports ingested as one
// batch (IDs assigned when zero; an explicit ID at or below an earlier
// one rejects the whole batch with 400, since IDs are append-only),
// bumping the dataset generation — which invalidates every cached
// response at once.
func (d *Daemon) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var reports []sev.Report
	body := http.MaxBytesReader(w, r.Body, maxIngestBytes)
	if err := json.NewDecoder(body).Decode(&reports); err != nil {
		code := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "decoding batch: "+err.Error(), code)
		return
	}
	ids, err := d.store.AddAll(reports)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	d.mIngestBatches.Inc()
	d.mIngestReports.Add(int64(len(ids)))
	WriteJSON(w, struct {
		Ingested   int    `json:"ingested"`
		Generation uint64 `json:"generation"`
	}{len(ids), d.store.Generation()})
}
