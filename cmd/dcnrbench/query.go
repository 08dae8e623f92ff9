package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"dcnr/internal/obs"
	"dcnr/internal/observe"
	"dcnr/internal/serve"
	"dcnr/internal/sev"
)

// Query traffic shapes.
const (
	ingestBatch = 500 // reports per POST /ingest
	// ingestsPerSec is query-ingest's ingest rate in both loops. Each
	// ingest makes the next ask of every hot key a miss of 4-6 ms that
	// holds a sender while the requests due meanwhile queue; at 3 a second
	// that stays near a tenth of the time, so the median open-loop request
	// is not in a queue, while at 20 the misses take most of both CPUs.
	ingestsPerSec = 3
	ingestPool    = 16 // distinct batches; batch j is pool[j%ingestPool]
	windows       = 20 // throughput is the median rate over this many windows of a phase
	checkEvery    = 64 // one query in checkEvery is checked against the reference
	traceEvery    = 8  // a traced run records spans for one request in traceEvery
	shadowEvery   = 4  // and re-runs one query in shadowEvery of the latency phase,
	shadowMax     = 2000
	shadowBudget  = 3 * time.Second // at most shadowMax of them, for at most shadowBudget
)

// queryMix is one of the three query workloads.
type queryMix struct {
	draw   func(rng *splitmix64) qspec
	rate   float64 // open-loop query rate, requests/s (fixed: see reference.go)
	ingest bool
}

// queryRun is the state of one query workload run.
type queryRun struct {
	cfg     config
	mix     queryMix
	tr      *tracer
	d       *serve.Daemon
	reg     *obs.Registry
	bodies  [][]byte // ingest batch bodies
	ingests atomic.Int64
}

// runQuery serves a synthetic dataset from an in-process dcnrd on
// loopback and drives it through four phases: a closed-loop warm-up, the
// closed-loop capacity phase (throughput, CPU per op), an open-loop
// warm-up at the fixed rate, and the open-loop latency phase.
func runQuery(mix queryMix) func(cfg config, tr *tracer, r *result) error {
	return func(cfg config, tr *tracer, r *result) error {
		q := &queryRun{cfg: cfg, mix: mix, tr: tr}
		return q.run(r)
	}
}

func (q *queryRun) run(r *result) error {
	cfg := q.cfg
	loaded := synthReports(cfg.reports, cfg.seed)
	var batches [][]sev.Report
	if q.mix.ingest {
		for j := 0; j < ingestPool; j++ {
			b := synthReports(ingestBatch, cfg.seed+1+uint64(j))
			body, err := json.Marshal(b)
			if err != nil {
				return err
			}
			batches = append(batches, b)
			q.bodies = append(q.bodies, body)
		}
	}

	var loadUS []float64
	var addr string
	setup, err := cfg.timeSetups(func() (func(), error) {
		q.reg = nil
		if q.tr != nil {
			q.reg = obs.NewRegistry()
		}
		// CacheEntries 0 means serve.DefaultCacheEntries (1024): query-cold
		// misses because its key space is far larger, not because the cache
		// is off.
		dcfg := serve.Config{Addr: "127.0.0.1:0", Obs: observe.Observe{Metrics: q.reg}}
		d, err := serve.NewDaemon(&dcfg)
		if err != nil {
			return nil, err
		}
		q.d = d
		t0 := time.Now()
		if _, err := d.Store().AddAll(loaded); err != nil {
			return nil, err
		}
		loadUS = append(loadUS, durUS(time.Since(t0))/float64(len(loaded)))
		addr, err = d.Start()
		return func() { d.Shutdown(); q.d = nil }, err
	})
	if q.d != nil {
		defer q.d.Shutdown()
	}
	if err != nil {
		return err
	}
	r.Metrics["setup_s"] = setup
	r.Layers["sev.load_us_per_report"] = median(loadUS)

	g := newLoadgen("http://"+addr, cfg.senders)
	defer g.close()
	capacity := cfg.measure() / 3
	var (
		phases  []*tally
		ingests int // completed so far
		kept    []checked
	)
	// The open loop's schedule carries the queries and, for query-ingest,
	// the ingests.
	open := q.mix.rate
	if q.mix.ingest {
		open += ingestsPerSec
	}
	for p, ph := range []struct {
		dur  time.Duration
		rate float64
	}{{cfg.warm, 0}, {capacity, 0}, {cfg.warm, open}, {cfg.measure() - capacity, open}} {
		var costs phase
		if p == 1 {
			costs = beginPhase()
		}
		per := make([]tally, cfg.senders)
		for s := range per {
			per[s].window = ph.dur / windows
		}
		g.run(ph.dur, ph.rate, q.next(p, ph.rate), func(s int, start time.Time, rec *record) {
			q.record(&per[s], s, start, rec)
		})
		t := merge(per)
		if p == 1 {
			costs.end(r, t.queries)
			r.Metrics["throughput_ops_s"] = t.throughput()
		}
		r.Attempted += t.attempted
		r.Failed += t.failed
		for _, p := range t.problems {
			r.Problems = appendCapped(r.Problems, p)
		}
		kept = append(kept, t.checkable(ingests)...)
		ingests += t.ingests
		phases = append(phases, t)
	}
	if err := q.measured(r, phases); err != nil {
		return err
	}
	q.check(r, newReference(loaded, batches), kept, ingests, g)
	return nil
}

// next returns the request builder of phase p. Query i of a phase is drawn
// from its own generator, so the traffic is a function of the seed alone.
// query-ingest interleaves ingests at ingestsPerSec, the first at the
// start of the phase: in an open loop as every n-th slot of the schedule,
// in a closed loop whenever one is due.
func (q *queryRun) next(p int, rate float64) func(i int, now time.Duration) request {
	var closedIngests atomic.Int64
	return func(i int, now time.Duration) request {
		if q.mix.ingest {
			ingest := false
			if rate > 0 {
				share := ingestsPerSec / rate
				ingest = i == 0 || int(float64(i)*share) > int(float64(i-1)*share)
			} else {
				n := closedIngests.Load()
				ingest = n <= int64(now.Seconds()*ingestsPerSec) && closedIngests.CompareAndSwap(n, n+1)
			}
			if ingest {
				j := int(q.ingests.Add(1) - 1)
				return request{path: "/ingest", body: q.bodies[j%len(q.bodies)]}
			}
		}
		qs := q.mix.draw(rngFor(q.cfg.seed, p, i))
		return request{path: qs.path(), query: &qs, keep: i%checkEvery == 0}
	}
}

// tally is what one sender saw of one phase.
type tally struct {
	attempted, failed int
	queries, ingests  int // that succeeded
	window            time.Duration
	perWindow         []int // queries completed in each window of the phase
	problems          []string
	latMS, lagMS      []float64 // per query: from due to done, and how late it was sent
	ingestMS          []float64
	hitUS, missUS     []float64 // round trips by X-Cache
	kept              []kept
	ingestSpans       []interval // each ingest, from claim to done
	shadowed          []qspec    // traced runs: queries to re-run on the store
}

type interval struct{ from, to time.Duration }

// kept is a query response kept for the output check.
type kept struct {
	q    qspec
	body []byte
	at   interval // from sent to done
}

// record adds one completed request to the sender's tally. In a traced
// run it also records spans for one request in traceEvery — the request
// as the user sees it, from due to done, with the HTTP call as its child —
// and keeps one query in shadowEvery to re-run on the store.
func (q *queryRun) record(t *tally, sender int, start time.Time, rec *record) {
	t.attempted++
	if !rec.ok() {
		t.failed++
		t.problems = appendCapped(t.problems, fmt.Sprintf("%s: status %d, %v", rec.req.path, rec.status, rec.err))
	}
	if rec.req.query == nil {
		t.ingestSpans = append(t.ingestSpans, interval{rec.claim, rec.done})
		if rec.ok() {
			t.ingests++
			t.ingestMS = append(t.ingestMS, durMS(rec.roundTrip()))
		}
	} else if rec.ok() {
		t.queries++
		w := int(rec.done / t.window)
		for len(t.perWindow) <= w {
			t.perWindow = append(t.perWindow, 0)
		}
		t.perWindow[w]++
		t.latMS = append(t.latMS, durMS(rec.latency()))
		t.lagMS = append(t.lagMS, durMS(rec.lag()))
		switch rec.cache {
		case "hit":
			t.hitUS = append(t.hitUS, durUS(rec.roundTrip()))
		case "miss":
			t.missUS = append(t.missUS, durUS(rec.roundTrip()))
		}
		if rec.req.keep {
			t.kept = append(t.kept, kept{*rec.req.query, rec.body, interval{rec.sent, rec.done}})
		}
	}
	if q.tr == nil {
		return
	}
	if rec.req.query != nil && rec.i%shadowEvery == 0 {
		t.shadowed = append(t.shadowed, *rec.req.query)
	}
	if rec.i%traceEvery == 0 {
		lane, op := sender+1, int64(rec.i)
		id := q.tr.newID()
		name := "GET " + rec.req.path
		if rec.req.query == nil {
			name = "POST /ingest"
		}
		q.tr.record(lane, "serve", name, op, id, start.Add(rec.sent), rec.roundTrip())
		q.tr.recordAs(id, lane, "loadgen", "request", op, 0, start.Add(rec.due), rec.latency())
	}
}

// merge combines the senders' tallies of one phase.
func merge(per []tally) *tally {
	t := &tally{window: per[0].window}
	for i := range per {
		p := &per[i]
		t.attempted += p.attempted
		t.failed += p.failed
		t.queries += p.queries
		t.ingests += p.ingests
		for w, n := range p.perWindow {
			for len(t.perWindow) <= w {
				t.perWindow = append(t.perWindow, 0)
			}
			t.perWindow[w] += n
		}
		t.problems = append(t.problems, p.problems...)
		t.latMS = append(t.latMS, p.latMS...)
		t.lagMS = append(t.lagMS, p.lagMS...)
		t.ingestMS = append(t.ingestMS, p.ingestMS...)
		t.hitUS = append(t.hitUS, p.hitUS...)
		t.missUS = append(t.missUS, p.missUS...)
		t.kept = append(t.kept, p.kept...)
		t.ingestSpans = append(t.ingestSpans, p.ingestSpans...)
		t.shadowed = append(t.shadowed, p.shadowed...)
	}
	return t
}

// shadow re-runs kept queries on the daemon's store directly, after the
// load has stopped, timing the store without HTTP, JSON or the cache. It
// stops after shadowMax queries or shadowBudget, whichever comes first.
func (q *queryRun) shadow(qs []qspec) []float64 {
	var us []float64
	start := time.Now()
	for i, s := range qs {
		if len(us) == shadowMax || time.Since(start) > shadowBudget {
			break
		}
		d := q.tr.call(1, "sev", "Sharded.Query", int64(i), 0, func() { shadowQuery(q.d.Store().Query(), s) })
		us = append(us, durUS(d))
	}
	return us
}

// shadowQuery runs qs through the store's query API as the daemon would.
func shadowQuery(sq sev.ShardedQuery, qs qspec) {
	if qs.year != 0 {
		sq = sq.Year(qs.year)
	}
	if qs.device >= 0 {
		sq = sq.DeviceType(qs.device)
	}
	if qs.severity != 0 {
		sq = sq.Severity(qs.severity)
	}
	if qs.design >= 0 {
		sq = sq.Design(qs.design)
	}
	if qs.cause >= 0 {
		sq = sq.RootCause(qs.cause)
	}
	if !math.IsNaN(qs.since) {
		sq = sq.Since(qs.since)
	}
	if !math.IsNaN(qs.until) {
		sq = sq.Until(qs.until)
	}
	if qs.resolutions {
		switch qs.by {
		case "device":
			sq.ResolutionsByDeviceType()
		case "year":
			sq.ResolutionsByYear()
		default:
			sq.Resolutions()
		}
		return
	}
	switch qs.by {
	case "device":
		sq.CountByDeviceType()
	case "severity":
		sq.CountBySeverity()
	case "year":
		sq.CountByYear()
	case "cause":
		sq.CountByRootCause()
	case "severity-device":
		sq.CountBySeverityDeviceType()
	case "year-severity":
		sq.CountByYearSeverity()
	case "year-device":
		sq.CountByYearDeviceType()
	case "year-design":
		sq.CountByYearDesign()
	default:
		sq.Count()
	}
}

// measured derives the metrics of the capacity (closed) and latency
// (open) phases; ingest round trips are few, so they come from all four.
func (q *queryRun) measured(r *result, phases []*tally) error {
	capacity, latency := phases[1], phases[3]
	var ingestMS []float64
	for _, t := range phases {
		ingestMS = append(ingestMS, t.ingestMS...)
	}
	if err := r.latencies(latency.latMS); err != nil {
		return err
	}
	r.Layers["loadgen.lag_p99_ms"] = percentileOr0(latency.lagMS, 99)
	hits := append(capacity.hitUS, latency.hitUS...)
	misses := append(capacity.missUS, latency.missUS...)
	if n := len(hits) + len(misses); n > 0 {
		r.Layers["serve.cache_hit_ratio"] = float64(len(hits)) / float64(n)
	}
	r.Layers["serve.hit_us.p50"] = percentileOr0(hits, 50)
	r.Layers["serve.hit_us.p99"] = percentileOr0(hits, 99)
	r.Layers["serve.miss_us.p50"] = percentileOr0(misses, 50)
	r.Layers["serve.miss_us.p99"] = percentileOr0(misses, 99)
	if latency.ingests > 0 {
		r.Layers["serve.misses_per_ingest"] = float64(len(latency.missUS)) / float64(latency.ingests)
	}
	r.Layers["serve.ingest_ms.p50"] = percentileOr0(ingestMS, 50)
	r.Layers["serve.ingest_ms.p90"] = percentileOr0(ingestMS, 90)
	if q.tr != nil {
		shadow := q.shadow(latency.shadowed)
		r.Layers["sev.query_us.p50"] = percentileOr0(shadow, 50)
		r.Layers["sev.query_us.p99"] = percentileOr0(shadow, 99)
	}
	if q.reg != nil {
		snap := q.reg.Snapshot()
		if h := snap.Histograms["sev_query_candidates"]; h.Count > 0 {
			r.Layers["sev.candidates_per_query"] = h.Sum / float64(h.Count)
		}
		scans := snap.Counters["sev_queries_scan_total"]
		if all := scans + snap.Counters["sev_queries_indexed_total"]; all > 0 {
			r.Layers["sev.scan_ratio"] = float64(scans) / float64(all)
		}
	}
	return nil
}

// throughput is the median over the phase's windows of the queries
// completed per second: interference from outside the process spoils a
// window, not the run.
func (t *tally) throughput() float64 {
	rates := make([]float64, windows)
	for w := range rates {
		if w < len(t.perWindow) {
			rates[w] = float64(t.perWindow[w]) / t.window.Seconds()
		}
	}
	return median(rates)
}

// checked is a kept response and the number of ingest batches that had
// landed when it was asked.
type checked struct {
	q    qspec
	k    int
	body []byte
}

// checkable returns the kept responses of one phase whose dataset is
// known: no ingest was between being taken by a sender and completing
// while the query ran. An ingest's batch number is taken after its sender
// claims it, so the batches done before such a query are exactly the
// first k. prior is the number of ingests completed in earlier phases.
func (t *tally) checkable(prior int) []checked {
	var out []checked
	for _, c := range t.kept {
		k, clean := prior, true
		for _, in := range t.ingestSpans {
			switch {
			case in.to < c.at.from:
				k++
			case in.from <= c.at.to:
				clean = false
			}
		}
		if clean {
			out = append(out, checked{c.q, k, c.body})
		}
	}
	return out
}

// check compares every kept response with the reference scan, in the
// order the batches landed, and asks /stats for the final report count.
func (q *queryRun) check(r *result, ref *reference, kept []checked, ingests int, g *loadgen) {
	sort.SliceStable(kept, func(a, b int) bool { return kept[a].k < kept[b].k })
	for _, c := range kept {
		same, err := sameJSON(c.body, ref.expect(c.q, c.k))
		r.check(err == nil && same, "%s after %d ingests: response %s differs from the full scan (%v)", c.q.path(), c.k, c.body, err)
	}
	r.Info["checked_responses"] = len(kept)

	resp, err := g.client.Get(g.base + "/stats")
	if err != nil {
		r.check(false, "GET /stats: %v", err)
		return
	}
	defer resp.Body.Close()
	var st struct {
		Reports int `json:"reports"`
	}
	data, err := io.ReadAll(resp.Body)
	if err == nil {
		err = json.Unmarshal(data, &st)
	}
	want := q.cfg.reports + ingests*ingestBatch
	r.check(err == nil && resp.StatusCode == http.StatusOK && st.Reports == want,
		"/stats reports %d, want %d loaded + %d ingested (%v)", st.Reports, q.cfg.reports, ingests*ingestBatch, err)
}
