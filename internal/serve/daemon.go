package serve

import (
	"fmt"
	"io"

	"dcnr/internal/obs"
	"dcnr/internal/sev"
)

// Daemon is the long-running SEV query service: one indexed store behind
// the HTTP aggregation API, with an LRU result cache keyed by normalized
// query + dataset generation. Build with NewDaemon, load data with
// LoadJSON (or stream batches to POST /ingest), run with Start, release
// with Shutdown.
//
// The cache-generation contract: every response to a query endpoint
// carries an ETag derived from (dataset generation, normalized query).
// POST /ingest bumps the generation, which changes every ETag and every
// cache key at once — no invalidation walk, stale entries age out of the
// LRU. A client replaying If-None-Match sees 304 exactly until the
// dataset changes under it.
type Daemon struct {
	cfg   Config
	store *sev.Store
	srv   *Server
	cache *lru

	// The serve_* series, on the caller's registry or, without one, on a
	// private registry; /stats reads the same counters.
	mQueries, mHits, mMisses, mNotModified *obs.Counter
	mIngestReports, mIngestBatches         *obs.Counter
	hLatency                               *obs.Histogram
}

// NewDaemon validates cfg (normalizing defaults in place per the
// Config.Validate contract), builds the store, and mounts the query API
// plus the full introspection suite on a new Server. The daemon owns the
// server: Shutdown releases it.
func NewDaemon(cfg *Config) (*Daemon, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:   *cfg,
		store: sev.NewStore(),
		cache: newLRU(cfg.CacheEntries),
	}
	d.store.Instrument(cfg.Obs.Metrics)
	reg := cfg.Obs.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	d.mQueries = reg.Counter("serve_queries_total")
	d.mHits = reg.Counter("serve_cache_hits_total")
	d.mMisses = reg.Counter("serve_cache_misses_total")
	d.mNotModified = reg.Counter("serve_not_modified_total")
	d.mIngestReports = reg.Counter("serve_ingest_reports_total")
	d.mIngestBatches = reg.Counter("serve_ingest_batches_total")
	d.hLatency = reg.Histogram("serve_query_seconds",
		[]float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1})
	d.srv = New(Options{
		Addr:          cfg.Addr,
		Name:          "dcnrd",
		Logger:        cfg.Obs.Logger,
		Metrics:       cfg.Obs.Metrics,
		Health:        cfg.Obs.Health,
		Journal:       cfg.Obs.Journal,
		Introspection: true,
	})
	d.registerAPI()
	return d, nil
}

// Store exposes the daemon's store, e.g. for direct seeding in tests or
// for the simulate path in cmd/dcnrd.
func (d *Daemon) Store() *sev.Store { return d.store }

// LoadJSON appends a SEV dataset (the sevs.json shape dcsim writes) as
// one batch through sev.Store.AppendJSON: each report is validated once,
// explicit IDs are preserved, an ID below 1, a duplicate or one at or
// below the largest stored rejects the whole batch, and the generation is
// bumped once.
func (d *Daemon) LoadJSON(r io.Reader) error { return d.store.AppendJSON(r) }

// Start binds the daemon's listener and serves until Shutdown. It
// returns the bound address.
func (d *Daemon) Start() (string, error) { return d.srv.Start() }

// Addr returns the bound address after Start.
func (d *Daemon) Addr() string { return d.srv.Addr() }

// Shutdown stops the HTTP server, severing live connections and joining
// the serving goroutine. Idempotent.
func (d *Daemon) Shutdown() { d.srv.Shutdown() }

// Generation returns the store's dataset generation.
func (d *Daemon) Generation() uint64 { return d.store.Generation() }

// statsResponse is the GET /stats body.
type statsResponse struct {
	Reports      int    `json:"reports"`
	Generation   uint64 `json:"generation"`
	CacheEntries int    `json:"cache_entries"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	NotModified  uint64 `json:"not_modified"`
}

func (d *Daemon) stats() statsResponse {
	return statsResponse{
		Reports:      d.store.Len(),
		Generation:   d.store.Generation(),
		CacheEntries: d.cache.len(),
		CacheHits:    uint64(d.mHits.Value()),
		CacheMisses:  uint64(d.mMisses.Value()),
		NotModified:  uint64(d.mNotModified.Value()),
	}
}

// String renders a one-line daemon description for logs.
func (d *Daemon) String() string {
	return fmt.Sprintf("dcnrd{cache: %d}", d.cfg.CacheEntries)
}
