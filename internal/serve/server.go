// Package serve is the repo's one HTTP serving layer: a Server wraps the
// listener / mux / serving-goroutine / shutdown plumbing that cmd/repro,
// cmd/dcsweep, and the timeline SSE handlers each used to carry their own
// copy of, and the Daemon (daemon.go) builds the SEV query API on
// top of it.
//
// The lifecycle is a strict three-phase contract:
//
//	s := serve.New(opts)   // construct (no goroutines yet)
//	s.Register(pat, h)     // mount routes — construction phase only
//	addr, err := s.Start() // bind + serve on a background goroutine
//	...
//	s.Shutdown()           // sever connections AND join the goroutine
//
// New and Register run on one goroutine before Start; they are not
// synchronized (the obsnilsafe and lockflow analyzers enforce the
// constructor-only discipline for types that share a Server). Shutdown is
// idempotent and safe from any goroutine: it closes active connections
// (streaming subscribers must not stall process exit) and joins the
// serving goroutine, so no log write can land after it returns — the
// PR-8 shutdown-func contract.
package serve

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dcnr/internal/obs"
	"dcnr/internal/obs/health"
	"dcnr/internal/obs/journal"
	"dcnr/internal/obs/timeline"
)

// Options configures a Server. Every observability hook is optional and
// nil-safe: a nil field serves the endpoint's empty/healthy shape rather
// than 404ing, so dashboards can be pointed at any process.
type Options struct {
	// Addr is the listen address; ":0" binds a free port (Start returns
	// the bound address).
	Addr string
	// Name prefixes log messages, e.g. "repro: metrics" → "repro: metrics
	// server stopped". Defaults to "serve".
	Name string
	// Logger, when non-nil, receives a Warn when the serving goroutine
	// stops unexpectedly; otherwise the report goes to stderr.
	Logger *slog.Logger
	// Metrics backs /metrics and the process-wide "dcnr" expvar when
	// Introspection is set.
	Metrics *obs.Registry
	// Health backs /healthz and /slo; nil reads as permanently healthy.
	Health *health.Engine
	// Journal backs /journal; nil reads as an empty journal.
	Journal *journal.Journal
	// Timeline backs /metrics/history and /metrics/history/events; nil
	// serves empty histories and an immediately-ending stream.
	Timeline *timeline.Timeline
	// Introspection mounts the full runtime-introspection suite:
	// /debug/vars, /metrics, /healthz, /slo, /journal, /metrics/history,
	// /metrics/history/events, and /debug/pprof/. Without it the Server
	// serves only what Register mounts.
	Introspection bool
}

// Server is the unified HTTP serving API. Create with New, mount routes
// with Register, run with Start, and release with Shutdown. A nil Server
// is inert: Register and Shutdown are no-ops, Start errors.
type Server struct {
	opts Options
	mux  *http.ServeMux
	// routes records every mounted pattern in registration order — plain
	// slice by design: Register belongs to the single-goroutine
	// construction phase.
	routes []string

	srv  *http.Server
	ln   net.Listener
	done chan struct{}
	once sync.Once
}

// Connection timeouts. A client gets readHeaderTimeout to send its
// request headers and idleTimeout to start its next request on a
// keep-alive connection. There is deliberately no WriteTimeout: SSE
// streams (/metrics/history/events, /campaign/events) stay open for as
// long as the client listens.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// publishedRegistry backs the process-wide "dcnr" expvar: expvar.Publish
// panics on duplicate names, so the var is published once and reads
// whichever registry the latest introspective Server installed.
var (
	publishedRegistry atomic.Pointer[obs.Registry]
	publishOnce       sync.Once
)

// New returns an unstarted Server. With opts.Introspection it mounts the
// introspection suite immediately, so Register calls see those patterns
// as taken.
func New(opts Options) *Server {
	if opts.Name == "" {
		opts.Name = "serve"
	}
	s := &Server{opts: opts, mux: http.NewServeMux()}
	if opts.Introspection {
		s.mountIntrospection()
	}
	return s
}

// Register mounts h at pattern. Construction phase only: Register is not
// synchronized and must happen-before Start on the same goroutine (or
// under the caller's own lock — see the lockflow analyzer). A nil Server
// ignores the call.
func (s *Server) Register(pattern string, h http.Handler) {
	if s == nil {
		return
	}
	s.routes = append(s.routes, pattern)
	s.mux.Handle(pattern, h)
}

// Routes returns the mounted patterns in registration order (the
// introspection suite first when enabled).
func (s *Server) Routes() []string {
	if s == nil {
		return nil
	}
	return append([]string(nil), s.routes...)
}

// Start binds the listener and serves on a background goroutine. It
// returns the bound address, so callers can pass ":0" and discover the
// port. Start may be called once; the caller must pair it with Shutdown
// so no goroutine outlives the run.
func (s *Server) Start() (string, error) {
	if s == nil {
		return "", errors.New("serve: Start on a nil Server")
	}
	if s.srv != nil {
		return "", errors.New("serve: Start called twice")
	}
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.srv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.logStopped(err)
		}
	}()
	return ln.Addr().String(), nil
}

// Addr returns the bound address after Start ("" before).
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown stops the server and joins the serving goroutine. Close (not
// http.Server.Shutdown) also severs active connections — a scraper
// holding a streaming response open must not stall process exit — and
// the join guarantees no goroutine log write lands after Shutdown
// returns. Idempotent; a no-op before Start or on a nil Server.
func (s *Server) Shutdown() {
	if s == nil || s.srv == nil {
		return
	}
	s.once.Do(func() {
		_ = s.srv.Close()
		<-s.done
	})
}

func (s *Server) logStopped(err error) {
	if s.opts.Logger != nil {
		s.opts.Logger.Warn(s.opts.Name+" server stopped", "err", err)
		return
	}
	fmt.Fprintf(os.Stderr, "%s server stopped: %v\n", s.opts.Name, err)
}

// mountIntrospection wires the runtime-introspection suite onto the mux,
// every handler nil-safe against its missing hook.
func (s *Server) mountIntrospection() {
	reg, eng, jnl, tl := s.opts.Metrics, s.opts.Health, s.opts.Journal, s.opts.Timeline
	publishedRegistry.Store(reg)
	publishOnce.Do(func() {
		expvar.Publish("dcnr", expvar.Func(func() any {
			if r := publishedRegistry.Load(); r != nil {
				return r.Snapshot()
			}
			return nil
		}))
	})
	s.Register("/debug/vars", expvar.Handler())
	s.Register("/metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if r := publishedRegistry.Load(); r != nil {
			// A failed write means the scraper hung up mid-response;
			// there is no one left to report it to.
			_ = r.WritePrometheus(w)
		}
	}))
	s.Register("/healthz", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		// As with /metrics, a failed write means the prober hung up.
		rep := eng.Report()
		if rep.Healthy {
			_, _ = fmt.Fprintln(w, "ok")
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		for _, rs := range rep.Rules {
			if rs.State == "firing" {
				_, _ = fmt.Fprintf(w, "firing: %s\n", rs.Name)
			}
		}
	}))
	s.Register("/slo", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// Same contract as /metrics: a failed write is the scraper's
		// hang-up, not ours.
		_ = eng.WriteJSON(w)
	}))
	s.Register("/journal", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		// Summaries read only the journal's flushed prefix, so this is
		// safe to serve while the simulation is still recording.
		data, err := json.Marshal(jnl.Index().Summary())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(append(data, '\n'))
	}))
	s.Register("/metrics/history", http.HandlerFunc(tl.ServeHistory))
	s.Register("/metrics/history/events", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		StreamSSE(w, r, tl.Subscribe)
	}))
	s.Register("/debug/pprof/", http.HandlerFunc(pprof.Index))
	s.Register("/debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline))
	s.Register("/debug/pprof/profile", http.HandlerFunc(pprof.Profile))
	s.Register("/debug/pprof/symbol", http.HandlerFunc(pprof.Symbol))
	s.Register("/debug/pprof/trace", http.HandlerFunc(pprof.Trace))
}
