package serve

import (
	"fmt"

	"dcnr/internal/observe"
)

// DefaultCacheEntries is the result-cache capacity Validate fills in
// when Config.CacheEntries is zero.
const DefaultCacheEntries = 1024

// Config configures the SEV query daemon. The zero value is runnable:
// Validate normalizes it to the default cache size and an OS-assigned
// port, following the sim.IntraConfig pattern — normalization happens in
// one place, NewDaemon calls it, and an explicitly invalid field is
// rejected rather than silently clamped.
type Config struct {
	// Addr is the listen address ("host:port"); empty means ":0", an
	// OS-assigned port.
	Addr string
	// CacheEntries bounds the LRU result cache (responses keyed by
	// normalized query + dataset generation); 0 means
	// DefaultCacheEntries. Negative is rejected.
	CacheEntries int
	// Obs carries the optional observability bundle: Metrics instruments
	// the query engine and the serve layer and backs /metrics,
	// Health/Journal back /healthz, /slo and /journal, and Logger gets
	// the server's warnings. The daemon reads no other field, and
	// Validate rejects a Trace or Timeline. Zero means uninstrumented.
	Obs observe.Observe
}

// Validate normalizes cfg in place and reports the first invalid field.
// It is idempotent: validating a validated config changes nothing.
func (c *Config) Validate() error {
	if c.Addr == "" {
		c.Addr = ":0"
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	switch {
	case c.CacheEntries < 0:
		return fmt.Errorf("serve: negative cache capacity %d", c.CacheEntries)
	case c.Obs.Trace != nil:
		return fmt.Errorf("serve: Obs.Trace is not read by the daemon")
	case c.Obs.Timeline != nil:
		return fmt.Errorf("serve: Obs.Timeline is not read by the daemon")
	}
	return nil
}
