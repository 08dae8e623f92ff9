package serve

import (
	"math"
	"net/http"
	"net/url"
	"testing"
)

// FuzzParseParams checks the query normalizer behind every cache key and
// ETag: for any raw query string on either query endpoint, parseParams
// either rejects it or accepts it with no NaN time bound, and the
// normalized string parses again to the same normalized string. The
// checked-in corpus (testdata/fuzz/FuzzParseParams) holds the twelve
// paper-weighted hot-mix paths plus the NaN, infinity and re-spelling
// edge cases.
func FuzzParseParams(f *testing.F) {
	f.Fuzz(func(t *testing.T, path, raw string) {
		allowedBy := countBy
		if path == "/query/resolutions" {
			allowedBy = resolutionsBy
		}
		request := func(rawQuery string) *http.Request {
			return &http.Request{Method: http.MethodGet, URL: &url.URL{Path: path, RawQuery: rawQuery}}
		}
		p, err := parseParams(request(raw), allowedBy...)
		if err != nil {
			return
		}
		for _, bound := range []*float64{p.since, p.until} {
			if bound != nil && math.IsNaN(*bound) {
				t.Fatalf("%s?%s: NaN time bound accepted", path, raw)
			}
		}
		norm := p.normalized()
		again, err := parseParams(request(norm), allowedBy...)
		if err != nil {
			t.Fatalf("%s?%s: normalized form %q rejected: %v", path, raw, norm, err)
		}
		if got := again.normalized(); got != norm {
			t.Fatalf("%s?%s: normalized %q re-normalizes to %q", path, raw, norm, got)
		}
	})
}
