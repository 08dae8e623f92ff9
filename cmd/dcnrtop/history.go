package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
)

// maxPoints bounds each metric's in-memory history: enough for the widest
// plausible sparkline many times over, tiny either way.
const maxPoints = 600

// histories accumulates per-metric sample values polled from the
// timeline's /metrics/history, keeping the most recent max of each.
type histories struct {
	max  int
	data map[string][]float64
	// last is the t of the newest sample held (-Inf before any). Each poll
	// asks for from=last; that bound is inclusive, so samples at or before
	// last are ones already held and are dropped.
	last float64
}

func newHistories(max int) *histories {
	return &histories{max: max, data: make(map[string][]float64), last: math.Inf(-1)}
}

// add appends one sample value to metric's history, evicting the oldest
// point once the cap is reached.
func (h *histories) add(metric string, v float64) {
	vals := append(h.data[metric], v)
	if len(vals) > h.max {
		vals = vals[len(vals)-h.max:]
	}
	h.data[metric] = vals
}

// metricNames returns the history's metric names, sorted for a stable
// render order.
func metricNames(hist map[string][]float64) []string {
	names := make([]string, 0, len(hist))
	for m := range hist {
		names = append(names, m)
	}
	sort.Strings(names)
	return names
}

// poll fetches the samples not yet held from the /metrics/history endpoint
// at url — the whole history on the first poll — and records them. Errors
// are absorbed: a dashboard whose history source is down or absent keeps
// rendering the campaign snapshot with the sparklines it has.
func (h *histories) poll(ctx context.Context, client *http.Client, url string) {
	url += "?from=" + strconv.FormatFloat(h.last, 'g', -1, 64)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	h.ingest(resp.Body)
}

// maxLine bounds one history line. A longer line is skipped whole and
// reading goes on at the next one.
const maxLine = 1 << 20

// ingest records every sample of a JSONL history body that is newer than
// the newest one held before the call. The body is in time order, so a
// poll's samples that share its newest t all land together; last becomes
// the largest t recorded, so a body out of order cannot move it back and
// have the next poll count a sample twice. Unparseable and over-long lines
// are skipped: one bad sample must not wedge the dashboard.
func (h *histories) ingest(r io.Reader) {
	cut := h.last
	br := bufio.NewReader(r)
	var line []byte
	for {
		frag, more, err := br.ReadLine()
		if err != nil {
			return
		}
		if len(line) <= maxLine {
			line = append(line, frag...)
		}
		if more {
			continue
		}
		var s struct {
			T float64 `json:"t"`
			M string  `json:"m"`
			V float64 `json:"v"`
		}
		if len(line) <= maxLine && json.Unmarshal(line, &s) == nil && s.M != "" && s.T > cut {
			h.add(s.M, s.V)
			h.last = max(h.last, s.T)
		}
		line = line[:0]
	}
}
