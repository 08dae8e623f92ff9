package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"dcnr/internal/obs"
)

// tracer records one span per call the benchmark makes into a layer's
// public functions, on the repository's own obs.Tracer. Every span carries
// its op id, its own id and its parent's id (0 for a root), so a layer's
// self time can be told apart from the time its callees took. The spans
// stay in memory until the run ends. A nil *tracer records nothing but
// still times the calls, so traced and untraced runs share one code path.
type tracer struct {
	tr  *obs.Tracer
	ids atomic.Int64
}

func newTracer() *tracer { return &tracer{tr: obs.NewTracer()} }

// record adds a completed span: layer is the module called, and the span
// started at start and lasted d. It returns the span's id (0 when t is
// nil).
func (t *tracer) record(lane int, layer, name string, op, parent int64, start time.Time, d time.Duration) int64 {
	id := t.newID()
	t.recordAs(id, lane, layer, name, op, parent, start, d)
	return id
}

// newID reserves a span id for a span whose children are recorded before
// it ends; close it with recordAs.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// recordAs adds a completed span under an id reserved by newID.
func (t *tracer) recordAs(id int64, lane int, layer, name string, op, parent int64, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.tr.Emit(obs.Event{
		Name: name, Cat: layer, Phase: "X",
		TS:   t.tr.Now() - durUS(time.Since(start)),
		Dur:  durUS(d),
		TID:  lane,
		Args: map[string]any{"op": op, "id": id, "parent": parent},
	})
}

// call times fn as a span of layer under parent and returns its duration.
func (t *tracer) call(lane int, layer, name string, op, parent int64, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	t.record(lane, layer, name, op, parent, start, d)
	return d
}

// write saves the spans as Chrome trace-event JSON to dir/<workload>.trace.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := errors.Join(t.tr.WriteJSON(f), f.Close()); err != nil {
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, nil
}

// layerTime is one layer's share of a traced run.
type layerTime struct {
	Spans  int     `json:"spans"`
	SelfMS float64 `json:"self_ms"`
}

// selfTimes returns each layer's span count and self time: the sum over
// its spans of the span's duration minus the part of it that the span's
// children cover. Children may overlap (a fan-out), so their intervals are
// merged before being subtracted.
func selfTimes(events []obs.Event) map[string]layerTime {
	type iv struct{ lo, hi float64 }
	children := make(map[int64][]iv)
	var spans []obs.Event
	for _, e := range events {
		if e.Phase != "X" || e.Args == nil {
			continue
		}
		spans = append(spans, e)
		if p, _ := e.Args["parent"].(int64); p != 0 {
			children[p] = append(children[p], iv{e.TS, e.TS + e.Dur})
		}
	}
	out := make(map[string]layerTime)
	for _, e := range spans {
		id, _ := e.Args["id"].(int64)
		kids := children[id]
		sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
		covered, hi := 0.0, e.TS
		for _, k := range kids {
			lo := max(k.lo, hi)
			end := min(k.hi, e.TS+e.Dur)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		lt := out[e.Cat]
		lt.Spans++
		lt.SelfMS += (e.Dur - covered) / 1000
		out[e.Cat] = lt
	}
	return out
}
