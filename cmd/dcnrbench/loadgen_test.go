package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls once must show in the latency of every request
// queued behind the stall, not only in the stalled one: the open loop
// times requests from when they were due.
func TestOpenLoopChargesTheStallToQueuedRequests(t *testing.T) {
	const (
		stalled = 5
		stall   = 50 * time.Millisecond
		every   = time.Millisecond
	)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)-1 == stalled {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	g := newLoadgen(srv.URL, 1)
	defer g.close()

	var recs []record
	g.run(150*time.Millisecond, float64(time.Second/every), func(int, time.Duration) request {
		return request{path: "/"}
	}, func(_ int, _ time.Time, rec *record) { recs = append(recs, *rec) })

	if len(recs) < 100 {
		t.Fatalf("%d requests completed, want about 150", len(recs))
	}
	for _, rec := range recs {
		if !rec.ok() {
			t.Fatalf("request %d: status %d, %v", rec.i, rec.status, rec.err)
		}
	}
	// Request i (due at i ms) waited for the stalled one to finish, at
	// stalled ms + stall at the earliest.
	stallEnd := recs[stalled].due + stall
	queued := 0
	for _, rec := range recs[stalled+1:] {
		if rec.due >= stallEnd {
			break
		}
		queued++
		if want := stallEnd - rec.due; rec.latency() < want || rec.lag() < want-every {
			t.Errorf("request %d due %v: latency %v, lag %v; want both at least %v", rec.i, rec.due, rec.latency(), rec.lag(), want)
		}
	}
	if queued < 40 {
		t.Errorf("%d requests were due during the stall, want about 50", queued)
	}
	if last := recs[len(recs)-1]; last.latency() > 20*time.Millisecond {
		t.Errorf("last request latency %v: the generator never caught up after the stall", last.latency())
	}
}
