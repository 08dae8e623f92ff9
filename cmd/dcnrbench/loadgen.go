package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// loadgen drives HTTP load from this process with a fixed number of
// senders, each a goroutine with its own keep-alive connection; the
// transport refuses to open more connections than senders.
type loadgen struct {
	client  *http.Client
	base    string
	senders int
}

func newLoadgen(base string, senders int) *loadgen {
	tr := &http.Transport{
		MaxConnsPerHost:     senders,
		MaxIdleConnsPerHost: senders,
		DisableCompression:  true,
	}
	return &loadgen{client: &http.Client{Transport: tr}, base: base, senders: senders}
}

// close drops the idle keep-alive connections.
func (g *loadgen) close() { g.client.Transport.(*http.Transport).CloseIdleConnections() }

// request is one generated operation. A nil body means GET.
type request struct {
	path  string
	body  []byte
	query *qspec // the structured query behind path; nil for ingests
	keep  bool   // keep the response body for an output check
}

// record is one completed request, its times measured from the phase
// start: claim is when a sender took the request, due when the schedule
// wanted it sent, sent and done bracket the HTTP round trip.
type record struct {
	i                      int
	req                    request
	claim, due, sent, done time.Duration
	status                 int
	cache                  string // X-Cache response header
	body                   []byte // response body, when req.keep
	err                    error
}

// latency is the request's latency as a user sees it: from when it was
// due, so time spent queued behind a stalled request counts.
func (r *record) latency() time.Duration { return r.done - r.due }

// lag is how late the generator sent the request.
func (r *record) lag() time.Duration { return r.sent - r.due }

// roundTrip is the HTTP call alone.
func (r *record) roundTrip() time.Duration { return r.done - r.sent }

func (r *record) ok() bool { return r.err == nil && r.status == http.StatusOK }

// run generates load for dur. rate 0 is a closed loop: each sender issues
// its next request as soon as the previous one completes. rate > 0 is an
// open loop: request i is due at i/rate seconds whatever the completions,
// and a request whose sender is still busy waits, its wait counted in its
// latency. next builds request i; done receives each completed request on
// its sender's goroutine, outside its timing, with the phase's start.
func (g *loadgen) run(dur time.Duration, rate float64, next func(i int, now time.Duration) request, done func(sender int, start time.Time, rec *record)) {
	start := time.Now()
	var counter atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < g.senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(counter.Add(1) - 1)
				claim := time.Since(start)
				due := claim
				if rate > 0 {
					due = time.Duration(float64(i) / rate * float64(time.Second))
				}
				if due >= dur {
					return
				}
				if wait := due - time.Since(start); wait > 0 {
					sleep(wait)
				}
				rec := record{i: i, req: next(i, due), claim: claim, due: due}
				g.do(start, &rec)
				done(s, start, &rec)
			}
		}()
	}
	wg.Wait()
}

// do sends one request and fills in its times, status and body.
func (g *loadgen) do(start time.Time, rec *record) {
	method, body := http.MethodGet, io.Reader(nil)
	if rec.req.body != nil {
		method, body = http.MethodPost, bytes.NewReader(rec.req.body)
	}
	rec.sent = time.Since(start)
	defer func() { rec.done = time.Since(start) }()
	req, err := http.NewRequest(method, g.base+rec.req.path, body)
	if err != nil {
		rec.err = err
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		rec.err = err
		return
	}
	defer resp.Body.Close()
	rec.status = resp.StatusCode
	rec.cache = resp.Header.Get("X-Cache")
	if rec.req.keep {
		rec.body, rec.err = io.ReadAll(resp.Body)
		return
	}
	_, rec.err = io.Copy(io.Discard, resp.Body)
}

// sleep blocks the calling goroutine's thread for d. time.Sleep would
// round a wait shorter than a millisecond up to the netpoller's 1 ms tick,
// far coarser than the gaps between an open loop's requests; nanosleep
// overshoots by the kernel's timer slack, about 50 µs, which the requests
// report as lag.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
