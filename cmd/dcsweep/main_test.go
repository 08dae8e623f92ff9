package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dcnr"
)

func TestParseSeeds(t *testing.T) {
	seeds, err := parseSeeds("7, 9,11", 0, 0)
	if err != nil {
		t.Fatalf("parseSeeds: %v", err)
	}
	if want := []uint64{7, 9, 11}; !reflect.DeepEqual(seeds, want) {
		t.Errorf("explicit seeds = %v, want %v", seeds, want)
	}
	seeds, err = parseSeeds("", 100, 3)
	if err != nil {
		t.Fatalf("parseSeeds(base): %v", err)
	}
	if want := []uint64{100, 101, 102}; !reflect.DeepEqual(seeds, want) {
		t.Errorf("generated seeds = %v, want %v", seeds, want)
	}
	if _, err := parseSeeds("", 1, 0); err == nil {
		t.Errorf("parseSeeds accepted zero runs")
	}
	if _, err := parseSeeds("1,x", 0, 0); err == nil {
		t.Errorf("parseSeeds accepted a non-numeric seed")
	}
}

func TestParseScenarios(t *testing.T) {
	scs, err := parseScenarios("baseline,no-remediation,elevate:2014:5")
	if err != nil {
		t.Fatalf("parseScenarios: %v", err)
	}
	if len(scs) != 3 {
		t.Fatalf("got %d scenarios, want 3", len(scs))
	}
	if !scs[1].DisableRemediation {
		t.Errorf("no-remediation spec did not disable remediation")
	}
	if scs[2].ElevateYear != 2014 || scs[2].ElevateFactor != 5 {
		t.Errorf("elevate spec parsed as %+v", scs[2])
	}
	if scs[2].Name != "elevate-2014x5" {
		t.Errorf("elevate name = %q", scs[2].Name)
	}

	def, err := parseScenarios("default")
	if err != nil {
		t.Fatalf("parseScenarios(default): %v", err)
	}
	if !reflect.DeepEqual(def, dcnr.DefaultSweepScenarios()) {
		t.Errorf("default spec = %+v, want DefaultSweepScenarios()", def)
	}

	for _, bad := range []string{"warp", "elevate:2014", "elevate:x:5", "elevate:2014:x"} {
		if _, err := parseScenarios(bad); err == nil {
			t.Errorf("parseScenarios(%q) did not fail", bad)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	var stdout bytes.Buffer
	o := options{
		seedBase:  1,
		runs:      2,
		scales:    "1",
		scenarios: "baseline",
		workers:   2,
		out:       filepath.Join(dir, "sweep_report.json"),
		runsOut:   filepath.Join(dir, "runs.jsonl"),
		stdout:    &stdout,
	}
	if err := run(o); err != nil {
		t.Fatalf("run: %v", err)
	}

	data, err := os.ReadFile(o.out)
	if err != nil {
		t.Fatalf("reading report: %v", err)
	}
	var rep dcnr.SweepReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(rep.Groups) != 1 || rep.Groups[0].Seeds != 2 {
		t.Errorf("report groups = %+v, want one baseline group over 2 seeds", rep.Groups)
	}

	runsData, err := os.ReadFile(o.runsOut)
	if err != nil {
		t.Fatalf("reading runs: %v", err)
	}
	if lines := strings.Count(string(runsData), "\n"); lines != 2 {
		t.Errorf("runs stream has %d lines, want 2", lines)
	}
	if !strings.Contains(stdout.String(), "sweep: 2 runs") {
		t.Errorf("summary output missing run count: %q", stdout.String())
	}
}

// syncBuffer is a mutex-guarded buffer so the test can read run's stdout
// while run is still writing to it from another goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunStatusAndJournal is the live-introspection end-to-end check: with
// -status-addr the campaign serves /campaign and /journal while it runs,
// and with -journal the per-run causal journals land on disk in run order.
func TestRunStatusAndJournal(t *testing.T) {
	dir := t.TempDir()
	var stdout syncBuffer
	o := options{
		seedBase:   1,
		runs:       2,
		scales:     "1",
		scenarios:  "baseline",
		workers:    1,
		out:        filepath.Join(dir, "sweep_report.json"),
		journalOut: filepath.Join(dir, "journal.jsonl"),
		statusAddr: "127.0.0.1:0",
		stdout:     &stdout,
	}
	done := make(chan error, 1)
	go func() { done <- run(o) }()

	// The bound address is printed before the sweep starts; poll for it.
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("status address never printed; stdout: %q", stdout.String())
		}
		if _, rest, ok := strings.Cut(stdout.String(), "status: http://"); ok {
			addr = strings.Fields(rest)[0]
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Query the campaign while it runs: the grid is visible immediately,
	// completion counts trail the workers.
	resp, err := http.Get("http://" + addr + "/campaign")
	if err != nil {
		t.Fatalf("GET /campaign: %v", err)
	}
	var cs dcnr.SweepCampaignStatus
	err = json.NewDecoder(resp.Body).Decode(&cs)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/campaign is not valid JSON: %v", err)
	}
	if cs.Total != 2 || len(cs.Runs) != 2 {
		t.Errorf("/campaign reports %d runs (%d rows), want 2", cs.Total, len(cs.Runs))
	}
	resp, err = http.Get("http://" + addr + "/journal")
	if err != nil {
		t.Fatalf("GET /journal: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("GET /journal: status %d", resp.StatusCode)
	}
	// No process keeps a wall-clock metric history: dcnrtop derives its
	// series from /campaign.
	resp, err = http.Get("http://" + addr + "/metrics/history?from=0")
	if err != nil {
		t.Fatalf("GET /metrics/history: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /metrics/history: status %d, want 404", resp.StatusCode)
	}

	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}

	// The journal stream carries one header per run, in run order, each
	// followed by that run's records.
	data, err := os.ReadFile(o.journalOut)
	if err != nil {
		t.Fatalf("reading journal: %v", err)
	}
	headers, records := 0, 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec struct {
			Run  *int   `json:"run"`
			ID   int    `json:"id"`
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line is not JSON: %v\n%s", err, line)
		}
		if rec.ID == 0 {
			if rec.Run == nil || *rec.Run != headers {
				t.Fatalf("journal header out of order: %s", line)
			}
			headers++
			continue
		}
		records++
	}
	if headers != 2 {
		t.Errorf("journal has %d run headers, want 2", headers)
	}
	if records == 0 {
		t.Error("journal has no records")
	}
}

// TestServeStatusShutdownJoins pins the status-server lifecycle: shutdown
// returns only after the serving goroutine exits, severs a client holding
// a half-sent request open rather than waiting out its header timeout, and
// releases the port — nothing serveStatus spawned outlives the call.
func TestServeStatusShutdownJoins(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	shutdown, addr, err := serveStatus("127.0.0.1:0", dcnr.NewSweepStatus(), logger)
	if err != nil {
		t.Fatalf("serveStatus: %v", err)
	}

	// Hold a request half-sent: the headers never end, so the server's
	// connection goroutine is parked reading them.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /campaign HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatalf("writing half a request: %v", err)
	}

	returned := make(chan struct{})
	go func() {
		shutdown()
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown did not return with a half-sent request open; serving goroutine not joined")
	}

	// The held connection was severed, so reading it ends.
	readDone := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, conn)
		readDone <- err
	}()
	select {
	case <-readDone:
	case <-time.After(5 * time.Second):
		t.Fatal("half-sent request's connection still open after shutdown")
	}

	// And the port is free for the next campaign.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("address still bound after shutdown: %v", err)
	}
	ln.Close()
	if s := logBuf.String(); strings.Contains(s, "status server stopped") {
		t.Errorf("clean shutdown logged a server failure: %s", s)
	}
}

// TestRunStatusBindFailureLogs pins the degraded path: an unbindable
// -status-addr is reported through the ops logger (stderr by default) and
// the campaign still completes.
func TestRunStatusBindFailureLogs(t *testing.T) {
	dir := t.TempDir()
	var logBuf bytes.Buffer
	o := options{
		seedBase:   1,
		runs:       1,
		scales:     "1",
		scenarios:  "baseline",
		out:        filepath.Join(dir, "sweep_report.json"),
		statusAddr: "256.256.256.256:0",
		logW:       &logBuf,
		stdout:     &bytes.Buffer{},
	}
	if err := run(o); err != nil {
		t.Fatalf("bind failure aborted the campaign: %v", err)
	}
	if _, err := os.Stat(o.out); err != nil {
		t.Errorf("campaign report missing after bind failure: %v", err)
	}
	if !strings.Contains(logBuf.String(), "failed to bind") {
		t.Errorf("bind failure not logged: %q", logBuf.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	base := options{seedBase: 1, runs: 1, scales: "1", scenarios: "baseline", out: filepath.Join(t.TempDir(), "r.json")}
	for name, mutate := range map[string]func(*options){
		"bad scale":    func(o *options) { o.scales = "one" },
		"bad scenario": func(o *options) { o.scenarios = "warp" },
		"zero runs":    func(o *options) { o.runs = 0 },
		"bad seeds":    func(o *options) { o.seeds = "1,frog" },
	} {
		o := base
		mutate(&o)
		if err := run(o); err == nil {
			t.Errorf("%s: run accepted invalid options", name)
		}
	}
}

// TestLogLevelAloneInstallsNoRegistry pins that -log-level only logs: the
// campaign registry (and with it the merge of every run's private one) is
// installed for -metrics-out alone, and the per-run progress records are
// still written without it.
func TestLogLevelAloneInstallsNoRegistry(t *testing.T) {
	var logBuf bytes.Buffer
	o := options{
		seedBase:  1,
		runs:      1,
		scales:    "1",
		scenarios: "baseline",
		out:       filepath.Join(t.TempDir(), "sweep_report.json"),
		logLevel:  "info",
		logW:      &logBuf,
		stdout:    &bytes.Buffer{},
	}
	cfg, _, err := sweepConfig(o)
	if err != nil {
		t.Fatalf("sweepConfig: %v", err)
	}
	if cfg.Observe.Metrics != nil {
		t.Error("-log-level alone installed a metrics registry")
	}
	if cfg.Observe.Logger == nil {
		t.Error("-log-level installed no logger")
	}
	withMetrics := o
	withMetrics.metricsOut = "m.json"
	if cfg, _, err := sweepConfig(withMetrics); err != nil || cfg.Observe.Metrics == nil {
		t.Errorf("-metrics-out: registry %v, err %v; want a registry", cfg.Observe.Metrics, err)
	}

	if err := run(o); err != nil {
		t.Fatalf("run: %v", err)
	}
	if n := strings.Count(logBuf.String(), "sweep run complete"); n != 1 {
		t.Errorf("got %d progress records, want 1: %q", n, logBuf.String())
	}
}
