package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"dcnr"
)

func TestRunSingleExperiments(t *testing.T) {
	// One shared dataset build covers the cheap experiments; the heavy
	// all-experiments path is exercised by TestRunAll below (not in
	// -short mode).
	d := &datasets{seed: 7, scale: 1}
	cheap := []string{"table3", "fig6", "fig11", "ablation-redundancy", "congestion", "wan-reroute", "drill-suite", "ablation-config"}
	for _, id := range cheap {
		var b strings.Builder
		if err := experiments[id].run(d, &b); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(b.String(), experiments[id].title) {
			t.Errorf("%s output missing title", id)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "fig99", &datasets{seed: 1, scale: 1}, 1); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	if len(experimentOrder) != len(experiments) {
		t.Fatalf("order lists %d, registry has %d", len(experimentOrder), len(experiments))
	}
	for _, id := range experimentOrder {
		def, ok := experiments[id]
		if !ok {
			t.Errorf("%s in order but not registry", id)
			continue
		}
		if def.title == "" || def.run == nil {
			t.Errorf("%s has empty definition", id)
		}
	}
}

func TestRunAllAndVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	// Two pool sizes are compared below: the default one and a serial one.
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	var b strings.Builder
	d := &datasets{seed: 20181031, scale: 1, trace: dcnr.NewTracer()}
	if err := run(&b, "", d, 0); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	checkAllGolden(t, out, "default pool")
	for _, want := range []string{"Table 1", "Table 4", "Figure 15", "Figure 18", "Ablation", "WAN", "Per-analysis wall time", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("all-experiments output missing %q", want)
		}
	}
	// Asked for 0 workers, the footer reports the pool that ran.
	ran := min(runtime.GOMAXPROCS(0), len(experimentOrder))
	if want := fmt.Sprintf("wall clock (%d workers)", ran); !strings.Contains(out, want) {
		t.Errorf("footer missing %q", want)
	}
	// The fan-out must not perturb output order: experiments appear in
	// paper order regardless of which worker finished first.
	if strings.Index(out, "Table 1") > strings.Index(out, "Figure 15") {
		t.Error("parallel run reordered experiment output")
	}
	// The footer was rebuilt from trace spans: every experiment has a
	// recorded analysis span, plus the two dataset builds.
	spans := map[string]bool{}
	for _, e := range d.trace.Events() {
		if e.Phase == "X" && (e.Cat == datasetCat || e.Cat == analysisCat) {
			spans[e.Name] = true
		}
	}
	for _, id := range append(append([]string{}, buildNames...), experimentOrder...) {
		if !spans[id] {
			t.Errorf("no trace span recorded for %s", id)
		}
	}
	var serial strings.Builder
	if err := run(&serial, "", &datasets{seed: 20181031, scale: 1}, 1); err != nil {
		t.Fatal(err)
	}
	checkAllGolden(t, serial.String(), "serial")
	b.Reset()
	ok, err := runVerify(&b, &datasets{seed: 20181031, scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("verification failed:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "claims reproduced") {
		t.Error("scoreboard footer missing")
	}
}

// checkAllGolden pins the all-experiments text at the default seed and
// scale 1 up to the wall-time footer, whose timings vary from run to run.
func checkAllGolden(t *testing.T, out, pool string) {
	t.Helper()
	const want = "2439e32eea1e5830824ab8aaa647378fd3a19205ccd1ae655fb06ed9089ff434"
	body, _, found := strings.Cut(out, "Per-analysis wall time\n")
	if !found {
		t.Fatalf("%s: no wall-time footer", pool)
	}
	sum := sha256.Sum256([]byte(body))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s: all-experiments text sha256 = %s, want %s", pool, got, want)
	}
}

func TestMetricsServerEndpoints(t *testing.T) {
	reg := dcnr.NewMetricsRegistry()
	reg.Counter("repro_test_total").Add(7)
	eng, err := dcnr.NewHealthEngine(dcnr.HealthTargetsForScale(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	shutdown, addr, err := startMetricsServer("127.0.0.1:0", reg, eng, dcnr.NewJournal())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	fetch := func(addr, path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s%s: %v", addr, path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s%s: reading body: %v", addr, path, err)
		}
		return resp.StatusCode, string(body)
	}
	getFrom := func(addr, path string) string {
		t.Helper()
		code, body := fetch(addr, path)
		if code != http.StatusOK {
			t.Fatalf("GET %s%s: status %d", addr, path, code)
		}
		return body
	}
	get := func(path string) string {
		t.Helper()
		return getFrom(addr, path)
	}

	if body := get("/metrics"); !strings.Contains(body, "repro_test_total 7") {
		t.Errorf("/metrics missing Prometheus exposition:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index missing profiles:\n%s", body)
	}
	// An idle engine with no rule firing answers healthy, and /slo serves
	// the engine's JSON report.
	if body := get("/healthz"); !strings.Contains(body, "ok") {
		t.Errorf("/healthz not ok for quiet engine:\n%s", body)
	}
	var rep dcnr.SLOReport
	if err := json.Unmarshal([]byte(get("/slo")), &rep); err != nil {
		t.Errorf("/slo is not a JSON SLO report: %v", err)
	}
	if !rep.Healthy {
		t.Error("/slo reports unhealthy for a quiet engine")
	}
	if len(rep.Rules) == 0 {
		t.Error("/slo report lists no rules")
	}
	// /journal serves the causal journal's summary — empty before any
	// simulation has recorded into it, but well-formed JSON.
	var jsum dcnr.JournalSummary
	if err := json.Unmarshal([]byte(get("/journal")), &jsum); err != nil {
		t.Errorf("/journal is not a JSON journal summary: %v", err)
	}
	if jsum.Records != 0 {
		t.Errorf("/journal reports %d records for an idle journal", jsum.Records)
	}

	// The expvar exposition and the wall-clock metric history are gone:
	// /metrics is the one metrics path.
	for _, path := range []string{"/debug/vars", "/metrics/history"} {
		if code, _ := fetch(addr, path); code != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, code)
		}
	}

	// A second server (tests and reruns) serves its own registry, and the
	// first keeps serving its own. A nil engine reads as permanently
	// healthy.
	reg2 := dcnr.NewMetricsRegistry()
	reg2.Counter("repro_second_total").Inc()
	shutdown2, addr2, err := startMetricsServer("127.0.0.1:0", reg2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown2()
	if body := get("/metrics"); !strings.Contains(body, "repro_test_total 7") || strings.Contains(body, "repro_second_total") {
		t.Errorf("first server not serving only its own registry after a second started:\n%s", body)
	}
	if body := getFrom(addr2, "/metrics"); !strings.Contains(body, "repro_second_total 1") || strings.Contains(body, "repro_test_total") {
		t.Errorf("second server not serving only its own registry:\n%s", body)
	}
}

// TestMetricsServerShutdownJoins pins the server lifecycle: shutdown
// returns only after the serving goroutine has exited, and the port is
// actually released — no goroutine or listener outlives the call.
func TestMetricsServerShutdownJoins(t *testing.T) {
	shutdown, addr, err := startMetricsServer("127.0.0.1:0", dcnr.NewMetricsRegistry(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	returned := make(chan struct{})
	go func() {
		shutdown()
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown did not return; serving goroutine not joined")
	}
	// The listener must be gone: a fresh bind of the same address succeeds.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("address still bound after shutdown: %v", err)
	}
	ln.Close()
	// A second shutdown-after-shutdown must not panic or hang (Close is
	// idempotent and the done channel is already closed).
	shutdown()
}
