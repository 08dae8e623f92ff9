package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dcnr"
	"dcnr/internal/serve"
)

// datasetFile writes a small dataset over every device type, severity,
// several years and root causes, and returns its path.
func datasetFile(t *testing.T) string {
	t.Helper()
	devices := []string{
		"rsw001.cl001.dc1.ra", "csw001.cl001.dc1.ra", "csa001.dc1.ra",
		"esw001.cl001.dc1.ra", "ssw001.cl001.dc1.ra", "fsw001.cl001.dc1.ra",
		"core001.dc1.ra",
	}
	store := dcnr.NewSEVStore()
	for i := 0; i < 60; i++ {
		r := dcnr.SEVReport{
			Severity:   dcnr.Severity(1 + i%3),
			Device:     devices[i%len(devices)],
			Start:      float64(i * 500),
			Duration:   1,
			Resolution: float64(2 + i%11),
			Year:       2011 + i%7,
			Title:      "incident " + strconv.Itoa(i),
		}
		if i%4 != 0 {
			r.RootCauses = []dcnr.RootCause{dcnr.RootCauses[i%len(dcnr.RootCauses)]}
		}
		if _, err := store.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "sevs.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := store.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// serveDataset starts a daemon on the dataset at path and returns its
// base URL.
func serveDataset(t *testing.T, path string) string {
	t.Helper()
	cfg := serve.Config{Addr: "127.0.0.1:0"}
	d, err := serve.NewDaemon(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Shutdown)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := d.LoadJSON(f); err != nil {
		t.Fatal(err)
	}
	addr, err := d.Start()
	if err != nil {
		t.Fatal(err)
	}
	return "http://" + addr
}

// get returns the daemon's status and body for target.
func get(t *testing.T, base, target string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + target)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// hotTargets reads the twelve paper-weighted hot-mix targets from the
// query grammar's fuzz corpus.
func hotTargets(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("../../internal/serve/testdata/fuzz/FuzzParseParams/hot-*")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		var args []string
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if s, ok := strings.CutPrefix(sc.Text(), "string("); ok {
				v, err := strconv.Unquote(strings.TrimSuffix(s, ")"))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				args = append(args, v)
			}
		}
		f.Close()
		if len(args) != 2 {
			t.Fatalf("%s: %d string arguments, want 2", name, len(args))
		}
		target := args[0]
		if args[1] != "" {
			target += "?" + args[1]
		}
		out = append(out, target)
	}
	if len(out) != 12 {
		t.Fatalf("%d hot-mix targets, want 12", len(out))
	}
	return out
}

// TestAnswersMatchDaemon: on every hot-mix target, and on filtered and
// re-spelled ones, sevquery writes exactly the body a daemon serving the
// same file answers.
func TestAnswersMatchDaemon(t *testing.T) {
	path := datasetFile(t)
	base := serveDataset(t, path)
	targets := append(hotTargets(t),
		"/query/count?year=2017&by=device",
		"/query/count?device=rsw&severity=SEV1",
		"/query/count?cause=configuration&by=year-severity",
		"/query/count?design=fabric&by=year-design",
		"/query/count?since=-Inf&until=%2BInf",
		"/query/resolutions?year=2016&by=device",
	)
	for _, target := range targets {
		code, want := get(t, base, target)
		if code != http.StatusOK {
			t.Fatalf("daemon %s: %d %s", target, code, want)
		}
		var got bytes.Buffer
		if err := run(&got, path, target); err != nil {
			t.Errorf("sevquery %s: %v", target, err)
			continue
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s:\nsevquery %s\ndaemon   %s", target, got.Bytes(), want)
		}
	}
}

// TestErrorsMatchDaemon: sevquery fails exactly where the daemon answers
// non-200 — the old flag errors (unknown type, severity 9, unknown cause,
// unknown grouping) spelled as targets, a NaN bound, an unknown or
// repeated key, a malformed query string and an unknown path — and on a
// missing file.
func TestErrorsMatchDaemon(t *testing.T) {
	path := datasetFile(t)
	base := serveDataset(t, path)
	for _, target := range []string{
		"/query/count?device=XYZ",
		"/query/count?severity=9",
		"/query/count?cause=Gremlins",
		"/query/count?by=vibes",
		"/query/resolutions?by=severity",
		"/query/count?since=NaN",
		"/query/count?yaer=2017",
		"/query/count?year=2013&year=2014",
		"/query/count?by=year&x=%zz",
		"/query/counts",
	} {
		if code, body := get(t, base, target); code == http.StatusOK {
			t.Errorf("daemon %s: 200 %s, want an error status", target, body)
		}
		if err := run(io.Discard, path, target); err == nil {
			t.Errorf("sevquery %s: accepted", target)
		}
	}
	if err := run(io.Discard, filepath.Join(t.TempDir(), "missing.json"), "/query/count"); err == nil {
		t.Error("missing file accepted")
	}
}
