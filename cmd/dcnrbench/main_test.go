package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// command must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// smallConfig shrinks every workload to a fraction of a second. campaign's
// untraced run must still sweep 20 cells, so its cells simulate one year
// and leave out the backbone leg, which its traced replay keeps.
func smallConfig() config {
	cfg := defaultConfig(defaultSeed, 0.2)
	cfg.setups, cfg.setupFloor = 1, 0
	cfg.gridSeeds, cfg.gridScale, cfg.gridYear, cfg.gridNoBackbone = 1, 1, 2014, true
	cfg.figScale, cfg.serialPasses = 1, 2
	cfg.reports, cfg.warm = 2000, 25*time.Millisecond
	return cfg
}

// Every workload runs through the same function as a benchmark run, one
// untraced and one traced run each, at a small size. The printed report
// must name every metric of BENCHMARK.json with its unit, no operation or
// output check may fail, the caches must behave as each query workload
// intends, and the traces must hold spans for every timed layer.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("BENCHMARK.json names workloads %v, the command runs %v", names, want)
	}

	var out bytes.Buffer
	b := &bench{cfg: smallConfig(), repeat: 1, w: &out}
	dir := t.TempDir()
	spanLayers := map[string]bool{}
	for _, name := range names {
		cfg := b.cfg
		plain, err := runWorkload(name, cfg, dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg.traced = true
		traced, err := runWorkload(name, cfg, dir)
		if err != nil {
			t.Fatal(err)
		}
		rep := b.summarize(name, []*result{plain}, traced, nil)
		b.print(rep)
		if rep.Failed != 0 || !rep.Correct {
			t.Errorf("%s: %d of %d operations and checks failed: %v", name, rep.Failed, rep.Attempted, rep.Problems)
		}
		switch hits := rep.Layers["serve.cache_hit_ratio"]; name {
		case "query-hot":
			if hits < 0.95 {
				t.Errorf("query-hot cache hit ratio %g, want at least 0.95", hits)
			}
		case "query-cold":
			if hits > 0.05 {
				t.Errorf("query-cold cache hit ratio %g, want at most 0.05", hits)
			}
		}
		for layer := range traceLayers(t, rep.TraceFile) {
			spanLayers[layer] = true
		}
	}

	printed := map[string]string{} // "workload metric" → unit
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		if _, err := strconv.ParseFloat(f[2], 64); err == nil {
			printed[f[0]+" "+f[1]] = f[3]
		}
	}
	for _, name := range names {
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			if unit, ok := printed[name+" "+m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: %s printed with unit %q, BENCHMARK.json says %q", name, m.Name, unit, m.Unit)
			}
		}
	}

	// Layers measured only by counting (des, remediation) or by the
	// runtime have no spans of their own; every timed layer must.
	for _, m := range spec.PerLayer {
		layer, _, _ := strings.Cut(m.Name, ".")
		if layer != "des" && layer != "remediation" && layer != "runtime" && !spanLayers[layer] {
			t.Errorf("no trace has spans for layer %s (metric %s)", layer, m.Name)
		}
	}

	for _, traced := range []bool{false, true} {
		var line bytes.Buffer
		last := &bench{traced: traced, w: &line}
		last.printLastLine(b.reports[0])
		var got struct {
			Correct   *bool                      `json:"correct"`
			Attempted int                        `json:"attempted"`
			Failed    *int                       `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		dec := json.NewDecoder(&line)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil || got.Correct == nil || got.Failed == nil || got.Attempted < 1 {
			t.Fatalf("last line %q: %v", line.String(), err)
		}
		metrics := spec.EndToEnd
		if traced {
			metrics = spec.PerLayer
		}
		if len(got.Metrics) != len(metrics) {
			t.Errorf("traced=%v: last line has %d metrics, BENCHMARK.json %d", traced, len(got.Metrics), len(metrics))
		}
	}
}

// traceLayers parses a trace file and returns the layers its spans cover.
func traceLayers(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Cat   string `json:"cat"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	layers := map[string]bool{}
	for _, e := range trace.TraceEvents {
		if e.Phase == "X" {
			layers[e.Cat] = true
		}
	}
	return layers
}
