package wan

import (
	"math"
	"testing"
	"testing/quick"
)

func testBackbone(t *testing.T) *Backbone {
	t.Helper()
	b, err := New(Config{Regions: []string{"east", "west", "central"}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{},
		{Regions: []string{"only"}},
		{Regions: []string{"a", "a"}},
		{Regions: []string{"a", ""}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestDefaults(t *testing.T) {
	b := testBackbone(t)
	if b.Planes() != 4 {
		t.Errorf("planes = %d", b.Planes())
	}
	if got := b.UpPlanes("east", "west"); got != 4 {
		t.Errorf("up planes = %d", got)
	}
	if len(b.Regions()) != 3 {
		t.Errorf("regions = %v", b.Regions())
	}
}

func TestSetLinkDownValidation(t *testing.T) {
	b := testBackbone(t)
	if err := b.SetLinkDown("east", "nowhere", 0, true); err == nil {
		t.Error("unknown region accepted")
	}
	if err := b.SetLinkDown("east", "east", 0, true); err == nil {
		t.Error("self link accepted")
	}
	if err := b.SetLinkDown("east", "west", 9, true); err == nil {
		t.Error("bad plane accepted")
	}
	if err := b.SetLinkDown("east", "west", 1, true); err != nil {
		t.Fatal(err)
	}
	if got := b.UpPlanes("east", "west"); got != 3 {
		t.Errorf("up planes after cut = %d", got)
	}
	// Symmetric: the same link seen from the other side.
	if got := b.UpPlanes("west", "east"); got != 3 {
		t.Errorf("up planes asymmetric: %d", got)
	}
	if err := b.SetLinkDown("west", "east", 1, false); err != nil {
		t.Fatal(err)
	}
	if got := b.UpPlanes("east", "west"); got != 4 {
		t.Errorf("repair did not restore: %d", got)
	}
}

func TestEngineerHealthyDirect(t *testing.T) {
	b := testBackbone(t)
	rep, err := b.Engineer([]Demand{{From: "east", To: "west", Gbps: 600}})
	if err != nil {
		t.Fatal(err)
	}
	f := rep.Flows[0]
	if f.DirectGbps != 600 || f.ReroutedGbps != 0 || f.DroppedGbps != 0 {
		t.Errorf("flow = %+v", f)
	}
	if rep.MeanPathHops != 1 {
		t.Errorf("hops = %v, want 1 (all direct)", rep.MeanPathHops)
	}
	// 600 over planes of 400: plane0 full, plane1 at 50%.
	if u := rep.Utilization["east-west/plane0"]; u != 1 {
		t.Errorf("plane0 util = %v", u)
	}
	if u := rep.Utilization["east-west/plane1"]; u != 0.5 {
		t.Errorf("plane1 util = %v", u)
	}
}

func TestEngineerValidation(t *testing.T) {
	b := testBackbone(t)
	bad := [][]Demand{
		{{From: "east", To: "nowhere", Gbps: 1}},
		{{From: "east", To: "east", Gbps: 1}},
		{{From: "east", To: "west", Gbps: -1}},
	}
	for i, demands := range bad {
		if _, err := b.Engineer(demands); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestFiberCutsForceRerouting(t *testing.T) {
	// §3.2: fiber cuts cost capacity; traffic reroutes over other links
	// at a latency cost.
	b := testBackbone(t)
	// Cut 3 of 4 east-west planes: direct capacity drops to 400.
	for p := 0; p < 3; p++ {
		if err := b.SetLinkDown("east", "west", p, true); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := b.Engineer([]Demand{{From: "east", To: "west", Gbps: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	f := rep.Flows[0]
	if f.DirectGbps != 400 {
		t.Errorf("direct = %v, want the surviving plane's 400", f.DirectGbps)
	}
	if f.ReroutedGbps != 600 || f.Via != "central" {
		t.Errorf("rerouted = %v via %q, want 600 via central", f.ReroutedGbps, f.Via)
	}
	if f.DroppedGbps != 0 {
		t.Errorf("dropped = %v; path diversity should carry everything", f.DroppedGbps)
	}
	// Latency proxy: rerouted volume doubles its hops.
	wantHops := (400*1 + 600*2) / 1000.0
	if math.Abs(rep.MeanPathHops-wantHops) > 1e-9 {
		t.Errorf("hops = %v, want %v", rep.MeanPathHops, wantHops)
	}
}

func TestTotalSeveranceDropsTraffic(t *testing.T) {
	// Only when *every* path is gone does traffic drop — the partition
	// case Facebook's planning avoids.
	b := testBackbone(t)
	for p := 0; p < 4; p++ {
		if err := b.SetLinkDown("east", "west", p, true); err != nil {
			t.Fatal(err)
		}
		if err := b.SetLinkDown("east", "central", p, true); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := b.Engineer([]Demand{{From: "east", To: "west", Gbps: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Flows[0].DroppedGbps != 100 {
		t.Errorf("dropped = %v, want all 100 (east fully severed)", rep.Flows[0].DroppedGbps)
	}
}

func TestDetourCapacityIsMinOfLegs(t *testing.T) {
	b := testBackbone(t)
	// east-west fully cut; east-central down to one plane (400);
	// central-west full (1600). Detour capacity = min = 400.
	for p := 0; p < 4; p++ {
		if err := b.SetLinkDown("east", "west", p, true); err != nil {
			t.Fatal(err)
		}
	}
	for p := 1; p < 4; p++ {
		if err := b.SetLinkDown("east", "central", p, true); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := b.Engineer([]Demand{{From: "east", To: "west", Gbps: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	f := rep.Flows[0]
	if f.ReroutedGbps != 400 || f.DroppedGbps != 600 {
		t.Errorf("flow = %+v, want 400 rerouted / 600 dropped", f)
	}
}

func TestEngineerConservesVolume(t *testing.T) {
	f := func(cutMask uint16, d1, d2 uint8) bool {
		b, err := New(Config{Regions: []string{"a", "b", "c", "d"}})
		if err != nil {
			return false
		}
		// Apply up to 16 pseudo-random cuts between a-b and a-c.
		for p := 0; p < 4; p++ {
			if cutMask&(1<<p) != 0 {
				b.SetLinkDown("a", "b", p, true)
			}
			if cutMask&(1<<(4+p)) != 0 {
				b.SetLinkDown("a", "c", p, true)
			}
		}
		demands := []Demand{
			{From: "a", To: "b", Gbps: float64(d1) * 10},
			{From: "a", To: "c", Gbps: float64(d2) * 10},
		}
		rep, err := b.Engineer(demands)
		if err != nil {
			return false
		}
		for _, fl := range rep.Flows {
			sum := fl.DirectGbps + fl.ReroutedGbps + fl.DroppedGbps
			if math.Abs(sum-fl.Demand.Gbps) > 1e-6 {
				return false
			}
		}
		for _, u := range rep.Utilization {
			if u < -1e-9 || u > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineerEmptyDemands(t *testing.T) {
	b := testBackbone(t)
	rep, err := b.Engineer(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalGbps != 0 || rep.MeanPathHops != 0 {
		t.Errorf("empty report = %+v", rep)
	}
}

func BenchmarkEngineer(b *testing.B) {
	bb, err := New(Config{Regions: []string{"r1", "r2", "r3", "r4", "r5", "r6"}})
	if err != nil {
		b.Fatal(err)
	}
	var demands []Demand
	regions := bb.Regions()
	for i, a := range regions {
		for _, r := range regions[i+1:] {
			demands = append(demands, Demand{From: a, To: r, Gbps: 300})
		}
	}
	bb.SetLinkDown("r1", "r2", 0, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bb.Engineer(demands); err != nil {
			b.Fatal(err)
		}
	}
}
