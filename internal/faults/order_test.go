package faults

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"dcnr/internal/fleet"
	"dcnr/internal/topology"
)

// referenceFaultOrder is the comparison sort sortFaultKeys stands in for:
// by start, ties by draw index.
func referenceFaultOrder(keys []faultKey) []faultKey {
	out := slices.Clone(keys)
	slices.SortFunc(out, func(a, b faultKey) int {
		switch {
		case a.start < b.start:
			return -1
		case a.start > b.start:
			return 1
		}
		return int(a.draw - b.draw)
	})
	return out
}

// keysInDrawOrder builds the keys armFaults sorts: one per start, in draw
// order.
func keysInDrawOrder(starts []float64) []faultKey {
	keys := make([]faultKey, len(starts))
	for i, s := range starts {
		keys[i] = faultKey{start: s, draw: int32(i)}
	}
	return keys
}

// checkFaultOrder fails t unless sortFaultKeys puts keys in the reference
// order.
func checkFaultOrder(t *testing.T, label string, keys []faultKey) {
	t.Helper()
	want := referenceFaultOrder(keys)
	got := sortFaultKeys(slices.Clone(keys))
	if !slices.Equal(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: position %d of %d: radix sort gave %+v, SortFunc %+v",
					label, i, len(want), got[i], want[i])
			}
		}
	}
}

// TestRadixSortMatchesSortFunc checks the fault cursor's radix sort
// against slices.SortFunc on the golden seeds' real slabs and on edge
// cases: empty and single-key inputs, all-equal starts, runs of ties, zero
// and subnormal starts.
func TestRadixSortMatchesSortFunc(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	for name, starts := range map[string][]float64{
		"empty":      nil,
		"single":     {3.5},
		"all equal":  {42, 42, 42, 42, 42},
		"tie runs":   {5, 1, 5, 1, 0, 5, 2, 2, 2, 1, 5},
		"subnormals": {tiny, 0, 2 * tiny, 0x1p-1022, 0, tiny, 1, 0x1p-1023},
		"extremes":   {math.MaxFloat64, 1, 0, math.MaxFloat64, 61320},
		"one byte":   {1, 1 + 0x1p-52, 1, 1 + 0x1p-52},
	} {
		checkFaultOrder(t, name, keysInDrawOrder(starts))
	}

	// The slabs behind the goldens: seeds 1, 2 and 7 over the full range,
	// plain and with the burn drill's 2014 × 5 elevation. Run leaves the
	// slab in firing order; each fault's draw index restores draw order.
	for _, seed := range []uint64{1, 2, 7} {
		for _, factor := range []float64{0, 5} {
			d, err := NewDriver(fleet.New(1), seed)
			if err != nil {
				t.Fatal(err)
			}
			d.ElevateYear, d.ElevateFactor = 2014, factor
			if _, err := d.Run(fleet.FirstYear, fleet.LastYear); err != nil {
				t.Fatal(err)
			}
			keys := make([]faultKey, len(d.slab))
			for _, f := range d.slab {
				keys[f.draw] = faultKey{start: f.Start, draw: f.draw}
			}
			checkFaultOrder(t, "slab", keys)
			for i, k := range referenceFaultOrder(keys) {
				if d.slab[i].draw != k.draw {
					t.Fatalf("seed %d ×%g: slab position %d holds draw %d, want %d",
						seed, factor, i, d.slab[i].draw, k.draw)
				}
			}
		}
	}
}

// FuzzFaultOrder checks the radix sort against slices.SortFunc for
// arbitrary non-negative finite starts. Each 8 bytes of data is one
// start's bit pattern, ANDed with mask so a sparse mask makes long runs
// of ties; patterns that are NaN or infinite are dropped.
func FuzzFaultOrder(f *testing.F) {
	f.Add([]byte{}, uint64(math.MaxUint64))
	f.Add([]byte("0123456789abcdef0123456789abcdef"), uint64(0x0f00))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(61320)), uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, data []byte, mask uint64) {
		if len(data) > 8<<10 {
			return
		}
		var starts []float64
		for ; len(data) >= 8; data = data[8:] {
			s := math.Float64frombits(binary.LittleEndian.Uint64(data) & mask &^ (1 << 63))
			if math.IsNaN(s) || math.IsInf(s, 0) {
				continue
			}
			starts = append(starts, s)
		}
		checkFaultOrder(t, "fuzz", keysInDrawOrder(starts))
	})
}

// faultCells rebuilds a run's cells from its slab, in Run's (year, type)
// order.
func faultCells(slab []Fault) []faultCell {
	counts := map[faultCell]int{}
	for _, f := range slab {
		counts[faultCell{year: f.Year, dt: f.Type}]++
	}
	var cells []faultCell
	for year := fleet.FirstYear; year <= fleet.LastYear; year++ {
		for _, dt := range topology.IntraDCTypes {
			if n := counts[faultCell{year: year, dt: dt}]; n > 0 {
				cells = append(cells, faultCell{year, dt, n})
			}
		}
	}
	return cells
}

// TestStoreReservationCoversIncidents checks that the SEV store Run
// reserves holds every incident over seeds 1-10 of the sweep's three
// standard scenarios, so no run regrows the report slice.
func TestStoreReservationCoversIncidents(t *testing.T) {
	if testing.Short() {
		t.Skip("30 full-range runs take about 3 s")
	}
	for seed := uint64(1); seed <= 10; seed++ {
		for _, sc := range []struct {
			name    string
			enabled bool
			factor  float64
		}{
			{"baseline", true, 0},
			{"no-remediation", false, 0},
			{"elevate-2014x5", true, 5},
		} {
			d, err := NewDriver(fleet.New(1), seed)
			if err != nil {
				t.Fatal(err)
			}
			d.Engine.SetEnabled(sc.enabled)
			d.ElevateYear, d.ElevateFactor = 2014, sc.factor
			if _, err := d.Run(fleet.FirstYear, fleet.LastYear); err != nil {
				t.Fatal(err)
			}
			if got, reserved := d.Incidents(), storeReservation(faultCells(d.slab), sc.enabled); got > reserved {
				t.Errorf("seed %d %s: %d incidents, reservation %d", seed, sc.name, got, reserved)
			}
		}
	}
}
