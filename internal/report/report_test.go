package report

import (
	"strings"
	"testing"
)

func TestRenderAlignsColumns(t *testing.T) {
	tb := &Table{
		Title:   "Table 1: repair ratios",
		Note:    "simulated",
		Headers: []string{"Device", "Repair Ratio"},
	}
	tb.AddRow("Core", "75%")
	tb.AddRow("RSW", "99.7%")
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Table 1", "simulated", "Device", "Core", "99.7%", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	var header, row string
	for _, l := range lines {
		if strings.HasPrefix(l, "Device") {
			header = l
		}
		if strings.HasPrefix(l, "Core") {
			row = l
		}
	}
	if strings.Index(header, "Repair") != strings.Index(row, "75%") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestRenderRaggedRows(t *testing.T) {
	tb := &Table{Headers: []string{"A"}}
	tb.AddRow("x", "extra", "cells")
	tb.AddRow()
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "extra") {
		t.Error("overflow cells dropped")
	}
}

func TestRenderNoHeaders(t *testing.T) {
	tb := &Table{}
	tb.AddRow("just", "cells")
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "---") {
		t.Error("separator printed without headers")
	}
}

func TestF(t *testing.T) {
	cases := map[float64]string{
		0:        "0",
		12345:    "12345",
		42.5:     "42.5",
		0.123:    "0.123",
		0.00057:  "5.70e-04",
		-1234.56: "-1235",
	}
	for in, want := range cases {
		if got := F(in); got != want {
			t.Errorf("F(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.341); got != "34.1%" {
		t.Errorf("Pct = %q", got)
	}
}

func TestSortedKeys(t *testing.T) {
	is := SortedInts(map[int]bool{3: true, 1: true, 2: true})
	if is[0] != 1 || is[2] != 3 {
		t.Errorf("SortedInts = %v", is)
	}
}

func TestRenderCSV(t *testing.T) {
	tb := &Table{Headers: []string{"Year", "SEVs"}}
	tb.AddRow("2017", "188")
	tb.AddRow("with,comma", "q\"q")
	var b strings.Builder
	if err := tb.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "Year,SEVs\n") {
		t.Errorf("CSV header missing: %q", out)
	}
	if !strings.Contains(out, `"with,comma"`) {
		t.Errorf("comma cell not quoted: %q", out)
	}
	if !strings.Contains(out, `"q""q"`) {
		t.Errorf("quote cell not escaped: %q", out)
	}
}
