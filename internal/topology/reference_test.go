package topology

import (
	"fmt"
	"strings"
	"testing"
)

// The name codec as first written, on fmt and strings.ToLower: the
// reference the allocation-free codec must match byte for byte.

func refPrefix(t DeviceType) string { return strings.ToLower(t.String()) }

func refParseDeviceName(name string) (DeviceType, error) {
	lower := strings.ToLower(name)
	for _, t := range DeviceTypes {
		p := refPrefix(t)
		if strings.HasPrefix(lower, p) {
			rest := lower[len(p):]
			if rest == "" || !isLetter(rest[0]) {
				return t, nil
			}
		}
	}
	return 0, fmt.Errorf("topology: unrecognized device name %q", name)
}

func refMakeName(t DeviceType, ordinal int, unit, dc, region string) string {
	parts := []string{fmt.Sprintf("%s%03d", refPrefix(t), ordinal)}
	for _, p := range []string{unit, dc, region} {
		if p != "" {
			parts = append(parts, strings.ToLower(p))
		}
	}
	return strings.Join(parts, ".")
}

// checkParseMatchesReference fails t unless ParseDeviceName and the
// reference agree on name: the same type, or the same error text.
func checkParseMatchesReference(t *testing.T, name string) {
	t.Helper()
	got, gotErr := ParseDeviceName(name)
	want, wantErr := refParseDeviceName(name)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || (wantErr == nil && got != want) {
		t.Fatalf("ParseDeviceName(%q) = %v, %v; reference %v, %v", name, got, gotErr, want, wantErr)
	}
}

func checkMakeMatchesReference(t *testing.T, dt DeviceType, ordinal int, unit, dc, region string) {
	t.Helper()
	if got, want := MakeName(dt, ordinal, unit, dc, region), refMakeName(dt, ordinal, unit, dc, region); got != want {
		t.Fatalf("MakeName(%d, %d, %q, %q, %q) = %q, reference %q", int(dt), ordinal, unit, dc, region, got, want)
	}
}

func TestPrefixMatchesReference(t *testing.T) {
	for dt := DeviceType(-2); dt <= 9; dt++ {
		if got, want := dt.Prefix(), refPrefix(dt); got != want {
			t.Errorf("DeviceType(%d).Prefix() = %q, reference %q", int(dt), got, want)
		}
	}
}

func TestParseDeviceNameMatchesReference(t *testing.T) {
	names := []string{
		"", "r", "rs", "rsw", "RSW", "Rsw001.Pod001.DC1.RegionA", "CORE005", "cOrE",
		"rswitch", "rsw_1", "rsw-1", "rsw.", "csa.csw.rsw", "bbr001", "devicetype(9)001",
		"rsw\u212A", "rsw\u212A01", "\u212Arsw", "rsw\u0130", "rswé", "rswÉ", "RSWß",
		"rsw\xff", "rsw\xe2\x84", "\xffrsw", "rsw\x00", "ｒｓｗ001", "esw\u212Aa",
	}
	for _, name := range names {
		checkParseMatchesReference(t, name)
	}
	// Every rune directly after a prefix: the one place where Unicode
	// lower-casing can turn a non-letter byte into a letter. Planes 0 and
	// 1 hold every rune with a case mapping.
	for r := rune(0); r <= 0x1FFFF; r++ {
		checkParseMatchesReference(t, "csw"+string(r))
	}
}

func TestMakeNameMatchesReference(t *testing.T) {
	ordinals := []int{0, 1, 7, 42, 99, 100, 999, 1000, 123456, -1, -9, -10, -99, -100, -1000,
		int(^uint(0) >> 1), -int(^uint(0)>>1) - 1}
	parts := [][3]string{
		{"", "", ""}, {"pod001", "dc1", "regiona"}, {"CL002", "DC2", "RegionB"},
		{"", "dc1", ""}, {"", "", "ra"}, {"Zoné", "DÇ", "Région"}, {"\u212A", "\u0130", "ΣΑΣ"},
		{"bad\xffutf8", "", "x"}, {strings.Repeat("long", 20), "dc", "region"},
	}
	for dt := DeviceType(-1); dt <= 9; dt++ {
		for _, n := range ordinals {
			for _, p := range parts {
				checkMakeMatchesReference(t, dt, n, p[0], p[1], p[2])
			}
		}
	}
}

func TestParseDeviceNameAllocs(t *testing.T) {
	for _, name := range []string{"rsw001.pod001.dc1.regiona", "CORE005.dc2", "bbr", "Csw\u00e9x"} {
		if allocs := testing.AllocsPerRun(100, func() { ParseDeviceName(name) }); allocs != 0 {
			t.Errorf("ParseDeviceName(%q) = %v allocs, want 0", name, allocs)
		}
	}
}

func TestMakeNameAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() { MakeName(RSW, 42, "pod002", "DC2", "regionb") })
	if allocs != 1 {
		t.Errorf("MakeName = %v allocs, want 1 (the string)", allocs)
	}
}
