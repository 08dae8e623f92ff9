package topology

import "testing"

// FuzzParseDeviceName checks the name classifier never panics, agrees
// with the fmt/ToLower reference on every input, and only accepts names
// that carry the type's prefix.
func FuzzParseDeviceName(f *testing.F) {
	f.Add("rsw001.pod001.dc1.regiona")
	f.Add("core005")
	f.Add("")
	f.Add("RSW")
	f.Add("rswitch")
	f.Add("csa.csw.rsw")
	f.Add("\x00\xff")
	f.Add("rsw\u212A01")
	f.Add("ESW\u0130")
	f.Fuzz(func(t *testing.T, name string) {
		checkParseMatchesReference(t, name)
		dt, err := ParseDeviceName(name)
		if err != nil {
			return
		}
		// An accepted name must start with the type's prefix
		// (case-insensitively); re-deriving the prefix must agree.
		prefix := dt.Prefix()
		if len(name) < len(prefix) {
			t.Fatalf("accepted %q shorter than prefix %q", name, prefix)
		}
		for i := 0; i < len(prefix); i++ {
			c := name[i]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != prefix[i] {
				t.Fatalf("accepted %q does not carry prefix %q", name, prefix)
			}
		}
	})
}

// FuzzMakeName checks generated names match the fmt/ToLower reference
// byte for byte and, for known types, classify back to their type. typ
// 0 is DeviceType(-1), so out-of-range types are covered too.
func FuzzMakeName(f *testing.F) {
	f.Add(uint8(1), 1, "pod001", "dc1", "regiona")
	f.Add(uint8(8), 999, "", "", "")
	f.Add(uint8(0), -7, "CL001", "DC\u212A", "Région")
	f.Add(uint8(10), 1000, "", "\xff", "")
	f.Fuzz(func(t *testing.T, typ uint8, ordinal int, unit, dc, region string) {
		dt := DeviceType(typ) - 1
		checkMakeMatchesReference(t, dt, ordinal, unit, dc, region)
		if int(dt) < 0 || int(dt) >= numDeviceTypes {
			return
		}
		name := MakeName(dt, ordinal, unit, dc, region)
		got, err := ParseDeviceName(name)
		if err != nil {
			t.Fatalf("MakeName produced unparseable %q: %v", name, err)
		}
		if got != dt {
			t.Fatalf("MakeName(%v) classified as %v (%q)", dt, got, name)
		}
	})
}
