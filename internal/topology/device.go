// Package topology models the data center network graph of the study:
// regions containing data centers built with either the classic cluster
// design (RSW → CSW → CSA → Core) or the data center fabric design
// (RSW → FSW → SSW → ESW → Core), plus the backbone routers that connect
// regions to the WAN (§3 of the paper).
//
// Devices follow the naming convention §4.3.1 describes: every device name
// is prefixed with its lower-case type ("rsw.", "csw.", …), and the incident
// classifier recovers the device type by parsing that prefix.
package topology

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// DeviceType enumerates the network device types of Figure 1.
type DeviceType int

const (
	// RSW is a rack switch (top-of-rack), present in both designs.
	RSW DeviceType = iota
	// CSW is a cluster switch (cluster design).
	CSW
	// CSA is a cluster switch aggregator (cluster design).
	CSA
	// FSW is a fabric switch (fabric design).
	FSW
	// SSW is a spine switch (fabric design).
	SSW
	// ESW is an edge switch (fabric design).
	ESW
	// Core is a core network device connecting data centers and the backbone.
	Core
	// BBR is a backbone router located in an edge node.
	BBR

	numDeviceTypes = int(BBR) + 1
)

// DeviceTypes lists every device type in a stable display order (the order
// the paper's figures use: Core, CSA, CSW, ESW, SSW, FSW, RSW) followed by
// BBR.
var DeviceTypes = []DeviceType{Core, CSA, CSW, ESW, SSW, FSW, RSW, BBR}

// IntraDCTypes lists the device types that appear in the intra-data-center
// analyses (Figures 2–13), in the paper's display order.
var IntraDCTypes = []DeviceType{Core, CSA, CSW, ESW, SSW, FSW, RSW}

var deviceTypeNames = [numDeviceTypes]string{
	RSW: "RSW", CSW: "CSW", CSA: "CSA", FSW: "FSW",
	SSW: "SSW", ESW: "ESW", Core: "Core", BBR: "BBR",
}

// String returns the display name used in the paper's figures.
func (t DeviceType) String() string {
	if t < 0 || int(t) >= numDeviceTypes {
		return fmt.Sprintf("DeviceType(%d)", int(t))
	}
	return deviceTypeNames[t]
}

var deviceTypePrefixes = [numDeviceTypes]string{
	RSW: "rsw", CSW: "csw", CSA: "csa", FSW: "fsw",
	SSW: "ssw", ESW: "esw", Core: "core", BBR: "bbr",
}

// Prefix returns the lower-case name prefix of the naming convention, e.g.
// "rsw" for rack switches.
func (t DeviceType) Prefix() string {
	if t < 0 || int(t) >= numDeviceTypes {
		return strings.ToLower(t.String())
	}
	return deviceTypePrefixes[t]
}

// Design identifies which network design a device type belongs to.
type Design int

const (
	// DesignShared marks device types present in both designs (RSW, Core)
	// or outside them (BBR).
	DesignShared Design = iota
	// DesignCluster marks classic cluster-network device types (CSA, CSW).
	DesignCluster
	// DesignFabric marks data center fabric device types (ESW, SSW, FSW).
	DesignFabric
)

// String returns the design's display name.
func (d Design) String() string {
	switch d {
	case DesignCluster:
		return "Cluster"
	case DesignFabric:
		return "Fabric"
	default:
		return "Shared"
	}
}

// Design returns the network design the device type belongs to, following
// §4.3.1: CSA and CSW belong to cluster networks; ESW, SSW, and FSW belong
// to the fabric.
func (t DeviceType) Design() Design {
	switch t {
	case CSA, CSW:
		return DesignCluster
	case ESW, SSW, FSW:
		return DesignFabric
	default:
		return DesignShared
	}
}

// BisectionRank orders device types by the share of traffic that transits
// them (a proxy for bisection bandwidth): higher rank ⇒ more aggregated
// downstream capacity ⇒ wider blast radius on failure (§5.2's first
// observation). Core is highest; RSW lowest.
func (t DeviceType) BisectionRank() int {
	switch t {
	case Core:
		return 6
	case CSA:
		return 5
	case ESW:
		return 4
	case SSW:
		return 3
	case CSW:
		return 2
	case FSW:
		return 1
	default: // RSW, BBR
		return 0
	}
}

// Commodity reports whether the device type is built from commodity chips
// running Facebook's own software stack (fabric devices and RSWs since
// 2013), as opposed to proprietary third-party vendor hardware (Cores and
// CSAs, §5.2).
func (t DeviceType) Commodity() bool {
	switch t {
	case FSW, SSW, ESW, RSW:
		return true
	default:
		return false
	}
}

// ParseDeviceName recovers the device type from a device name using the
// prefix-based naming convention ("rsw001.p1.dc1.ra" → RSW). The prefix
// matches case-insensitively, and must not run on into another letter
// (after Unicode lower-casing: "rsw\u212A", with the Kelvin sign, is a
// "rswk…" name). It returns an error when the prefix matches no known
// type. Accepting a name allocates nothing.
func ParseDeviceName(name string) (DeviceType, error) {
	for _, t := range DeviceTypes {
		p := deviceTypePrefixes[t]
		if hasPrefixFold(name, p) && !startsWithLetter(name[len(p):]) {
			return t, nil
		}
	}
	return 0, fmt.Errorf("topology: unrecognized device name %q", name)
}

// hasPrefixFold reports whether s starts with the lower-case ASCII prefix
// p, ignoring ASCII case. No non-ASCII rune lower-cases to a letter of any
// prefix, so this agrees with matching strings.ToLower(s).
func hasPrefixFold(s, p string) bool {
	if len(s) < len(p) {
		return false
	}
	for i := 0; i < len(p); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != p[i] {
			return false
		}
	}
	return true
}

// startsWithLetter reports whether strings.ToLower(s) starts with an
// ASCII letter. Two non-ASCII runes lower-case to one: the Kelvin sign
// (to 'k') and the dotted capital I (to 'i').
func startsWithLetter(s string) bool {
	if s == "" {
		return false
	}
	if s[0] < utf8.RuneSelf {
		return isLetter(s[0])
	}
	r, _ := utf8.DecodeRuneInString(s)
	r = unicode.ToLower(r)
	return r < utf8.RuneSelf && isLetter(byte(r))
}

func isLetter(b byte) bool {
	return (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

// Device is a single network device in the graph.
type Device struct {
	// Name is the unique, machine-understandable device name, prefixed
	// with the device type per the naming convention.
	Name string
	// Type is the device type.
	Type DeviceType
	// DC is the data center the device sits in ("" for backbone routers).
	DC string
	// Region is the region containing the data center or edge.
	Region string
	// Unit is the deployment unit within the data center: the cluster for
	// cluster networks, the pod for fabric networks, or "" for devices
	// above that level.
	Unit string
}

// MakeName builds a canonical device name: prefix + ordinal, dot-joined with
// the unit, data center and region (empty parts are skipped), e.g.
// "rsw004.pod002.dc1.regionb". The ordinal is zero-padded to three
// characters, sign included (%03d), and the parts are lower-cased. For
// names up to 64 bytes the returned string is the only allocation.
func MakeName(t DeviceType, ordinal int, unit, dc, region string) string {
	var buf [64]byte
	b := append(buf[:0], t.Prefix()...)
	b = AppendOrdinal(b, ordinal)
	for _, p := range [...]string{unit, dc, region} {
		if p != "" {
			b = append(b, '.')
			b = appendLower(b, p)
		}
	}
	return string(b)
}

// AppendOrdinal appends n formatted as %03d: at least three characters,
// zero-padded after any minus sign.
func AppendOrdinal(b []byte, n int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(n), 10)
	width := 3
	if n < 0 {
		b = append(b, '-')
		d = d[1:]
		width--
	}
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, d...)
}

// appendLower appends strings.ToLower(s), folding ASCII byte by byte and
// falling back to strings.ToLower for a string with any other byte.
func appendLower(b []byte, s string) []byte {
	start := len(b)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return append(b[:start], strings.ToLower(s)...)
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b = append(b, c)
	}
	return b
}
