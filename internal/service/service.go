// Package service models the production systems that run on the data center
// network and decides the service-level severity of a network failure.
//
// The paper's central methodological point (§2) is that device-level faults
// and service-level incidents are different things: redundancy and failover
// mask most faults. This package realizes that distinction mechanically. A
// failure is described by the failing device and a Scope — how much of the
// device's redundancy group the root cause consumed (a lone crash, a
// half-group event such as maintenance without draining, or a whole-group
// cascade such as the paper's SEV1 load-balancer example). The severity is
// then *computed from the topology*: racks stranded from the core layer,
// and capacity lost within the redundancy group, determine whether the
// event is masked (SEV3), service-affecting (SEV2), or an outage (SEV1).
package service

import (
	"fmt"
	"sort"
	"sync"

	"dcnr/internal/sev"
	"dcnr/internal/topology"
)

// Scope describes how much of the failing device's redundancy group a root
// cause consumed.
type Scope int

const (
	// ScopeDevice is an isolated single-device failure; redundancy
	// normally masks it.
	ScopeDevice Scope = iota
	// ScopeGroup is a failure of about half the redundancy group under
	// load — e.g. maintenance performed without draining (§5.2), or the
	// faulty-CSA traffic shift of the paper's SEV2 example. The surviving
	// devices absorb a traffic spike, so tolerance to further capacity
	// loss is halved.
	ScopeGroup
	// ScopeUnit is a whole-group cascade — e.g. the misconfigured
	// load-balancer of the paper's SEV1 example taking out a deployment
	// unit.
	ScopeUnit
)

// String names the scope.
func (s Scope) String() string {
	switch s {
	case ScopeDevice:
		return "device"
	case ScopeGroup:
		return "group"
	case ScopeUnit:
		return "unit"
	default:
		return fmt.Sprintf("Scope(%d)", int(s))
	}
}

// Names of the service families the paper lists as affected systems (§4.1).
var ServiceNames = []string{"web", "cache", "storage", "batch", "realtime"}

// Assessment is the outcome of evaluating a failure against the topology.
type Assessment struct {
	// Severity is the resulting SEV level.
	Severity sev.Severity
	// StrandedRacks is the number of racks that lost all connectivity to
	// the core layer.
	StrandedRacks int
	// CapacityLoss is the fraction of the failing device's redundancy
	// group that went down.
	CapacityLoss float64
	// Down lists the devices the failure took down (the failing device
	// and any redundancy peers its scope consumed), sorted.
	Down []string
	// Services lists the affected service families, sorted.
	Services []string
	// Impact is a human-readable description of the service-level effect,
	// in the vocabulary of §4.2 (lost capacity, retries, partitioned
	// connectivity, congestion).
	Impact string
}

// sev1Fraction is the fraction of a data center's racks that must be
// stranded before the event is an outage-level SEV1: losing a whole
// deployment unit of a four-unit DC.
const sev1Fraction = 0.25

// Assessor evaluates failures against a topology. Construct with
// NewAssessor; the assessor indexes racks per data center and assigns
// service families to racks round-robin.
type Assessor struct {
	net         *topology.Network
	racksPerDC  map[string]int
	rackService map[string]string

	// cache memoizes assessments: Assess is deterministic in (device,
	// scope), and callers such as the maintenance scheduler evaluate the
	// same devices repeatedly.
	mu    sync.Mutex
	cache map[cacheKey]Assessment
}

type cacheKey struct {
	name  string
	scope Scope
}

// NewAssessor builds an Assessor over net.
func NewAssessor(net *topology.Network) *Assessor {
	a := &Assessor{
		net:         net,
		racksPerDC:  make(map[string]int),
		rackService: make(map[string]string),
		cache:       make(map[cacheKey]Assessment),
	}
	for i, rsw := range net.DevicesOfType(topology.RSW) {
		a.racksPerDC[rsw.DC]++
		a.rackService[rsw.Name] = ServiceNames[i%len(ServiceNames)]
	}
	return a
}

// Peers returns the redundancy group of the named device: devices of the
// same type sharing the failure domain (the unit for CSW/FSW/RSW, the data
// center otherwise), excluding the device itself.
func (a *Assessor) Peers(name string) []string {
	d := a.net.Device(name)
	if d == nil {
		return nil
	}
	var peers []string
	for _, other := range a.net.DevicesOfType(d.Type) {
		if other.Name == name || other.DC != d.DC {
			continue
		}
		switch d.Type {
		case topology.CSW, topology.FSW, topology.RSW:
			if other.Unit == d.Unit {
				peers = append(peers, other.Name)
			}
		default:
			peers = append(peers, other.Name)
		}
	}
	return peers
}

// Assess evaluates the failure of the named device at the given scope.
func (a *Assessor) Assess(name string, scope Scope) (Assessment, error) {
	key := cacheKey{name, scope}
	a.mu.Lock()
	if cached, ok := a.cache[key]; ok {
		a.mu.Unlock()
		return cached, nil
	}
	a.mu.Unlock()
	as, err := a.assess(name, scope)
	if err == nil {
		a.mu.Lock()
		a.cache[key] = as
		a.mu.Unlock()
	}
	return as, err
}

func (a *Assessor) assess(name string, scope Scope) (Assessment, error) {
	d := a.net.Device(name)
	if d == nil {
		return Assessment{}, fmt.Errorf("service: unknown device %q", name)
	}
	peers := a.Peers(name)
	group := len(peers) + 1

	down := map[string]bool{name: true}
	stressed := false
	switch scope {
	case ScopeDevice:
		// Only the device itself.
	case ScopeGroup:
		// Half the group is gone (rounded down, at least the device),
		// and the survivors absorb the shifted traffic.
		stressed = true
		for i := 0; i < len(peers) && len(down) < (group+1)/2; i++ {
			down[peers[i]] = true
		}
	case ScopeUnit:
		for _, p := range peers {
			down[p] = true
		}
	default:
		return Assessment{}, fmt.Errorf("service: invalid scope %d", int(scope))
	}

	stranded := a.net.StrandedRacks(down)
	loss := float64(len(down)) / float64(group)

	as := Assessment{
		StrandedRacks: len(stranded),
		CapacityLoss:  loss,
		Down:          sortedKeys(down),
		Services:      a.affectedServices(name, stranded),
	}

	dcRacks := a.racksPerDC[d.DC]
	switch {
	case dcRacks > 0 && float64(len(stranded)) >= sev1Fraction*float64(dcRacks):
		as.Severity = sev.Sev1
		as.Impact = fmt.Sprintf("partitioned connectivity: %d of %d racks in the data center unreachable", len(stranded), dcRacks)
	case len(stranded) > 1:
		as.Severity = sev.Sev2
		as.Impact = fmt.Sprintf("downtime from partitioned connectivity on %d racks", len(stranded))
	case len(stranded) == 1:
		// A single stranded rack: replication and distribution of server
		// resources absorb it (§5.4's single-TOR design rationale).
		as.Severity = sev.Sev3
		as.Impact = "single rack offline; replicas absorbed the load"
	default:
		// No stranding: judge by surviving capacity. Stressed survivors
		// (traffic shifted onto them mid-spike) tolerate only a quarter
		// of the group lost; unstressed groups mask anything short of
		// total loss of redundancy.
		threshold := 0.75
		if stressed {
			threshold = 0.25
		}
		if loss >= threshold {
			as.Severity = sev.Sev2
			as.Impact = fmt.Sprintf("increased load from lost capacity (%.0f%% of %v group); retries and elevated latency", loss*100, d.Type)
		} else {
			as.Severity = sev.Sev3
			as.Impact = fmt.Sprintf("redundant capacity masked loss of %d of %d %v devices", len(down), group, d.Type)
		}
	}
	return as, nil
}

func (a *Assessor) affectedServices(device string, stranded []string) []string {
	set := make(map[string]bool)
	for _, rack := range stranded {
		if svc, ok := a.rackService[rack]; ok {
			set[svc] = true
		}
	}
	if len(set) == 0 {
		// No stranding: the services behind the device's downstream racks
		// saw elevated latency or retries.
		reach := a.net.ReachableSet(device, nil)
		for rack, svc := range a.rackService {
			if reach[rack] {
				set[svc] = true
			}
		}
	}
	return sortedKeys(set)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
