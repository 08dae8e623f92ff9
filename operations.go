package dcnr

// This file exposes the operational-analysis layer: traffic routing and
// congestion studies (§3.1/§3.2), maintenance and configuration practices
// (§5.1/§5.2), and the fault-injection drills of §5.7.

import (
	"dcnr/internal/capacity"
	"dcnr/internal/drill"
	"dcnr/internal/fleet"
	"dcnr/internal/ops"
	"dcnr/internal/optical"
	"dcnr/internal/routing"
	"dcnr/internal/service"
	"dcnr/internal/simrand"
	"dcnr/internal/topology"
	"dcnr/internal/traffic"
	"dcnr/internal/wan"
)

// Network is the device graph the routing, impact, and drill layers
// operate on.
type Network = topology.Network

// ClusterSpec and FabricSpec size data center builds.
type (
	ClusterSpec = topology.ClusterSpec
	FabricSpec  = topology.FabricSpec
)

// NewNetwork returns an empty device graph.
func NewNetwork() *Network { return topology.NewNetwork() }

// BuildCluster constructs a cluster-design data center inside n and
// returns its core device names.
func BuildCluster(n *Network, spec ClusterSpec) ([]string, error) {
	return topology.BuildCluster(n, spec)
}

// BuildFabric constructs a fabric-design data center inside n and returns
// its core device names.
func BuildFabric(n *Network, spec FabricSpec) ([]string, error) {
	return topology.BuildFabric(n, spec)
}

// InterconnectCores links every core in a to every core in b.
func InterconnectCores(n *Network, a, b []string) error {
	return topology.InterconnectCores(n, a, b)
}

// ReferenceTopology returns the compact two-data-center network (one
// cluster DC, one fabric DC) used throughout the impact, traffic, and
// drill analyses.
func ReferenceTopology() (*Network, error) { return fleet.RepresentativeTopology() }

// Demand is a directed traffic demand in Gb/s.
type Demand = routing.Demand

// Router routes demands over a network with failures.
type Router = routing.Router

// NewRouter returns a Router over net with every device up.
func NewRouter(net *Network) *Router { return routing.New(net) }

// TrafficReport summarizes network load under one failure scenario.
type TrafficReport = traffic.Report

// GenerateTraffic builds the §3.2 demand matrix (user-facing + cross-DC
// bulk) for net, deterministically in seed.
func GenerateTraffic(net *Network, seed uint64) ([]Demand, error) {
	return traffic.Generate(net, simrand.New(seed))
}

// StudyTraffic routes demands with the given devices failed (after core
// failover reassignment) and reports load, congestion, and lost volume.
func StudyTraffic(net *Network, demands []Demand, down map[string]bool) TrafficReport {
	return traffic.Study(net, demands, down)
}

// Reassign retargets demands whose core endpoint is down to a surviving
// core in the same data center — the BGP/edge failover behaviour.
func Reassign(net *Network, demands []Demand, down map[string]bool) []Demand {
	return traffic.Reassign(net, demands, down)
}

// Impact assessment.

// FaultScope describes how much of a redundancy group a failure consumed.
type FaultScope = service.Scope

// Fault scopes, in increasing blast radius.
const (
	ScopeDevice = service.ScopeDevice
	ScopeGroup  = service.ScopeGroup
	ScopeUnit   = service.ScopeUnit
)

// ImpactAssessment is the topology-derived verdict on a failure.
type ImpactAssessment = service.Assessment

// ImpactAssessor evaluates failures against a topology.
type ImpactAssessor = service.Assessor

// NewImpactAssessor builds an assessor over net.
func NewImpactAssessor(net *Network) *ImpactAssessor { return service.NewAssessor(net) }

// Maintenance and configuration operations.

// DrainPolicy selects how maintenance handles live traffic.
type DrainPolicy = ops.DrainPolicy

// Drain policies.
const (
	NoDrain    = ops.NoDrain
	DrainFirst = ops.DrainFirst
)

// MaintenanceScheduler performs rolling maintenance over redundancy groups.
type MaintenanceScheduler = ops.Scheduler

// MaintenanceReport records one rolling-maintenance run.
type MaintenanceReport = ops.MaintenanceReport

// NewMaintenanceScheduler returns a scheduler assessing mishaps against the
// assessor, seeded deterministically.
func NewMaintenanceScheduler(assessor *ImpactAssessor, seed uint64) (*MaintenanceScheduler, error) {
	return ops.NewScheduler(assessor, simrand.New(seed))
}

// ConfigChange is a configuration change heading for the fleet.
type ConfigChange = ops.Change

// ConfigGuard is the change-deployment pipeline (review + canary).
type ConfigGuard = ops.Guard

// NewConfigGuard returns the guarded pipeline §5.1 describes.
func NewConfigGuard(canarySize int) ConfigGuard { return ops.NewGuard(canarySize) }

// UnguardedConfig returns a pipeline with no protections.
func UnguardedConfig() ConfigGuard { return ops.Unguarded() }

// ConfigBlastStudy deploys n faulty changes and returns the mean number of
// devices each misconfigured.
func ConfigBlastStudy(g ConfigGuard, n, fleetSize int, seed uint64) (float64, error) {
	return ops.BlastStudy(g, n, fleetSize, simrand.New(seed))
}

// Drills (§5.7).

// DrillScenario is one injected failure.
type DrillScenario = drill.Scenario

// DrillResult is a graded drill outcome.
type DrillResult = drill.Result

// DrillRunner executes drills against a topology and demand matrix.
type DrillRunner = drill.Runner

// NewDrillRunner validates demands and returns a runner. A drill passes
// when it strands at most one rack, loses at most 2% of offered volume
// and keeps every surviving device at or below 95% utilization.
func NewDrillRunner(net *Network, demands []Demand) (*DrillRunner, error) {
	return drill.NewRunner(net, demands)
}

// StandardDrills builds the §5.7 suite: a single-device outage per type
// plus a disconnect drill per data center.
func StandardDrills(net *Network) ([]DrillScenario, error) { return drill.StandardDrills(net) }

// DataCenterDisconnect builds the paper's headline drill for one DC.
func DataCenterDisconnect(net *Network, dc string) (DrillScenario, error) {
	return drill.DataCenterDisconnect(net, dc)
}

// WAN traffic engineering (§3.2's cross-DC backbone).

// WANConfig sizes the engineered backbone.
type WANConfig = wan.Config

// WANBackbone is the plane-partitioned cross-DC backbone.
type WANBackbone = wan.Backbone

// WANDemand is a region-pair traffic demand.
type WANDemand = wan.Demand

// WANReport is a traffic-engineering outcome.
type WANReport = wan.Report

// NewWANBackbone builds the four-plane backbone of §3.2.
func NewWANBackbone(cfg WANConfig) (*WANBackbone, error) { return wan.New(cfg) }

// Optical layer (§3.2's circuits → segments → channels hierarchy).

// OpticalInventory is the physical layer beneath the backbone links.
type OpticalInventory = optical.Inventory

// OpticalSegment is one physical fiber span.
type OpticalSegment = optical.Segment

// OpticalMedium is a segment's physical environment.
type OpticalMedium = optical.Medium

// Optical media.
const (
	Terrestrial = optical.Terrestrial
	Submarine   = optical.Submarine
)

// BuildOpticalInventory derives the optical layer for a backbone topology:
// a shared last-mile conduit per edge (the shared-risk group behind
// correlated cuts) plus diverse long-haul spans per link.
func BuildOpticalInventory(topo *BackboneTopology, seed uint64) *OpticalInventory {
	return optical.BuildInventory(topo, seed)
}

// Capacity planning (§5.2's N+1 core provisioning, §6.1's four-nines rule).

// CapacityPlan is a provisioning recommendation.
type CapacityPlan = capacity.Plan

// FourNines is the §6.1 availability planning target (99.99%).
const FourNines = capacity.FourNines

// DeviceUnavailability returns steady-state unavailability from MTBF and
// MTTR in hours.
func DeviceUnavailability(mtbf, mttr float64) (float64, error) {
	return capacity.Unavailability(mtbf, mttr)
}

// GroupRisk returns the probability a redundancy group of n devices has
// more than spare devices down at once.
func GroupRisk(n, spare int, unavailability float64) (float64, error) {
	return capacity.GroupRisk(n, spare, unavailability)
}

// ProvisionGroup sizes a redundancy group to keep the risk of losing more
// than its spares below maxRisk.
func ProvisionGroup(need int, unavailability, maxRisk float64) (CapacityPlan, error) {
	return capacity.Provision(need, unavailability, maxRisk)
}
