package topology

import "fmt"

// The fixed layers of both designs. Each data center has eight core
// devices, the provisioning §5.2 describes. A cluster data center has two
// cluster switch aggregators; a fabric data center has four spine planes
// of four spine switches each and four edge switches. Above the pods and
// clusters, every device links to every device of the next layer up.
const (
	coresPerDC   = 8
	clusterCSAs  = 2
	spinePlanes  = 4
	sswsPerPlane = 4
	fabricESWs   = 4
)

// ClusterSpec sizes a classic cluster-based data center (Figure 1, Region A).
type ClusterSpec struct {
	// DC and Region name the data center and its region.
	DC, Region string
	// Clusters is the number of clusters. Each cluster has exactly four
	// CSWs (§3.1), and every CSW links to both CSAs.
	Clusters int
	// RacksPerCluster is the number of RSWs per cluster; each RSW links to
	// all four of its cluster's CSWs.
	RacksPerCluster int
}

// FabricSpec sizes a data center fabric (Figure 1, Region B).
type FabricSpec struct {
	// DC and Region name the data center and its region.
	DC, Region string
	// Pods is the number of pods. Each pod has exactly four FSWs and each
	// RSW links to all four (the 1:4 ratio of §3.1). FSW i of every pod
	// links to the SSWs of spine plane i.
	Pods int
	// RacksPerPod is the number of RSWs per pod.
	RacksPerPod int
}

// BuildCluster constructs a cluster-design data center inside n and returns
// the names of its Core devices (the attachment points for the backbone).
func BuildCluster(n *Network, spec ClusterSpec) ([]string, error) {
	if spec.Clusters <= 0 || spec.RacksPerCluster <= 0 {
		return nil, fmt.Errorf("topology: cluster spec needs clusters and racks, got %+v", spec)
	}

	cores := make([]string, 0, coresPerDC)
	for i := 1; i <= coresPerDC; i++ {
		name := MakeName(Core, i, "", spec.DC, spec.Region)
		if err := n.AddDevice(Device{Name: name, Type: Core, DC: spec.DC, Region: spec.Region}); err != nil {
			return nil, err
		}
		cores = append(cores, name)
	}
	csas := make([]string, 0, clusterCSAs)
	for i := 1; i <= clusterCSAs; i++ {
		name := MakeName(CSA, i, "", spec.DC, spec.Region)
		if err := n.AddDevice(Device{Name: name, Type: CSA, DC: spec.DC, Region: spec.Region}); err != nil {
			return nil, err
		}
		csas = append(csas, name)
		for _, c := range cores {
			if err := n.AddLink(name, c); err != nil {
				return nil, err
			}
		}
	}

	rswOrdinal := 0
	for cl := 1; cl <= spec.Clusters; cl++ {
		unit := fmt.Sprintf("cl%03d", cl)
		csws := make([]string, 0, 4)
		for i := 1; i <= 4; i++ {
			name := MakeName(CSW, (cl-1)*4+i, unit, spec.DC, spec.Region)
			if err := n.AddDevice(Device{Name: name, Type: CSW, DC: spec.DC, Region: spec.Region, Unit: unit}); err != nil {
				return nil, err
			}
			csws = append(csws, name)
			for _, a := range csas {
				if err := n.AddLink(name, a); err != nil {
					return nil, err
				}
			}
		}
		for r := 1; r <= spec.RacksPerCluster; r++ {
			rswOrdinal++
			name := MakeName(RSW, rswOrdinal, unit, spec.DC, spec.Region)
			if err := n.AddDevice(Device{Name: name, Type: RSW, DC: spec.DC, Region: spec.Region, Unit: unit}); err != nil {
				return nil, err
			}
			for _, c := range csws {
				if err := n.AddLink(name, c); err != nil {
					return nil, err
				}
			}
		}
	}
	return cores, nil
}

// BuildFabric constructs a fabric-design data center inside n and returns
// the names of its Core devices.
func BuildFabric(n *Network, spec FabricSpec) ([]string, error) {
	if spec.Pods <= 0 || spec.RacksPerPod <= 0 {
		return nil, fmt.Errorf("topology: fabric spec needs pods and racks, got %+v", spec)
	}

	cores := make([]string, 0, coresPerDC)
	for i := 1; i <= coresPerDC; i++ {
		name := MakeName(Core, i, "", spec.DC, spec.Region)
		if err := n.AddDevice(Device{Name: name, Type: Core, DC: spec.DC, Region: spec.Region}); err != nil {
			return nil, err
		}
		cores = append(cores, name)
	}
	esws := make([]string, 0, fabricESWs)
	for i := 1; i <= fabricESWs; i++ {
		name := MakeName(ESW, i, "", spec.DC, spec.Region)
		if err := n.AddDevice(Device{Name: name, Type: ESW, DC: spec.DC, Region: spec.Region}); err != nil {
			return nil, err
		}
		esws = append(esws, name)
		for _, c := range cores {
			if err := n.AddLink(name, c); err != nil {
				return nil, err
			}
		}
	}
	// Spine planes: plane p holds sswsPerPlane spine switches, each linked
	// to every ESW.
	planes := make([][]string, spinePlanes)
	ordinal := 0
	for p := 0; p < spinePlanes; p++ {
		for i := 0; i < sswsPerPlane; i++ {
			ordinal++
			name := MakeName(SSW, ordinal, "", spec.DC, spec.Region)
			if err := n.AddDevice(Device{Name: name, Type: SSW, DC: spec.DC, Region: spec.Region}); err != nil {
				return nil, err
			}
			planes[p] = append(planes[p], name)
			for _, e := range esws {
				if err := n.AddLink(name, e); err != nil {
					return nil, err
				}
			}
		}
	}

	rswOrdinal, fswOrdinal := 0, 0
	for pod := 1; pod <= spec.Pods; pod++ {
		unit := fmt.Sprintf("pod%03d", pod)
		fsws := make([]string, 0, 4)
		for i := 0; i < 4; i++ {
			fswOrdinal++
			name := MakeName(FSW, fswOrdinal, unit, spec.DC, spec.Region)
			if err := n.AddDevice(Device{Name: name, Type: FSW, DC: spec.DC, Region: spec.Region, Unit: unit}); err != nil {
				return nil, err
			}
			fsws = append(fsws, name)
			// FSW i attaches to spine plane i mod planes.
			for _, s := range planes[i%spinePlanes] {
				if err := n.AddLink(name, s); err != nil {
					return nil, err
				}
			}
		}
		for r := 1; r <= spec.RacksPerPod; r++ {
			rswOrdinal++
			name := MakeName(RSW, rswOrdinal, unit, spec.DC, spec.Region)
			if err := n.AddDevice(Device{Name: name, Type: RSW, DC: spec.DC, Region: spec.Region, Unit: unit}); err != nil {
				return nil, err
			}
			for _, f := range fsws {
				if err := n.AddLink(name, f); err != nil {
					return nil, err
				}
			}
		}
	}
	return cores, nil
}

// InterconnectCores links every Core in a to every Core in b, modeling the
// core layer that connects data centers within and across regions.
func InterconnectCores(n *Network, a, b []string) error {
	for _, x := range a {
		for _, y := range b {
			if err := n.AddLink(x, y); err != nil {
				return err
			}
		}
	}
	return nil
}
