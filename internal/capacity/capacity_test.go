package capacity

import (
	"math"
	"testing"
	"testing/quick"
)

func TestUnavailability(t *testing.T) {
	u, err := Unavailability(999, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u-0.001) > 1e-12 {
		t.Errorf("u = %v, want 0.001", u)
	}
	if _, err := Unavailability(0, 1); err == nil {
		t.Error("zero MTBF accepted")
	}
	if _, err := Unavailability(10, -1); err == nil {
		t.Error("negative MTTR accepted")
	}
	if u, _ := Unavailability(10, 0); u != 0 {
		t.Errorf("instant repair u = %v", u)
	}
}

func TestBinomTailExactSmallCases(t *testing.T) {
	// P(X >= 1) for n=2, p=0.5 is 0.75.
	if got := binomTail(2, 1, 0.5); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("P(X>=1) = %v", got)
	}
	// P(X >= 2) for n=2, p=0.5 is 0.25.
	if got := binomTail(2, 2, 0.5); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("P(X>=2) = %v", got)
	}
	if got := binomTail(5, 0, 0.1); got != 1 {
		t.Errorf("P(X>=0) = %v", got)
	}
	if got := binomTail(5, 6, 0.1); got != 0 {
		t.Errorf("P(X>=6) = %v", got)
	}
	if got := binomTail(5, 2, 0); got != 0 {
		t.Errorf("p=0 tail = %v", got)
	}
	if got := binomTail(5, 2, 1); got != 1 {
		t.Errorf("p=1 tail = %v", got)
	}
}

func TestGroupRiskEightCores(t *testing.T) {
	// §5.2's design point: 8 Cores tolerating 1 loss. With a Core MTBI of
	// ~39 500 h and repairs of ~30 h, unavailability ≈ 7.6e-4; the risk of
	// losing a *second* core concurrently must be tiny.
	u, err := Unavailability(39495, 30)
	if err != nil {
		t.Fatal(err)
	}
	risk, err := GroupRisk(8, 1, u)
	if err != nil {
		t.Fatal(err)
	}
	if risk > 2e-5 {
		t.Errorf("8-core 1-spare risk = %v, want < 2e-5", risk)
	}
	// With no spare, the risk is ~8x the single-device unavailability.
	risk0, err := GroupRisk(8, 0, u)
	if err != nil {
		t.Fatal(err)
	}
	if risk0 < 5*u || risk0 > 9*u {
		t.Errorf("no-spare risk = %v, want ~8u = %v", risk0, 8*u)
	}
}

func TestGroupRiskValidation(t *testing.T) {
	if _, err := GroupRisk(0, 0, 0.1); err == nil {
		t.Error("empty group accepted")
	}
	if _, err := GroupRisk(4, 4, 0.1); err == nil {
		t.Error("all-spare group accepted")
	}
	if _, err := GroupRisk(4, -1, 0.1); err == nil {
		t.Error("negative spare accepted")
	}
	if _, err := GroupRisk(4, 1, 1.5); err == nil {
		t.Error("unavailability > 1 accepted")
	}
}

func TestProvisionFourNines(t *testing.T) {
	// Needing 7 cores of availability with u ≈ 7.6e-4 should land on the
	// paper's 8 (one spare).
	u, _ := Unavailability(39495, 30)
	plan, err := Provision(7, u, FourNines)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Provision != 8 || plan.Spares() != 1 {
		t.Errorf("plan = %+v, want 8 devices (1 spare)", plan)
	}
	if plan.Risk > FourNines {
		t.Errorf("plan risk %v exceeds target", plan.Risk)
	}
}

func TestProvisionScalesWithUnreliability(t *testing.T) {
	reliable, err := Provision(4, 1e-4, FourNines)
	if err != nil {
		t.Fatal(err)
	}
	flaky, err := Provision(4, 0.05, FourNines)
	if err != nil {
		t.Fatal(err)
	}
	if flaky.Provision <= reliable.Provision {
		t.Errorf("flaky devices need more spares: %d vs %d", flaky.Provision, reliable.Provision)
	}
}

func TestProvisionImpossible(t *testing.T) {
	if _, err := Provision(2, 0.9, 1e-9); err == nil {
		t.Error("impossible target accepted")
	}
}

func TestProvisionValidation(t *testing.T) {
	if _, err := Provision(0, 0.1, 1e-4); err == nil {
		t.Error("need=0 accepted")
	}
	if _, err := Provision(2, 0.1, 0); err == nil {
		t.Error("maxRisk=0 accepted")
	}
	if _, err := Provision(2, 2, 1e-4); err == nil {
		t.Error("unavailability=2 accepted")
	}
}

func TestProvisionMonotoneProperty(t *testing.T) {
	// More spares never increase risk.
	f := func(nRaw, uRaw uint8) bool {
		n := int(nRaw%10) + 2
		u := float64(uRaw%100) / 200 // [0, 0.5)
		prev := 2.0
		for spare := 0; spare < n; spare++ {
			risk, err := GroupRisk(n, spare, u)
			if err != nil {
				return false
			}
			if risk > prev+1e-12 {
				return false
			}
			prev = risk
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanSpares(t *testing.T) {
	p := Plan{Need: 7, Provision: 9}
	if p.Spares() != 2 {
		t.Errorf("Spares = %d", p.Spares())
	}
}
