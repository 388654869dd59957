package economics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestThresholdPowerBasics(t *testing.T) {
	u := ThresholdPower{L: 50, D: 1}
	if u.Eval(49) != 0 {
		t.Error("below threshold must be 0")
	}
	if u.Eval(50) != 50 {
		t.Errorf("u(50) = %g, want 50 (non-strict)", u.Eval(50))
	}
	if u.Eval(100) != 100 {
		t.Errorf("u(100) = %g", u.Eval(100))
	}
	if u.Eval(0) != 0 || u.Eval(-5) != 0 {
		t.Error("non-positive x must be 0")
	}
}

func TestThresholdPowerStrict(t *testing.T) {
	u := ThresholdPower{L: 500, D: 1, Strict: true}
	if u.Eval(500) != 0 {
		t.Error("strict threshold rejects x == l")
	}
	if u.Eval(501) != 501 {
		t.Errorf("u(501) = %g", u.Eval(501))
	}
}

func TestThresholdPowerShapes(t *testing.T) {
	// Fig 2 anchors: at x=100 with l=50.
	for _, c := range []struct {
		d    float64
		want float64
	}{
		{0.8, math.Pow(100, 0.8)},
		{1, 100},
		{1.2, math.Pow(100, 1.2)},
	} {
		u := ThresholdPower{L: 50, D: c.d}
		if got := u.Eval(100); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("d=%g: u(100) = %g, want %g", c.d, got, c.want)
		}
	}
}

func TestThresholdPowerMonotoneProperty(t *testing.T) {
	f := func(lRaw, dRaw uint8, x1Raw, x2Raw uint16) bool {
		u := ThresholdPower{L: float64(lRaw % 100), D: 0.5 + float64(dRaw%20)/10}
		x1, x2 := float64(x1Raw%1000), float64(x2Raw%1000)
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		return u.Eval(x1) <= u.Eval(x2)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThreshold(t *testing.T) {
	cases := []struct {
		u    ThresholdPower
		want int
	}{
		{ThresholdPower{L: 50, D: 1}, 50},
		{ThresholdPower{L: 50.5, D: 1}, 51},
		{ThresholdPower{L: 50, D: 1, Strict: true}, 51},
		{ThresholdPower{L: 0, D: 1}, 0},
		{ThresholdPower{L: 0, D: 1, Strict: true}, 1},
		// Past the int range the count saturates instead of wrapping.
		{ThresholdPower{L: 1 << 62, D: 1, Strict: true}, 1<<62 + 1},
		{ThresholdPower{L: 1 << 63, D: 1}, math.MaxInt},
		{ThresholdPower{L: 1 << 63, D: 1, Strict: true}, math.MaxInt},
		{ThresholdPower{L: 1e300, D: 1}, math.MaxInt},
		{ThresholdPower{L: 1e300, D: 1, Strict: true}, math.MaxInt},
	}
	for _, c := range cases {
		if got := c.u.Threshold(); got != c.want {
			t.Errorf("Threshold(L=%g strict=%v) = %d, want %d", c.u.L, c.u.Strict, got, c.want)
		}
	}
}

func TestCost(t *testing.T) {
	c := Cost{Alpha: 1, Beta: 2, Gamma: 3, Fixed: 10}
	if got := c.Eval(100, 50, 1); got != 100+100+3+10 {
		t.Errorf("cost = %g", got)
	}
	var zero Cost
	if zero.Eval(100, 50, 1) != 0 {
		t.Error("zero cost model should evaluate to 0")
	}
}

func TestArchetypesValid(t *testing.T) {
	for _, e := range []ExperimentType{P2PExperiment, CDNService, MeasurementExperiment} {
		if err := e.Validate(); err != nil {
			t.Errorf("archetype %s invalid: %v", e.Name, err)
		}
	}
	if P2PExperiment.MinLocations != 40 || CDNService.Resources != 4 || MeasurementExperiment.HoldingTime != 0.4 {
		t.Error("archetype constants drifted from the paper (Sec 2.2)")
	}
}

func TestValidateRejections(t *testing.T) {
	base := ExperimentType{Name: "x", MinLocations: 1, MaxLocations: 2, Resources: 1, HoldingTime: 1, Shape: 1}
	bad := []ExperimentType{}
	e := base
	e.MinLocations = -1
	bad = append(bad, e)
	e = base
	e.MaxLocations = 0
	bad = append(bad, e)
	e = base
	e.Resources = 0
	bad = append(bad, e)
	e = base
	e.HoldingTime = 0
	bad = append(bad, e)
	e = base
	e.HoldingTime = 1.5
	bad = append(bad, e)
	e = base
	e.Shape = 0
	bad = append(bad, e)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		e = base
		e.Shape = v
		bad = append(bad, e)
		e = base
		e.Resources = v
		bad = append(bad, e)
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d should be invalid: %+v", i, b)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("base should be valid: %v", err)
	}
}

func TestWorkload(t *testing.T) {
	w, err := NewWorkload(
		DemandClass{Type: P2PExperiment, Count: 3},
		DemandClass{Type: CDNService, Count: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	if w.Total() != 5 {
		t.Errorf("Total = %d", w.Total())
	}
	if _, err := NewWorkload(DemandClass{Type: P2PExperiment, Count: -1}); err == nil {
		t.Error("negative count must fail")
	}
	bad := P2PExperiment
	bad.Resources = 0
	if _, err := NewWorkload(DemandClass{Type: bad, Count: 1}); err == nil {
		t.Error("invalid type must fail")
	}
}

func TestArrivalSpec(t *testing.T) {
	ok := ArrivalSpec{Type: P2PExperiment, Rate: 2}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := ArrivalSpec{Type: P2PExperiment, Rate: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative rate must fail")
	}
}
