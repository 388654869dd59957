package policy

import (
	"context"
	"math"
	"testing"

	"fedshare/internal/core"
	"fedshare/internal/economics"
	"fedshare/internal/scenario"
	"fedshare/internal/stats"
)

func testModel(t *testing.T, l float64) *core.Model {
	t.Helper()
	wl, err := economics.NewWorkload(economics.DemandClass{
		Type: economics.ExperimentType{
			Name: "e", MinLocations: l, MaxLocations: math.Inf(1),
			Resources: 1, HoldingTime: 1, Shape: 1,
		},
		Count: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewModel(Facility3(t), wl)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Facility3 returns the standard 3-facility configuration.
func Facility3(t *testing.T) []core.Facility {
	t.Helper()
	return []core.Facility{
		{Name: "F1", Locations: 100, Resources: 1},
		{Name: "F2", Locations: 400, Resources: 1},
		{Name: "F3", Locations: 800, Resources: 1},
	}
}

func TestNewDynamicsValidation(t *testing.T) {
	m := testModel(t, 0)
	if _, err := NewDynamics(m, nil, core.ShapleyPolicy{}); err == nil {
		t.Error("player/facility mismatch must fail")
	}
	players := []Player{{}, {}, {}}
	if _, err := NewDynamics(m, players, core.ShapleyPolicy{}); err == nil {
		t.Error("empty option lists must fail")
	}
	players = []Player{
		{Options: []Option{{Locations: -1, Resources: 1}}},
		{Options: []Option{{Locations: 1, Resources: 1}}},
		{Options: []Option{{Locations: 1, Resources: 1}}},
	}
	if _, err := NewDynamics(m, players, core.ShapleyPolicy{}); err == nil {
		t.Error("negative options must fail")
	}
}

func TestPayoffsMatchProfitsWithZeroCost(t *testing.T) {
	m := testModel(t, 0)
	players := make([]Player, 3)
	for i, f := range m.Facilities {
		players[i] = Player{Options: []Option{{Locations: f.Locations, Resources: f.Resources}}}
	}
	d, err := NewDynamics(m, players, core.ShapleyPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	pays, err := d.Payoffs()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range pays {
		sum += p
	}
	if math.Abs(sum-1300) > 1e-6 {
		t.Errorf("zero-cost payoffs sum to %g, want 1300", sum)
	}
}

func TestBestResponsePrefersFreeCapacity(t *testing.T) {
	// With zero provision cost and l = 0, contributing more locations
	// always weakly raises one's Shapley payoff.
	m := testModel(t, 0)
	players := []Player{
		{Options: []Option{{Locations: 0, Resources: 1}, {Locations: 100, Resources: 1}}},
		{Options: []Option{{Locations: 400, Resources: 1}}},
		{Options: []Option{{Locations: 800, Resources: 1}}},
	}
	d, err := NewDynamics(m, players, core.ShapleyPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	changed, err := d.BestResponse(0)
	if err != nil {
		t.Fatal(err)
	}
	if !changed || d.Choice[0] != 1 {
		t.Errorf("player 0 should move to the 100-location option, choice=%d", d.Choice[0])
	}
}

func TestBestResponseRespectsCost(t *testing.T) {
	// A prohibitive per-location cost keeps the facility at zero provision.
	m := testModel(t, 0)
	players := []Player{
		{
			Options: []Option{{Locations: 0, Resources: 1}, {Locations: 100, Resources: 1}},
			Cost:    economics.Cost{Alpha: 1e6},
		},
		{Options: []Option{{Locations: 400, Resources: 1}}},
		{Options: []Option{{Locations: 800, Resources: 1}}},
	}
	d, err := NewDynamics(m, players, core.ShapleyPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.BestResponse(0); err != nil {
		t.Fatal(err)
	}
	if d.Choice[0] != 0 {
		t.Errorf("player 0 should stay at zero provision under prohibitive cost")
	}
}

func TestRunConvergesOnDominantStrategies(t *testing.T) {
	m := testModel(t, 0)
	grid := func(max int) []Option {
		var out []Option
		for l := 0; l <= max; l += max / 4 {
			out = append(out, Option{Locations: l, Resources: 1})
		}
		return out
	}
	players := []Player{
		{Options: grid(100)},
		{Options: grid(400)},
		{Options: grid(800)},
	}
	d, err := NewDynamics(m, players, core.ShapleyPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	eq, err := d.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	if !eq.Converged {
		t.Fatal("zero-cost provision game must converge")
	}
	// Everyone provides the maximum.
	for i, ci := range eq.Choice {
		if ci != len(players[i].Options)-1 {
			t.Errorf("player %d stopped at option %d, want max", i, ci)
		}
	}
	sum := 0.0
	for _, p := range eq.Payoffs {
		sum += p
	}
	if math.Abs(sum-1300) > 1e-6 {
		t.Errorf("equilibrium payoffs sum to %g", sum)
	}
}

func TestBestResponseOutOfRange(t *testing.T) {
	m := testModel(t, 0)
	players := []Player{
		{Options: []Option{{Locations: 100, Resources: 1}}},
		{Options: []Option{{Locations: 400, Resources: 1}}},
		{Options: []Option{{Locations: 800, Resources: 1}}},
	}
	d, err := NewDynamics(m, players, core.ShapleyPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.BestResponse(5); err == nil {
		t.Error("out-of-range player must fail")
	}
}

func TestJumps(t *testing.T) {
	var s stats.Series
	s.Add(0, 0)
	s.Add(1, 1)
	s.Add(2, 1.5)
	s.Add(3, 9) // jump of 7.5 over range 10
	s.Add(4, 10)
	jumps := Jumps(s, 0.5)
	if len(jumps) != 1 {
		t.Fatalf("got %d jumps, want 1: %+v", len(jumps), jumps)
	}
	if jumps[0].X != 3 || math.Abs(jumps[0].Delta-7.5) > 1e-12 {
		t.Errorf("jump = %+v", jumps[0])
	}
	if Jumps(s, 0) != nil {
		t.Error("frac <= 0 returns nil")
	}
	flat := stats.Series{Points: []stats.Point{{X: 0, Y: 2}, {X: 1, Y: 2}}}
	if Jumps(flat, 0.1) != nil {
		t.Error("flat series has no jumps")
	}
}

func TestShapleyIncentiveJumpsAtThresholds(t *testing.T) {
	// Fig 9: with a diversity threshold, facility 1's Shapley profit has
	// jumps as L1 sweeps; the proportional rule stays smooth.
	res, err := scenario.RunContext(context.Background(), &scenario.Spec{
		ID:   "jumps",
		Kind: scenario.KindProfit,
		Facilities: []scenario.FacilitySpec{
			{Name: "F1", Locations: 100, Resources: 1},
			{Name: "F2", Locations: 400, Resources: 1},
			{Name: "F3", Locations: 800, Resources: 1},
		},
		Demand:   []scenario.DemandSpec{{Name: "e", Count: 1, MinLocations: 400}},
		Policies: []string{"shapley", "proportional"},
		Axis:     scenario.AxisSpec{Variable: scenario.VarLocations, Target: "F1", From: 0, To: 1000, Step: 50},
		Track:    "F1",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	shap, prop := res.Series[0], res.Series[1] // phi1, pi1
	shapJumps := Jumps(shap, 0.12)
	propJumps := Jumps(prop, 0.12)
	if len(shapJumps) == 0 {
		t.Error("Shapley incentive curve should jump at threshold points")
	}
	if len(propJumps) != 0 {
		t.Errorf("proportional curve should be smooth, got %+v", propJumps)
	}
}
