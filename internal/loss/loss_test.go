package loss

import (
	"math"
	"reflect"
	"testing"

	"fedshare/internal/economics"
)

func unitType(name string, hold float64) economics.ExperimentType {
	return economics.ExperimentType{
		Name: name, MinLocations: 1, MaxLocations: 1,
		Resources: 1, HoldingTime: hold, Shape: 1,
	}
}

func TestErlangBKnownValues(t *testing.T) {
	cases := []struct {
		c    int
		a    float64
		want float64
	}{
		{1, 1, 0.5},
		{2, 1, 1.0 / 5}, // a²/2 / (1+a+a²/2)
		{0, 1, 1},
		{5, 0, 0},
		{0, 0, 1},
		{10, 5, 0.018385}, // standard table value
	}
	for _, c := range cases {
		if got := ErlangB(c.c, c.a); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("ErlangB(%d, %g) = %g, want %g", c.c, c.a, got, c.want)
		}
	}
}

func TestErlangBMonotonicity(t *testing.T) {
	// More servers -> less blocking; more load -> more blocking.
	for c := 1; c < 20; c++ {
		if ErlangB(c+1, 10) >= ErlangB(c, 10) {
			t.Fatalf("blocking must fall with servers at c=%d", c)
		}
	}
	prev := 0.0
	for a := 1.0; a < 20; a++ {
		b := ErlangB(5, a)
		if b <= prev {
			t.Fatalf("blocking must rise with load at a=%g", a)
		}
		prev = b
	}
}

func TestSimulationMatchesErlangB(t *testing.T) {
	// Single station, C=5 unit-capacity locations, experiments take one
	// location: an M/D/5/5 loss system. By Erlang insensitivity the
	// blocking equals ErlangB(5, λ·t).
	lambda, hold := 8.0, 0.5 // offered load 4 erlangs
	cfg := Config{
		Stations: []Station{{Label: "s", Count: 5, Capacity: 1}},
		Arrivals: []economics.ArrivalSpec{{Type: unitType("u", hold), Rate: lambda}},
		Horizon:  4000,
		Seed:     11,
	}
	m, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := ErlangB(5, lambda*hold)
	got := m.Blocking["u"]
	if math.Abs(got-want) > 0.02 {
		t.Errorf("simulated blocking %g, Erlang-B %g", got, want)
	}
	// Value rate = accepted rate here (u(1) = 1 per accepted experiment).
	wantRate := lambda * (1 - want)
	if math.Abs(m.ValueRate-wantRate) > 0.35 {
		t.Errorf("value rate %g, want ~%g", m.ValueRate, wantRate)
	}
	if m.MeanOccupancy <= 0 || m.MeanOccupancy > 1 {
		t.Errorf("occupancy %g out of (0,1]", m.MeanOccupancy)
	}
}

func TestZeroLoadNoBlocking(t *testing.T) {
	cfg := Config{
		Stations: []Station{{Label: "s", Count: 3, Capacity: 1}},
		Arrivals: []economics.ArrivalSpec{{Type: unitType("u", 0.001), Rate: 0.01}},
		Horizon:  1000,
		Seed:     5,
	}
	m, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Blocking["u"] > 0.001 {
		t.Errorf("blocking %g at negligible load", m.Blocking["u"])
	}
}

// TestHugeMaxLocationsIsUnbounded: a maximum past the int range admits
// as an unbounded one does, instead of wrapping negative and blocking
// every arrival.
func TestHugeMaxLocationsIsUnbounded(t *testing.T) {
	run := func(max float64) *Metrics {
		et := economics.ExperimentType{Name: "e", MinLocations: 2, MaxLocations: max, Resources: 1, HoldingTime: 0.2, Shape: 1}
		m, err := Simulate(Config{
			Stations: []Station{{Label: "s", Count: 4, Capacity: 2}},
			Arrivals: []economics.ArrivalSpec{{Type: et, Rate: 2}},
			Horizon:  200,
			Seed:     3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	huge, unbounded := run(1e300), run(math.Inf(1))
	if unbounded.Accepted == 0 || !reflect.DeepEqual(huge, unbounded) {
		t.Errorf("MaxLocations 1e300: %+v; unbounded: %+v", huge, unbounded)
	}
}

func TestOverloadBlocksHeavily(t *testing.T) {
	cfg := Config{
		Stations: []Station{{Label: "s", Count: 1, Capacity: 1}},
		Arrivals: []economics.ArrivalSpec{{Type: unitType("u", 1), Rate: 50}},
		Horizon:  200,
		Seed:     5,
	}
	m, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Blocking["u"] < 0.9 {
		t.Errorf("blocking %g under 50x overload", m.Blocking["u"])
	}
}

func TestDiversityThresholdBlocking(t *testing.T) {
	// An experiment needing 10 distinct locations can never be served by a
	// 5-location system.
	et := economics.ExperimentType{
		Name: "div", MinLocations: 10, MaxLocations: math.Inf(1),
		Resources: 1, HoldingTime: 0.1, Shape: 1,
	}
	cfg := Config{
		Stations: []Station{{Label: "s", Count: 5, Capacity: 10}},
		Arrivals: []economics.ArrivalSpec{{Type: et, Rate: 3}},
		Horizon:  300,
		Seed:     9,
	}
	m, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Blocking["div"] != 1 {
		t.Errorf("blocking %g, want 1 (diversity infeasible)", m.Blocking["div"])
	}
	if m.ValueRate != 0 {
		t.Errorf("value rate %g, want 0", m.ValueRate)
	}
}

func TestMultiplexingGainShrinksWithHoldingTime(t *testing.T) {
	// Sec. 3.2.1: the smaller the holding times, the more federation gains
	// from multiplexing. Compare the superadditivity gap at t = 0.05
	// versus t = 1 under identical offered load λ·t.
	mk := func(hold, rate float64) Config {
		return Config{
			Stations: []Station{
				{Label: "a", Count: 4, Capacity: 1},
				{Label: "b", Count: 4, Capacity: 1},
			},
			Arrivals: []economics.ArrivalSpec{{Type: economics.ExperimentType{
				Name: "e", MinLocations: 3, MaxLocations: 3,
				Resources: 1, HoldingTime: hold, Shape: 1,
			}, Rate: rate}},
			Horizon: 3000,
			Seed:    21,
		}
	}
	// Same offered load 3 erlangs-of-experiments in both runs.
	gapShort, err := SuperadditivityGap(mk(0.05, 60))
	if err != nil {
		t.Fatal(err)
	}
	gapLong, err := SuperadditivityGap(mk(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Both should be nonnegative (pooling never hurts on average), and the
	// relative gain should not vanish for short holds.
	if gapShort < -1 {
		t.Errorf("short-hold federation gap strongly negative: %g", gapShort)
	}
	// Normalize by accepted value scale (rate * u(3)).
	relShort := gapShort / (60 * 3)
	relLong := gapLong / (3 * 3)
	if relShort < relLong-0.05 {
		t.Errorf("multiplexing gain should not shrink with shorter holds: short %g, long %g",
			relShort, relLong)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(Config{Horizon: 0}); err == nil {
		t.Error("zero horizon must fail")
	}
	if _, err := Simulate(Config{
		Horizon:  10,
		Stations: []Station{{Count: -1}},
	}); err == nil {
		t.Error("negative station count must fail")
	}
	if _, err := Simulate(Config{
		Horizon:  10,
		Arrivals: []economics.ArrivalSpec{{Type: unitType("u", 1), Rate: -1}},
	}); err == nil {
		t.Error("negative rate must fail")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{
		Stations: []Station{{Label: "s", Count: 3, Capacity: 2}},
		Arrivals: []economics.ArrivalSpec{{Type: unitType("u", 0.3), Rate: 5}},
		Horizon:  500,
		Seed:     33,
	}
	a, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.ValueRate != b.ValueRate || a.Accepted != b.Accepted {
		t.Error("same seed must reproduce identical metrics")
	}
}

func BenchmarkSimulate(b *testing.B) {
	cfg := Config{
		Stations: []Station{{Label: "s", Count: 10, Capacity: 2}},
		Arrivals: []economics.ArrivalSpec{{Type: unitType("u", 0.2), Rate: 20}},
		Horizon:  200,
		Seed:     1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestHoldingTimeSweep(t *testing.T) {
	base := Config{
		Stations: []Station{
			{Label: "a", Count: 3, Capacity: 1},
			{Label: "b", Count: 3, Capacity: 1},
		},
		Arrivals: []economics.ArrivalSpec{{
			Type: economics.ExperimentType{
				Name: "e", MinLocations: 2, MaxLocations: 2,
				Resources: 1, HoldingTime: 1, Shape: 1,
			},
			Rate: 1.5,
		}},
		Horizon: 800,
		Seed:    31,
	}
	series, err := HoldingTimeSweep(base, []float64{1, 0.5, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Points) != 3 {
		t.Fatalf("series has %d points", len(series.Points))
	}
	for _, p := range series.Points {
		if p.Y < -0.5 || p.Y > 1 {
			t.Errorf("relative gain %g at t=%g out of sane range", p.Y, p.X)
		}
	}
}

func TestHoldingTimeSweepValidation(t *testing.T) {
	base := Config{
		Stations: []Station{{Label: "a", Count: 1, Capacity: 1}},
		Horizon:  100,
	}
	if _, err := HoldingTimeSweep(base, []float64{0.5}); err == nil {
		t.Error("zero arrival classes must fail")
	}
	base.Arrivals = []economics.ArrivalSpec{{Type: unitType("u", 1), Rate: 1}}
	if _, err := HoldingTimeSweep(base, []float64{0}); err == nil {
		t.Error("t = 0 must fail")
	}
	if _, err := HoldingTimeSweep(base, []float64{1.5}); err == nil {
		t.Error("t > 1 must fail")
	}
}
