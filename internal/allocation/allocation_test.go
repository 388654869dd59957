package allocation

import (
	"math"
	"testing"

	"fedshare/internal/stats"
)

func pool3(l1, l2, l3 int, r1, r2, r3 float64) Pool {
	return Pool{Classes: []Class{
		{Label: "f1", Count: l1, Capacity: r1},
		{Label: "f2", Count: l2, Capacity: r2},
		{Label: "f3", Count: l3, Capacity: r3},
	}}
}

func identical(n, min int, r float64) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Min: min, Shape: 1, Resources: r}
	}
	return reqs
}

func TestPoolBasics(t *testing.T) {
	p := pool3(100, 400, 800, 1, 1, 1)
	if p.TotalLocations() != 1300 {
		t.Errorf("TotalLocations = %d", p.TotalLocations())
	}
	if p.TotalCapacity() != 1300 {
		t.Errorf("TotalCapacity = %g", p.TotalCapacity())
	}
	for _, c := range []Class{{Count: -1}, {Count: 1, Capacity: math.NaN()}} {
		if (Pool{Classes: []Class{c}}).Validate() == nil {
			t.Errorf("class %+v must be invalid", c)
		}
	}
}

func TestSingleExperimentFig4Anchors(t *testing.T) {
	// Fig 4 setup: L = (100,400,800), R = 1, single experiment, d = 1.
	cases := []struct {
		locs []int
		min  int
		want float64
	}{
		{[]int{100}, 500, 0},              // V({1}) at l=500
		{[]int{400}, 500, 0},              // V({2})
		{[]int{800}, 500, 800},            // V({3})
		{[]int{100, 400}, 500, 500},       // V({1,2})
		{[]int{400, 800}, 500, 1200},      // V({2,3})
		{[]int{100, 400, 800}, 500, 1300}, // V(N)
		{[]int{100, 400, 800}, 1301, 0},   // beyond total diversity
		{[]int{100, 400, 800}, 0, 1300},   // no threshold
	}
	for _, c := range cases {
		var p Pool
		for _, l := range c.locs {
			p.Classes = append(p.Classes, Class{Count: l, Capacity: 1})
		}
		res := Solve(p, []Request{{Min: c.min, Shape: 1, Resources: 1}})
		if math.Abs(res.Utility-c.want) > 1e-9 {
			t.Errorf("locs=%v min=%d: utility %g, want %g", c.locs, c.min, res.Utility, c.want)
		}
	}
}

func TestFastPathFillsCapacity(t *testing.T) {
	// Fig 6 setup: all L_i*R_i = 8000; plenty of identical experiments with
	// no threshold should fill all 24000 units.
	p := pool3(100, 400, 800, 80, 20, 10)
	res := Solve(p, identical(200, 0, 1))
	if math.Abs(res.Utility-24000) > 1e-9 {
		t.Errorf("utility %g, want 24000", res.Utility)
	}
	// Consumption should match each class's full capacity.
	for c, want := range []float64{8000, 8000, 8000} {
		if math.Abs(res.ConsumedByClass[c]-want) > 1 {
			t.Errorf("class %d consumed %g, want %g", c, res.ConsumedByClass[c], want)
		}
	}
}

func TestFastPathThresholdLimitsAdmission(t *testing.T) {
	// With threshold l = 600, an admitted experiment needs 600 distinct
	// locations. Capacity R = (80,20,10): totalSlots(m) grows by 1300/step
	// early; feasibility requires m*600 <= totalSlots(m).
	p := pool3(100, 400, 800, 80, 20, 10)
	res := Solve(p, identical(200, 600, 1))
	// Check every admitted experiment got at least 600.
	admitted := 0
	totalX := 0
	for _, x := range res.X {
		if x > 0 {
			if x < 600 {
				t.Errorf("admitted experiment with x=%d < 600", x)
			}
			admitted++
			totalX += x
		}
	}
	if admitted == 0 {
		t.Fatal("expected some admissions")
	}
	if math.Abs(res.Utility-float64(totalX)) > 1e-9 {
		t.Errorf("utility %g != Σx %d at d=1", res.Utility, totalX)
	}
	// Total cannot exceed capacity.
	if res.Utility > 24000+1e-9 {
		t.Errorf("utility %g exceeds capacity", res.Utility)
	}
}

func TestFastPathInfeasibleThreshold(t *testing.T) {
	p := pool3(100, 400, 800, 1, 1, 1)
	res := Solve(p, identical(5, 1400, 1))
	if res.Utility != 0 {
		t.Errorf("utility %g, want 0 for infeasible threshold", res.Utility)
	}
}

func TestFastPathLowDemandConsumption(t *testing.T) {
	// Fig 8 intuition: with K=1 experiment and ample capacity, the
	// experiment spreads over all locations, so per-class consumption is
	// proportional to location counts, not capacities.
	p := pool3(100, 400, 800, 80, 60, 20)
	res := Solve(p, identical(1, 0, 1))
	if res.X[0] != 1300 {
		t.Errorf("x = %d, want 1300", res.X[0])
	}
	want := []float64{100, 400, 800}
	for c := range want {
		if math.Abs(res.ConsumedByClass[c]-want[c]) > 1 {
			t.Errorf("class %d consumed %g, want %g", c, res.ConsumedByClass[c], want[c])
		}
	}
}

func TestFastPathSaturationConsumption(t *testing.T) {
	// With demand beyond saturation, consumption per class approaches
	// Count*Capacity.
	p := pool3(100, 400, 800, 80, 60, 20)
	res := Solve(p, identical(100, 0, 1))
	want := []float64{100 * 80, 400 * 60, 800 * 20}
	for c := range want {
		if math.Abs(res.ConsumedByClass[c]-want[c]) > 1 {
			t.Errorf("class %d consumed %g, want %g", c, res.ConsumedByClass[c], want[c])
		}
	}
	if math.Abs(res.Utility-(8000+24000+16000)) > 1e-9 {
		t.Errorf("utility %g, want 48000", res.Utility)
	}
}

func TestTwoTypeMixture(t *testing.T) {
	// Fig 7 setup: type A l=0, type B l=700. A coalition with fewer than
	// 700 locations earns nothing from B experiments.
	pSmall := Pool{Classes: []Class{{Count: 500, Capacity: 2}}}
	reqs := append(identical(3, 0, 1), identical(3, 700, 1)...)
	res := Solve(pSmall, reqs)
	for j := 3; j < 6; j++ {
		if res.X[j] != 0 {
			t.Errorf("type B request %d admitted with only 500 locations", j)
		}
	}
	// Grand pool: both types served.
	pBig := pool3(100, 400, 800, 80, 50, 30)
	res = Solve(pBig, reqs)
	servedB := 0
	for j := 3; j < 6; j++ {
		if res.X[j] >= 700 {
			servedB++
		}
	}
	if servedB != 3 {
		t.Errorf("served %d of 3 type-B requests in grand pool", servedB)
	}
}

func TestFastMatchesBruteForceSmall(t *testing.T) {
	rng := stats.NewRand(41)
	for trial := 0; trial < 100; trial++ {
		nLoc := 1 + rng.Intn(4)
		p := Pool{Classes: []Class{
			{Count: nLoc, Capacity: float64(1 + rng.Intn(3))},
			{Count: 1 + rng.Intn(2), Capacity: float64(1 + rng.Intn(2))},
		}}
		nReq := 1 + rng.Intn(3)
		reqs := make([]Request, nReq)
		for i := range reqs {
			reqs[i] = Request{Min: rng.Intn(4), Shape: 1, Resources: 1}
		}
		got := Solve(p, reqs)
		want := bruteForce(p, reqs)
		if math.Abs(got.Utility-want.Utility) > 1e-9 {
			t.Fatalf("trial %d: fast %g != oracle %g (pool %+v reqs %+v, X=%v oracleX=%v)",
				trial, got.Utility, want.Utility, p, reqs, got.X, want.X)
		}
	}
}

func TestGreedyMatchesBruteForceConcave(t *testing.T) {
	rng := stats.NewRand(43)
	for trial := 0; trial < 60; trial++ {
		p := Pool{Classes: []Class{
			{Count: 2 + rng.Intn(3), Capacity: float64(1 + rng.Intn(3))},
			{Count: 1 + rng.Intn(2), Capacity: float64(1 + rng.Intn(2))},
		}}
		nReq := 1 + rng.Intn(2)
		reqs := make([]Request, nReq)
		for i := range reqs {
			// Concave shape triggers the greedy engine.
			reqs[i] = Request{Min: rng.Intn(3), Shape: 0.8, Resources: 1}
		}
		got := Solve(p, reqs)
		want := bruteForce(p, reqs)
		if got.Utility > want.Utility+1e-9 {
			t.Fatalf("trial %d: greedy %g exceeds oracle %g — infeasible allocation",
				trial, got.Utility, want.Utility)
		}
		if got.Utility < want.Utility-1e-6 {
			t.Fatalf("trial %d: greedy %g < oracle %g (pool %+v reqs %+v)",
				trial, got.Utility, want.Utility, p, reqs)
		}
	}
}

func TestGreedyConvexSingle(t *testing.T) {
	// Convex utility with a single experiment must still take everything.
	p := Pool{Classes: []Class{{Count: 10, Capacity: 1}}}
	res := Solve(p, []Request{{Min: 2, Shape: 1.5, Resources: 1}})
	if res.X[0] != 10 {
		t.Errorf("x = %d, want 10", res.X[0])
	}
	if math.Abs(res.Utility-math.Pow(10, 1.5)) > 1e-9 {
		t.Errorf("utility %g", res.Utility)
	}
}

func TestGreedyHeterogeneousResources(t *testing.T) {
	// A CDN-like heavy request (r=4) and P2P-like light requests (r=1).
	p := Pool{Classes: []Class{{Count: 5, Capacity: 4}}}
	reqs := []Request{
		{Min: 2, Max: 3, Shape: 1, Resources: 4, Label: "cdn"},
		{Min: 0, Shape: 1, Resources: 1, Label: "p2p"},
	}
	res := Solve(p, reqs)
	// CDN takes 3 locations (its Max), fully consuming them; P2P can still
	// use the remaining capacity on other locations plus leftovers.
	if res.X[0] < 2 {
		t.Errorf("cdn got %d locations, needs >= 2", res.X[0])
	}
	if res.X[1] == 0 {
		t.Error("p2p request should be admitted")
	}
	// Feasibility: consumption within capacity.
	if res.ConsumedByClass[0] > p.TotalCapacity()+1e-9 {
		t.Errorf("consumed %g exceeds capacity %g", res.ConsumedByClass[0], p.TotalCapacity())
	}
}

func TestMaxCaps(t *testing.T) {
	p := Pool{Classes: []Class{{Count: 10, Capacity: 2}}}
	res := Solve(p, []Request{
		{Min: 1, Max: 4, Shape: 1, Resources: 1},
		{Min: 1, Max: 4, Shape: 1, Resources: 1},
	})
	for j, x := range res.X {
		if x > 4 {
			t.Errorf("request %d exceeded Max: %d", j, x)
		}
	}
	if res.Utility != 8 {
		t.Errorf("utility %g, want 8", res.Utility)
	}
}

func TestEmptyInputs(t *testing.T) {
	res := Solve(Pool{}, nil)
	if res.Utility != 0 || len(res.X) != 0 {
		t.Error("empty solve should be all-zero")
	}
	res = Solve(pool3(1, 1, 1, 1, 1, 1), nil)
	if res.Utility != 0 {
		t.Error("no requests -> zero utility")
	}
	res = Solve(Pool{}, identical(2, 1, 1))
	if res.Utility != 0 {
		t.Error("no locations -> zero utility")
	}
}

func TestSolvePanicsOnBadRequest(t *testing.T) {
	for _, req := range []Request{
		{Min: 1, Shape: 1, Resources: 0},
		{Min: 1, Shape: 0, Resources: 1},
		{Min: -1, Shape: 1, Resources: 1},
		{Min: 1, Shape: math.NaN(), Resources: 1},
		{Min: 1, Shape: math.Inf(1), Resources: 1},
		{Min: 1, Shape: math.Inf(-1), Resources: 1},
		{Min: 1, Shape: 1, Resources: math.NaN()},
		{Min: 1, Shape: 1, Resources: math.Inf(1)},
		{Min: 1, Shape: 1, Resources: math.Inf(-1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %+v", req)
				}
			}()
			Solve(pool3(1, 1, 1, 1, 1, 1), []Request{req})
		}()
	}
}

// TestSolveRefusesNaNCapacity requires Solve to refuse a class of NaN
// capacity and to keep accepting +Inf. Unchecked, the greedy engine
// admitted this request on the two locations of capacity 1 and then
// topped it up on all three NaN ones.
func TestSolveRefusesNaNCapacity(t *testing.T) {
	reqs := []Request{{Min: 2, Shape: 0.5, Resources: 1}}
	pool := func(capacity float64) Pool {
		return Pool{Classes: []Class{{Label: "odd", Count: 3, Capacity: capacity}, {Label: "one", Count: 2, Capacity: 1}}}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Solve accepted a NaN capacity")
			}
		}()
		Solve(pool(math.NaN()), reqs)
	}()
	if res := Solve(pool(math.Inf(1)), reqs); res.X[0] != 5 {
		t.Errorf("+Inf capacity: X = %v, want [5]", res.X)
	}
}

func TestRequestUtility(t *testing.T) {
	r := Request{Min: 5, Shape: 2, Resources: 1}
	if r.Utility(4) != 0 {
		t.Error("below Min must be 0")
	}
	if r.Utility(5) != 25 {
		t.Errorf("u(5) = %g", r.Utility(5))
	}
	if r.Utility(0) != 0 || r.Utility(-1) != 0 {
		t.Error("non-positive x must be 0")
	}
}

func TestSolveP2PIndividualRationality(t *testing.T) {
	rng := stats.NewRand(53)
	for trial := 0; trial < 30; trial++ {
		nf := 2 + rng.Intn(2)
		facs := make([]FacilityContribution, nf)
		for i := range facs {
			facs[i] = FacilityContribution{
				Name:    string(rune('A' + i)),
				Classes: []Class{{Count: 1 + rng.Intn(5), Capacity: float64(1 + rng.Intn(3))}},
			}
			nr := 1 + rng.Intn(3)
			for j := 0; j < nr; j++ {
				facs[i].Requests = append(facs[i].Requests, Request{
					Min: rng.Intn(4), Shape: 1, Resources: 1,
				})
			}
		}
		res, err := SolveP2P(facs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range facs {
			if res.Federated[i] < res.Standalone[i]-1e-9 {
				t.Fatalf("trial %d: facility %d federated %g < standalone %g",
					trial, i, res.Federated[i], res.Standalone[i])
			}
		}
		// Shares sum to 1 when total > 0.
		total := 0.0
		for _, u := range res.Federated {
			total += u
		}
		if total > 0 {
			sum := 0.0
			for _, s := range res.Shares {
				sum += s
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("trial %d: shares sum to %g", trial, sum)
			}
		}
	}
}

func TestSolveP2PFederationGain(t *testing.T) {
	// A facility with demand but no resources gains from federation; the
	// resource-rich facility loses nothing.
	facs := []FacilityContribution{
		{Name: "rich", Classes: []Class{{Count: 10, Capacity: 2}},
			Requests: []Request{{Min: 1, Shape: 1, Resources: 1}}},
		{Name: "poor", Classes: []Class{{Count: 0, Capacity: 0}},
			Requests: []Request{{Min: 5, Shape: 1, Resources: 1}}},
	}
	res, err := SolveP2P(facs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Standalone[1] != 0 {
		t.Errorf("poor standalone = %g, want 0", res.Standalone[1])
	}
	if res.Federated[1] < 5 {
		t.Errorf("poor federated = %g, want >= 5", res.Federated[1])
	}
	if res.Federated[0] < res.Standalone[0] {
		t.Error("rich facility must not lose")
	}
}

func TestSolveP2PInvalidInput(t *testing.T) {
	for _, c := range []Class{{Count: -1}, {Count: 1, Capacity: math.NaN()}} {
		if _, err := SolveP2P([]FacilityContribution{
			{Name: "bad", Classes: []Class{c}},
		}); err == nil {
			t.Errorf("invalid class %+v must error", c)
		}
	}
	for _, r := range []Request{
		{Min: 0, Shape: 0, Resources: 1},
		{Min: 0, Shape: math.NaN(), Resources: 1},
		{Min: 0, Shape: math.Inf(1), Resources: 1},
		{Min: 0, Shape: 1, Resources: math.NaN()},
		{Min: 0, Shape: 1, Resources: math.Inf(1)},
	} {
		if _, err := SolveP2P([]FacilityContribution{
			{Name: "bad", Classes: []Class{{Count: 1, Capacity: 1}}, Requests: []Request{r}},
		}); err == nil {
			t.Errorf("invalid request %+v must error", r)
		}
	}
}

func BenchmarkSolveGreedySmall(b *testing.B) {
	p := Pool{Classes: []Class{{Count: 30, Capacity: 3}, {Count: 20, Capacity: 2}}}
	reqs := make([]Request, 10)
	for i := range reqs {
		reqs[i] = Request{Min: 5, Shape: 0.8, Resources: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Solve(p, reqs)
	}
}
