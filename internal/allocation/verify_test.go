package allocation

import (
	"math"
	"testing"

	"fedshare/internal/stats"
)

func TestVerifyAssignmentAcceptsSolveOutput(t *testing.T) {
	// Property: every Solve result on uniform-resource instances is
	// flow-realizable.
	rng := stats.NewRand(61)
	for trial := 0; trial < 120; trial++ {
		p := Pool{Classes: []Class{
			{Count: 1 + rng.Intn(6), Capacity: float64(1 + rng.Intn(4))},
			{Count: rng.Intn(5), Capacity: float64(1 + rng.Intn(3))},
		}}
		nReq := 1 + rng.Intn(5)
		reqs := make([]Request, nReq)
		shape := 1.0
		if rng.Intn(2) == 0 {
			shape = 0.8
		}
		for i := range reqs {
			reqs[i] = Request{Min: rng.Intn(5), Shape: shape, Resources: 1}
			if rng.Intn(3) == 0 {
				reqs[i].Max = 1 + rng.Intn(6)
				if reqs[i].Max < reqs[i].Min {
					reqs[i].Max = reqs[i].Min
				}
			}
		}
		res := Solve(p, reqs)
		if err := verifyAssignment(p, reqs, res.X); err != nil {
			t.Fatalf("trial %d: Solve produced unrealizable counts: %v\npool %+v\nreqs %+v\nX %v",
				trial, err, p, reqs, res.X)
		}
	}
}

func TestVerifyAssignmentRejectsBadCounts(t *testing.T) {
	p := Pool{Classes: []Class{{Count: 3, Capacity: 1}}}
	reqs := identical(2, 1, 1)
	// 2 experiments × 3 locations needs 6 pairs; only 3 slots exist.
	if err := verifyAssignment(p, reqs, []int{3, 3}); err == nil {
		t.Error("overcommitted counts must be rejected")
	}
	// Below-minimum count.
	reqs2 := identical(1, 2, 1)
	if err := verifyAssignment(p, reqs2, []int{1}); err == nil {
		t.Error("count below Min must be rejected")
	}
	// Length mismatch and negatives.
	if err := verifyAssignment(p, reqs, []int{1}); err == nil {
		t.Error("length mismatch must be rejected")
	}
	if err := verifyAssignment(p, reqs, []int{-1, 0}); err == nil {
		t.Error("negative count must be rejected")
	}
	// Valid assignment passes.
	if err := verifyAssignment(p, reqs, []int{2, 1}); err != nil {
		t.Errorf("valid counts rejected: %v", err)
	}
	// Zero (rejected request) is always fine.
	if err := verifyAssignment(p, reqs2, []int{0}); err != nil {
		t.Errorf("zero count rejected: %v", err)
	}
}

func TestSolveFlowMatchesFastPath(t *testing.T) {
	rng := stats.NewRand(67)
	for trial := 0; trial < 80; trial++ {
		p := Pool{Classes: []Class{
			{Count: 1 + rng.Intn(6), Capacity: float64(1 + rng.Intn(4))},
			{Count: 1 + rng.Intn(4), Capacity: float64(1 + rng.Intn(3))},
		}}
		nReq := 1 + rng.Intn(5)
		reqs := make([]Request, nReq)
		for i := range reqs {
			reqs[i] = Request{Min: rng.Intn(5), Shape: 1, Resources: 1}
		}
		fast := Solve(p, reqs) // no caps, d=1 -> fast path
		flow, err := solveFlow(p, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fast.Utility-flow.Utility) > 1e-9 {
			t.Fatalf("trial %d: fast %g != flow %g (pool %+v reqs %+v)",
				trial, fast.Utility, flow.Utility, p, reqs)
		}
	}
}

func TestSolveFlowMatchesBruteForceWithCaps(t *testing.T) {
	rng := stats.NewRand(71)
	for trial := 0; trial < 60; trial++ {
		p := Pool{Classes: []Class{
			{Count: 2 + rng.Intn(3), Capacity: float64(1 + rng.Intn(3))},
			{Count: 1 + rng.Intn(2), Capacity: float64(1 + rng.Intn(2))},
		}}
		nReq := 1 + rng.Intn(3)
		reqs := make([]Request, nReq)
		for i := range reqs {
			reqs[i] = Request{Min: rng.Intn(3), Shape: 1, Resources: 1}
			if rng.Intn(2) == 0 {
				reqs[i].Max = reqs[i].Min + rng.Intn(4)
				if reqs[i].Max == 0 {
					reqs[i].Max = 1
				}
			}
		}
		flow, err := solveFlow(p, reqs)
		if err != nil {
			t.Fatal(err)
		}
		oracle := bruteForce(p, reqs)
		// The flow engine fixes admission by ascending Min, which is
		// optimal for d=1: totals must agree.
		if math.Abs(flow.Utility-oracle.Utility) > 1e-9 {
			t.Fatalf("trial %d: flow %g != oracle %g (pool %+v reqs %+v flowX=%v oracleX=%v)",
				trial, flow.Utility, oracle.Utility, p, reqs, flow.X, oracle.X)
		}
		if err := verifyAssignment(p, reqs, flow.X); err != nil {
			t.Fatalf("trial %d: flow result unrealizable: %v", trial, err)
		}
	}
}

func TestSolveFlowRejectsUnsupported(t *testing.T) {
	p := pool3(1, 1, 1, 1, 1, 1)
	if _, err := solveFlow(p, []Request{{Min: 0, Shape: 0.8, Resources: 1}}); err == nil {
		t.Error("d != 1 must be rejected")
	}
	if _, err := solveFlow(p, []Request{
		{Min: 0, Shape: 1, Resources: 1},
		{Min: 0, Shape: 1, Resources: 2},
	}); err == nil {
		t.Error("mixed resources must be rejected")
	}
}

func TestSolveFlowEmpty(t *testing.T) {
	res, err := solveFlow(Pool{}, nil)
	if err != nil || res.Utility != 0 {
		t.Errorf("empty solveFlow: %v, %g", err, res.Utility)
	}
	res, err = solveFlow(pool3(2, 2, 2, 1, 1, 1), identical(2, 100, 1))
	if err != nil || res.Utility != 0 {
		t.Errorf("infeasible solveFlow: %v, %g", err, res.Utility)
	}
}

func BenchmarkSolveFlow(b *testing.B) {
	p := Pool{Classes: []Class{{Count: 40, Capacity: 3}, {Count: 30, Capacity: 2}}}
	reqs := make([]Request, 15)
	for i := range reqs {
		reqs[i] = Request{Min: 10, Max: 40, Shape: 1, Resources: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solveFlow(p, reqs); err != nil {
			b.Fatal(err)
		}
	}
}
