package core

import (
	"math"
	"strconv"
	"testing"

	"fedshare/internal/coalition"
	"fedshare/internal/economics"
)

// benchFederation builds an n-facility federation from k facility
// templates for the approximation-tier benchmarks — the same shape as
// heteroModel but usable from benchmarks.
func benchFederation(tb testing.TB, n, k int) *Model {
	tb.Helper()
	wl, err := economics.NewWorkload(economics.DemandClass{
		Type: economics.ExperimentType{
			Name: "batch", MinLocations: 10, MaxLocations: math.Inf(1),
			Resources: 1, HoldingTime: 1, Shape: 1,
		},
		Count: 40,
	})
	if err != nil {
		tb.Fatal(err)
	}
	fs := make([]Facility, n)
	for i := range fs {
		tpl := i % k
		fs[i] = Facility{
			Name:      fsName(i, tpl),
			Locations: 5 + 3*tpl,
			Resources: 1 + 0.5*float64(tpl),
		}
	}
	m, err := NewModel(fs, wl)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkApproxShapley measures the full product path of the
// approximation tier at federation scale: symmetry collapse over 5
// facility templates, then stratified antithetic permutation sampling
// adaptive to a 1% relative CI target. These are the BENCH_6.json
// wall-clock points (n = 50, 100, 200, 500). The demand is linear, so the
// collapsed game's PrefixSolver fast path certifies every walked step,
// each walk in one batched call: no step reaches the count-vector memo or
// Value. Each iteration builds a fresh model, so nothing carries
// over between iterations — matching how a scenario sweep behaves.
// BenchmarkApproxShapleyCollapsedGreedy measures the memo-served side.
func BenchmarkApproxShapley(b *testing.B) {
	for _, n := range []int{50, 100, 200, 500} {
		b.Run(benchName(n), func(b *testing.B) {
			p := ApproxShapleyPolicy{CITarget: 0.01, Seed: 42, Method: coalition.MethodApprox}
			for i := 0; i < b.N; i++ {
				m := benchFederation(b, n, 5)
				res, err := p.Result(m)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatalf("n=%d did not converge in %d samples", n, res.Samples)
				}
			}
		})
	}
}

// BenchmarkApproxShapleyCollapsedGreedy measures the collapsed game's
// memo-served side: 36 facilities from three templates — A (8 locations
// of 3 resources), B (20 of 2), C (50 of 1), 12 replicas each — under 12
// elastic requests (min 10 locations, shape 0.7) and 6 strict ones (min
// 80, shape 1.3, 2 resources). The demand is off the fast path and every
// capacity is below its total resource demand, so the PrefixSolver
// certifies no step and each one reads the count-vector memo, which
// solves a count vector on its first visit only. Forced approx, 2000
// samples, seed 42.
func BenchmarkApproxShapleyCollapsedGreedy(b *testing.B) {
	wl, err := economics.NewWorkload(
		economics.DemandClass{Type: economics.ExperimentType{
			Name: "elastic", MinLocations: 10, MaxLocations: math.Inf(1),
			Resources: 1, HoldingTime: 1, Shape: 0.7,
		}, Count: 12},
		economics.DemandClass{Type: economics.ExperimentType{
			Name: "strict", MinLocations: 80, MaxLocations: math.Inf(1),
			Resources: 2, HoldingTime: 1, Shape: 1.3,
		}, Count: 6},
	)
	if err != nil {
		b.Fatal(err)
	}
	tpls := []Facility{
		{Name: "A", Locations: 8, Resources: 3},
		{Name: "B", Locations: 20, Resources: 2},
		{Name: "C", Locations: 50, Resources: 1},
	}
	p := ApproxShapleyPolicy{Samples: 2000, Seed: 42, Method: coalition.MethodApprox}
	for i := 0; i < b.N; i++ {
		fs := make([]Facility, 0, 36)
		for _, tpl := range tpls {
			for r := 0; r < 12; r++ {
				fs = append(fs, tpl)
			}
		}
		m, err := NewModel(fs, wl)
		if err != nil {
			b.Fatal(err)
		}
		res, err := p.Result(m)
		if err != nil {
			b.Fatal(err)
		}
		if res.Method != coalition.EngineApproxCollapsed {
			b.Fatalf("engine %q, want %q", res.Method, coalition.EngineApproxCollapsed)
		}
	}
}

// BenchmarkApproxShapleyDistinct is the worst case for the tier: no two
// facilities alike, so symmetry collapse finds nothing and the sampler
// walks the full n-player member-list game. Fixed budget (one stratified
// antithetic round) rather than a CI target, so the metric is pure
// sampling throughput — since PR 7, dominated by the incremental prefix
// solver rather than per-prefix re-solves. n = 2000 is fedbench walk's
// size.
func BenchmarkApproxShapleyDistinct(b *testing.B) {
	for _, n := range []int{50, 100, 200, 500, 2000} {
		b.Run(benchName(n), func(b *testing.B) {
			p := ApproxShapleyPolicy{Samples: 2 * n, Seed: 42, Method: coalition.MethodApprox}
			for i := 0; i < b.N; i++ {
				m := benchFederation(b, n, n)
				if _, err := p.Result(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExactShapley anchors the comparison: the dense 2^n kernel on
// the largest sizes it can still reach. Together with BenchmarkApproxShapley
// this is the "2^n wall" picture — exact cost doubles per facility while
// the sampler's grows polynomially.
func BenchmarkExactShapley(b *testing.B) {
	for _, n := range []int{12, 16, 20} {
		b.Run(benchName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := benchFederation(b, n, 5)
				if _, err := (ShapleyPolicy{}).Shares(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(n int) string { return "n=" + strconv.Itoa(n) }

// TestKernelSamplerAgreement is the agreement gate feeding BENCH_6.json:
// at sizes where the exact 2^n kernel is still feasible, the sampled
// shares must match it within their own reported confidence intervals.
// The max-abs-error per size is logged for the bench record.
func TestKernelSamplerAgreement(t *testing.T) {
	for _, n := range []int{12, 16, 20} {
		m := benchFederation(t, n, 4)
		exact := shares(t, m, ShapleyPolicy{})
		p := ApproxShapleyPolicy{Samples: 4096, Seed: 42, Method: coalition.MethodApprox}
		res, err := p.Result(m)
		if err != nil {
			t.Fatal(err)
		}
		vn := m.GrandValue()
		maxErr, maxRel := 0.0, 0.0
		for i := range exact {
			err := math.Abs(res.Phi[i]/vn - exact[i])
			if err > maxErr {
				maxErr = err
			}
			if rel := err * vn; rel > 5*res.CIHalf[i]+1e-9 {
				t.Errorf("n=%d facility %d: |φ̂-φ| = %g beyond 5×CI %g", n, i, rel, res.CIHalf[i])
			}
			if r := err / exact[i]; exact[i] > 0 && r > maxRel {
				maxRel = r
			}
		}
		t.Logf("n=%d: max abs share error %.2e (max rel %.2e) at %d samples", n, maxErr, maxRel, res.Samples)
	}
}
