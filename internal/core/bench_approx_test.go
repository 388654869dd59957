package core

import (
	"math"
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
// wall-clock points (n = 50, 100, 200, 500). Each iteration builds a
// fresh model and a fresh count-vector memo, and the collapsed game never
// reads the allocation memo, so every iteration solves its count vectors
// cold — matching how a scenario sweep behaves.
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

// BenchmarkApproxShapleyDistinct is the worst case for the tier: no two
// facilities alike, so symmetry collapse finds nothing and the sampler
// walks the full n-player member-list game. Fixed budget (one stratified
// antithetic round) rather than a CI target, so the metric is pure
// sampling throughput — since PR 7, dominated by the incremental prefix
// solver rather than per-prefix re-solves.
func BenchmarkApproxShapleyDistinct(b *testing.B) {
	for _, n := range []int{50, 100, 200, 500} {
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

func benchName(n int) string {
	switch {
	case n >= 100:
		return "n=" + string(rune('0'+n/100)) + string(rune('0'+n/10%10)) + string(rune('0'+n%10))
	default:
		return "n=" + string(rune('0'+n/10)) + string(rune('0'+n%10))
	}
}

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
