// Benchmark harness: one benchmark per figure of the paper's evaluation
// (Sec. 4). Each BenchmarkFigN regenerates the figure's full data series;
// the b.N loop measures the cost of the whole experiment, and the first
// iteration's output is checked against the paper's anchor values so a
// benchmark run is also a reproduction run.
//
// Run with:
//
//	go test -bench=. -benchmem
package fedshare_test

import (
	"context"
	"math"
	"runtime"
	"testing"

	"fedshare/internal/coalition"
	"fedshare/internal/economics"
	_ "fedshare/internal/figures"
	"fedshare/internal/loss"
	"fedshare/internal/scenario"
	"fedshare/internal/stats"
)

// benchFigure runs a registered figure scenario, failing the benchmark on
// error.
func benchFigure(b *testing.B, id string) *scenario.Result {
	b.Helper()
	e, err := scenario.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	f, err := scenario.RunContext(context.Background(), e.Spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

func anchor(b *testing.B, f *scenario.Result, series string, x, want, tol float64) {
	b.Helper()
	for _, s := range f.Series {
		if s.Name != series {
			continue
		}
		y, ok := s.YAt(x)
		if !ok {
			b.Fatalf("%s: no point at x=%g in %s", f.ID, x, series)
		}
		if math.Abs(y-want) > tol {
			b.Fatalf("%s: %s(%g) = %g, paper shape wants %g (±%g)", f.ID, series, x, y, want, tol)
		}
		return
	}
	b.Fatalf("%s: series %s missing", f.ID, series)
}

// BenchmarkFig2 regenerates the utility-function figure (Fig 2).
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchFigure(b, "fig2")
		if i == 0 {
			anchor(b, f, "d=1.0", 100, 100, 1e-9)
			anchor(b, f, "d=0.8", 40, 0, 0) // below threshold
		}
	}
}

// BenchmarkFig4 regenerates the threshold sweep (Fig 4): the staircase of
// Shapley shares against the flat proportional rule.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchFigure(b, "fig4")
		if i == 0 {
			anchor(b, f, "pi2", 500, 4.0/13, 1e-9)  // paper: π̂2 = 4/13
			anchor(b, f, "phi1", 1250, 1.0/3, 1e-9) // grand-only equal split
			anchor(b, f, "phi3", 1350, 0, 0)        // infeasible demand
		}
	}
}

// BenchmarkFig4Strict regenerates Fig 4 under the strict-threshold
// convention that matches the paper's worked numbers exactly.
func BenchmarkFig4Strict(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchFigure(b, "fig4-strict")
		if i == 0 {
			anchor(b, f, "phi2", 500, 2.0/13, 1e-9) // paper: φ̂2 = 2/13
		}
	}
}

// BenchmarkFig5 regenerates the utility-shape sweep (Fig 5).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchFigure(b, "fig5")
		if i == 0 {
			// Convexity pulls Shapley toward proportional: by d = 2.5 the
			// facility-3 gap must be small.
			var phi3, pi3 float64
			for _, s := range f.Series {
				if s.Name == "phi3" {
					phi3, _ = s.YAt(2.5)
				}
				if s.Name == "pi3" {
					pi3, _ = s.YAt(2.5)
				}
			}
			if math.Abs(phi3-pi3) > 0.12 {
				b.Fatalf("fig5: phi3-pi3 gap %g at d=2.5, expected convergence", phi3-pi3)
			}
		}
	}
}

// BenchmarkFig6 regenerates the capacity-aware threshold sweep (Fig 6):
// equal L_i·R_i, very different Shapley shares.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchFigure(b, "fig6")
		if i == 0 {
			anchor(b, f, "phi1", 0, 1.0/3, 1e-6)
			anchor(b, f, "pi1", 900, 1.0/3, 1e-6)
			anchor(b, f, "phi1", 1250, 1.0/3, 1e-6)
		}
	}
}

// BenchmarkFig7 regenerates the demand-mixture sweep (Fig 7).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchFigure(b, "fig7")
		if i == 0 {
			var lo, hi float64
			for _, s := range f.Series {
				if s.Name == "phi3" {
					lo, _ = s.YAt(0)
					hi, _ = s.YAt(1)
				}
			}
			if hi <= lo {
				b.Fatalf("fig7: phi3 must rise with sigma (%g -> %g)", lo, hi)
			}
		}
	}
}

// BenchmarkFig8 regenerates the demand-volume sweep (Fig 8) including the
// consumption-proportional rule ρ̂.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchFigure(b, "fig8")
		if i == 0 {
			anchor(b, f, "rho3", 5, 8.0/13, 0.05) // low demand: diversity profile
			var rLo, rHi float64
			for _, s := range f.Series {
				if s.Name == "rho3" {
					rLo, _ = s.YAt(5)
					rHi, _ = s.YAt(100)
				}
			}
			if rHi >= rLo {
				b.Fatalf("fig8: rho3 must fall with demand (%g -> %g)", rLo, rHi)
			}
		}
	}
}

// BenchmarkFig9 regenerates the provision-incentive curves (Fig 9).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchFigure(b, "fig9")
		if i == 0 {
			// Proportional profit at l=0 grows smoothly to L1·R1-level
			// values; Shapley at l=800 must exhibit a threshold jump.
			var maxStep, sumStep float64
			n := 0
			for _, s := range f.Series {
				if s.Name != "phi1,l=800" {
					continue
				}
				for k := 1; k < len(s.Points); k++ {
					d := math.Abs(s.Points[k].Y - s.Points[k-1].Y)
					if d > maxStep {
						maxStep = d
					}
					sumStep += d
					n++
				}
			}
			if n == 0 || maxStep < 3*sumStep/float64(n) {
				b.Fatalf("fig9: missing threshold jump (max %g, mean %g)", maxStep, sumStep/float64(n))
			}
		}
	}
}

// BenchmarkFiguresCold regenerates every registered figure, one
// sub-benchmark per figure, as a fedbench pass runs it: every coalition
// value is solved from its own pool. The BenchmarkFigN benchmarks above
// run the same way: no allocation result carries over between iterations.
func BenchmarkFiguresCold(b *testing.B) {
	for _, id := range scenario.IDs() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchFigure(b, id)
			}
		})
	}
}

// BenchmarkMultiplexing runs the loss-network extension backing Sec. 3.2.1:
// short holding times make federation super-additive via statistical
// multiplexing.
func BenchmarkMultiplexing(b *testing.B) {
	cfg := loss.Config{
		Stations: []loss.Station{
			{Label: "a", Count: 4, Capacity: 1},
			{Label: "b", Count: 4, Capacity: 1},
		},
		Arrivals: []economics.ArrivalSpec{{
			Type: economics.ExperimentType{
				Name: "e", MinLocations: 3, MaxLocations: 3,
				Resources: 1, HoldingTime: 0.1, Shape: 1,
			},
			Rate: 30,
		}},
		Horizon: 500,
		Seed:    7,
	}
	for i := 0; i < b.N; i++ {
		gap, err := loss.SuperadditivityGap(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = gap
	}
}

// BenchmarkFigureTables measures the rendering path used by fedsim.
func BenchmarkFigureTables(b *testing.B) {
	f := benchFigure(b, "fig4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Table()
	}
}

// BenchmarkSeriesOps measures the stats series hot path.
func BenchmarkSeriesOps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var s stats.Series
		for x := 0; x < 100; x++ {
			s.Add(float64(x), float64(x*x))
		}
		if _, ok := s.YAt(50); !ok {
			b.Fatal("missing point")
		}
	}
}

// BenchmarkFigMarket regenerates the extension figure comparing Shapley
// with the combinatorial-auction baseline (Sec. 5).
func BenchmarkFigMarket(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchFigure(b, "fig-market")
		if i == 0 && len(f.Series) != 6 {
			b.Fatalf("fig-market has %d series", len(f.Series))
		}
	}
}

// shapleyBenchTable builds the n-player random Table game shared by the
// kernel Shapley benchmarks; the per-player oracle's counterpart,
// BenchmarkShapleyLegacy, lives in internal/coalition.
func shapleyBenchTable(b *testing.B, n int) *coalition.Table {
	b.Helper()
	rng := stats.NewRand(2024)
	vals := make([]float64, 1<<uint(n))
	for i := 1; i < len(vals); i++ {
		vals[i] = rng.Float64() * 100
	}
	g, err := coalition.NewTable(n, vals)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkShapleyKernel measures the batched coalition-lattice kernel:
// one sequential sweep over the dense value table yielding Shapley and
// Banzhaf together.
func BenchmarkShapleyKernel(b *testing.B) {
	g := shapleyBenchTable(b, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coalition.BatchedValues(g, 1)
	}
}

// BenchmarkShapleyKernelParallel shards the sweep over GOMAXPROCS workers
// (coalition-range parallelism, not per-player).
func BenchmarkShapleyKernelParallel(b *testing.B) {
	g := shapleyBenchTable(b, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coalition.BatchedValues(g, runtime.GOMAXPROCS(0))
	}
}
