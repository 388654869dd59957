package allocation

import (
	"fmt"
	"testing"

	"fedshare/internal/stats"
)

func benchInstance() (Pool, []Request) {
	pool := Pool{Classes: []Class{
		{Label: "a", Count: 40, Capacity: 2},
		{Label: "b", Count: 60, Capacity: 1},
		{Label: "c", Count: 25, Capacity: 3},
	}}
	reqs := make([]Request, 100)
	for j := range reqs {
		reqs[j] = Request{Min: 40, Shape: 1, Resources: 1}
	}
	return pool, reqs
}

// BenchmarkSolveLinear measures Solve on the d = 1 engine with the
// shapes of the paper's figures over the L = (100, 400, 800) pool: fig4's
// single request (l = 500, unit capacities), fig6's 100 identical
// requests (l = 600, R = (80, 20, 10)) and fig7's mixture of 20 requests
// with l = 0 and 20 with l = 700 (R = (80, 50, 30)).
func BenchmarkSolveLinear(b *testing.B) {
	for _, tc := range []struct {
		name string
		pool Pool
		reqs []Request
	}{
		{"fig4", pool3(100, 400, 800, 1, 1, 1), identical(1, 500, 1)},
		{"fig6", pool3(100, 400, 800, 80, 20, 10), identical(100, 600, 1)},
		{"fig7", pool3(100, 400, 800, 80, 50, 30), append(identical(20, 0, 1), identical(20, 700, 1)...)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = Solve(tc.pool, tc.reqs)
			}
		})
	}
}

// scarceInstance is the grand pool of the fedbench scarce workload: 30
// facilities in pairs sharing a location count (1–15 locations), with 1–5
// resources per location, against 12 elastic requests (l = 10, d = 0.7)
// and 6 strict ones (x > 80 locations, d = 1.3, 2 resources each).
func scarceInstance() (Pool, []Request) {
	classes := make([]Class, 30)
	for i := range classes {
		classes[i] = Class{Label: "S", Count: 1 + i/2, Capacity: float64(1 + (i/2+i%2)%5)}
	}
	reqs := make([]Request, 0, 18)
	for k := 0; k < 12; k++ {
		reqs = append(reqs, Request{Min: 10, Shape: 0.7, Resources: 1, Label: "elastic"})
	}
	for k := 0; k < 6; k++ {
		reqs = append(reqs, Request{Min: 81, Shape: 1.3, Resources: 2, Label: "strict"})
	}
	return Pool{Classes: classes}, reqs
}

// fig5Pools returns the seven coalitions of fig5's unit-capacity
// L = (100, 400, 800) pool, indexed by member bitmask minus one.
func fig5Pools() []Pool {
	counts := []int{100, 400, 800}
	pools := make([]Pool, 0, 7)
	for s := 1; s < 8; s++ {
		var p Pool
		for i, n := range counts {
			if s&(1<<i) != 0 {
				p.Classes = append(p.Classes, Class{Label: "F", Count: n, Capacity: 1})
			}
		}
		pools = append(pools, p)
	}
	return pools
}

var benchSink *Result

// BenchmarkSolveGreedyScarce measures one full greedy solve of the scarce
// grand pool, the Solve every scarce prefix-step fallback pays.
func BenchmarkSolveGreedyScarce(b *testing.B) {
	pool, reqs := scarceInstance()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = solveGreedy(pool, reqs)
	}
}

// BenchmarkSolveGreedyFig5 measures fig5's greedy work at d = 0.5: one
// request with l = 600 over all seven coalitions, admitted in one order
// and topped up to every free location in one run, as it has no
// runner-up.
func BenchmarkSolveGreedyFig5(b *testing.B) {
	pools := fig5Pools()
	reqs := []Request{{Min: 600, Shape: 0.5, Resources: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pools {
			benchSink = solveGreedy(p, reqs)
		}
	}
}

// prefixWalkInstance returns 500 classes of 1–8 locations hosting 0–12
// experiments each (past the cap at k = 10) and k uniform linear
// requests, with homogeneous minima l = 20 or minima spread over 0–39.
func prefixWalkInstance(k int, hetero bool) ([]Class, []Request) {
	rng := stats.NewRand(18)
	classes := make([]Class, 500)
	for i := range classes {
		classes[i] = Class{Label: "w", Count: 1 + rng.Intn(8), Capacity: float64(rng.Intn(13))}
	}
	reqs := make([]Request, k)
	for j := range reqs {
		reqs[j] = Request{Min: 20, Shape: 1, Resources: 1}
		if hetero {
			reqs[j].Min = rng.Intn(40)
		}
	}
	return classes, reqs
}

var prefixSink float64

// BenchmarkPrefixSolverWalk measures one 500-class prefix walk, every
// step on the fast path, with homogeneous and heterogeneous minima at
// k = 10 and k = 100: by Walk, as the sampler's distinct-facility walks
// run, and by one Extend per step, as they run behind a wrapper that
// hides Walk. No fedbench workload reaches the heterogeneous admission
// replay; this is where its cost shows.
func BenchmarkPrefixSolverWalk(b *testing.B) {
	for _, path := range []string{"walk", "extend"} {
		for _, minima := range []string{"homog", "hetero"} {
			for _, k := range []int{10, 100} {
				b.Run(fmt.Sprintf("%s/%s/k=%d", path, minima, k), func(b *testing.B) {
					classes, reqs := prefixWalkInstance(k, minima == "hetero")
					ps := newSolver(b, reqs, classes)
					order := make([]int, len(classes))
					for i := range order {
						order[i] = i
					}
					vals := make([]float64, len(classes))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if path == "walk" {
							ps.Walk(order, vals)
							prefixSink += vals[len(vals)-1]
							continue
						}
						ps.Reset()
						for _, j := range order {
							v, _ := ps.Extend(j)
							prefixSink += v
						}
					}
				})
			}
		}
	}
}
