package allocation

import (
	"testing"

	"fedshare/internal/stats"
)

// randLinearInstance draws a d = 1 instance: zero to four classes of zero
// to 30 locations (so some pools are empty) with capacities from 0 to past
// the request count, and 1–40 requests with uniform resources, one in five
// a single request. Half the lists share one minimum — 0 one time in four,
// else anywhere up to past the pool size — and half mix minima from 0 to
// past the pool size, a quarter of them 0. Max is unbounded or at or past
// the pool size, except that in one list in ten half the requests draw it
// from 1..L, where it may bind.
func randLinearInstance(rng *stats.Rand) (Pool, []Request) {
	r0 := []float64{0.25, 0.5, 1, 2, 0.3}[rng.Intn(5)]
	var pool Pool
	for range rng.Intn(5) {
		capacity := float64(rng.Intn(8)) * r0
		switch rng.Intn(4) {
		case 0:
			capacity = rng.Float64() * 6 * r0
		case 1:
			capacity = float64(30+rng.Intn(60)) * r0
		}
		pool.Classes = append(pool.Classes, Class{Label: "c", Count: rng.Intn(31), Capacity: capacity})
	}
	L := pool.TotalLocations()
	k := 1 + rng.Intn(40)
	if rng.Intn(5) == 0 {
		k = 1
	}
	homog, bind := rng.Intn(2) == 0, rng.Intn(10) == 0
	l := rng.Intn(L + 5)
	if rng.Intn(4) == 0 {
		l = 0
	}
	reqs := make([]Request, k)
	for j := range reqs {
		r := Request{Min: l, Shape: 1, Resources: r0}
		if !homog {
			r.Min = rng.Intn(L + 5)
			if rng.Intn(4) == 0 {
				r.Min = 0
			}
		}
		switch {
		case bind && rng.Intn(2) == 0:
			r.Max = 1 + rng.Intn(L+1)
		case rng.Intn(3) == 0:
			r.Max = L + rng.Intn(5)
		}
		reqs[j] = r
	}
	return pool, reqs
}

// TestSolveMatchesLinearOracles requires Solve to reproduce, on 20,000
// generated d = 1 instances, every Result field of the moved solveFast bit
// for bit, and of solveAnalytic where its identical-minima closed form
// applies; and the one "d = 1 applies" predicate to agree with the
// oracles' fastApplies, including where a bounded Max binds.
func TestSolveMatchesLinearOracles(t *testing.T) {
	rng := stats.NewRand(2110)
	var homog, zeroMin, pastPool, mixed, mixedZero, empty, single, offPath int
	for trial := 0; homog+mixed < 20000; trial++ {
		pool, reqs := randLinearInstance(rng)
		L := pool.TotalLocations()
		var d demand
		if err := d.init(reqs); err != nil {
			t.Fatal(err)
		}
		if want := fastApplies(pool, reqs); d.linear(L) != want {
			t.Fatalf("trial %d: linear(%d) = %v, fastApplies %v\nrequests %+v", trial, L, !want, want, reqs)
		}
		if !d.linear(L) {
			offPath++
			continue
		}
		got := Solve(pool, reqs)
		if err := sameResult(got, solveFast(pool, reqs)); err != nil {
			t.Fatalf("trial %d: Solve vs solveFast: %v\npool %+v\nrequests %+v", trial, err, pool.Classes, reqs)
		}
		if analyticEligible(pool, reqs) {
			if err := sameResult(got, solveAnalytic(pool, reqs)); err != nil {
				t.Fatalf("trial %d: Solve vs solveAnalytic: %v\npool %+v\nrequests %+v", trial, err, pool.Classes, reqs)
			}
			homog++
			switch l := reqs[0].Min; {
			case l == 0:
				zeroMin++
			case l > L:
				pastPool++
			}
		} else {
			mixed++
			for _, r := range reqs {
				if r.Min == 0 {
					mixedZero++
					break
				}
			}
		}
		if L == 0 {
			empty++
		}
		if len(reqs) == 1 {
			single++
		}
	}
	t.Logf("%d identical minima (%d with l = 0, %d with l > L), %d mixed (%d with a zero), %d empty pools, %d with k = 1, %d off the d = 1 engine",
		homog, zeroMin, pastPool, mixed, mixedZero, empty, single, offPath)
	for name, n := range map[string]int{
		"l = 0": zeroMin, "l > L": pastPool, "mixed minima with zeros": mixedZero,
		"empty pools": empty, "k = 1": single, "binding Max": offPath,
	} {
		if n < 100 {
			t.Errorf("only %d instances with %s", n, name)
		}
	}
}

// TestLinearBinPastIntRange pins capacity-to-bin conversions whose
// quotient lies past the int range: 5 requests with l = 0 on a class of
// 4 locations of capacity 1e300 (each hosts all 5) and one of 6 locations
// of capacity 2 are worth 20, 12 and 32 together. The same holds with
// r = 1e-300 against capacities 1 and 2e-300. Solve and the PrefixSolver
// driven through Extend and Walk must all read those values.
func TestLinearBinPastIntRange(t *testing.T) {
	for _, tc := range []struct {
		r    float64
		a, b Class
	}{
		{1, Class{Label: "A", Count: 4, Capacity: 1e300}, Class{Label: "B", Count: 6, Capacity: 2}},
		{1e-300, Class{Label: "A", Count: 4, Capacity: 1}, Class{Label: "B", Count: 6, Capacity: 2e-300}},
	} {
		reqs := identical(5, 0, tc.r)
		for _, c := range []struct {
			classes []Class
			want    float64
		}{
			{[]Class{tc.a}, 20}, {[]Class{tc.b}, 12}, {[]Class{tc.a, tc.b}, 32}, {[]Class{tc.b, tc.a}, 32},
		} {
			if got := Solve(Pool{Classes: c.classes}, reqs).Utility; got != c.want {
				t.Errorf("r = %g: Solve(%+v) = %g, want %g", tc.r, c.classes, got, c.want)
			}
		}
		ps := newSolver(t, reqs, []Class{tc.a, tc.b})
		alone := []float64{20, 12}
		vals := make([]float64, 2)
		for _, order := range [][]int{{0, 1}, {1, 0}} {
			want := []float64{alone[order[0]], 32}
			ps.Reset()
			for n, i := range order {
				if got, ok := ps.Extend(i); !ok || got != want[n] {
					t.Errorf("r = %g: Extend step %d of %v read %g (certified %v), want %g", tc.r, n, order, got, ok, want[n])
				}
			}
			if ps.Walk(order, vals); vals[0] != want[0] || vals[1] != want[1] {
				t.Errorf("r = %g: Walk %v read %v, want %v", tc.r, order, vals, want)
			}
		}
	}
}
