package allocation

import "fmt"

// bruteForce exhaustively maximizes total utility by enumerating, for every
// request, each feasible count of locations taken from each class. It is a
// test oracle: cost grows as Π_j Π_c (Count_c+1); it panics when the search
// space exceeds ~10^7 states.
func bruteForce(pool Pool, reqs []Request) *Result {
	nc := len(pool.Classes)
	if bitsNeeded := pool.TotalLocations() * len(reqs); bitsNeeded > 22 {
		panic(fmt.Sprintf("allocation: brute-force space 2^%d too large", bitsNeeded))
	}
	best := &Result{
		X:               make([]int, len(reqs)),
		ConsumedByClass: make([]float64, nc),
		SlotsByClass:    make([]int, nc),
	}

	// rem[c] = remaining capacity histogram per class: since experiments
	// consume r_j at distinct locations, track per class the number of
	// locations whose remaining capacity is any given value. To keep the
	// oracle simple (small instances only) we track each location
	// individually.
	var locCaps []float64
	var locClass []int
	for c, cl := range pool.Classes {
		for i := 0; i < cl.Count; i++ {
			locCaps = append(locCaps, cl.Capacity)
			locClass = append(locClass, c)
		}
	}
	L := len(locCaps)

	x := make([]int, len(reqs))
	usedBy := make([][]bool, len(reqs))
	for j := range usedBy {
		usedBy[j] = make([]bool, L)
	}
	rem := append([]float64(nil), locCaps...)

	var rec func(j int)
	evaluate := func() {
		total := 0.0
		for j, r := range reqs {
			total += r.Utility(x[j])
		}
		if total > best.Utility+1e-12 {
			best.Utility = total
			copy(best.X, x)
			for c := range best.ConsumedByClass {
				best.ConsumedByClass[c] = 0
				best.SlotsByClass[c] = 0
			}
			for j := range reqs {
				for li := 0; li < L; li++ {
					if usedBy[j][li] {
						best.ConsumedByClass[locClass[li]] += reqs[j].Resources
						best.SlotsByClass[locClass[li]]++
					}
				}
			}
		}
	}
	// For request j choose any subset of locations of size within
	// [0 or Min..Max]; enumerate subsets recursively per location.
	var chooseLoc func(j, li, taken int)
	chooseLoc = func(j, li, taken int) {
		r := reqs[j]
		maxX := r.maxLocations(L)
		if li == L {
			if taken == 0 || (taken >= r.Min && taken <= maxX) {
				x[j] = taken
				rec(j + 1)
			}
			return
		}
		// Skip this location.
		chooseLoc(j, li+1, taken)
		// Take it if capacity allows and cap not reached.
		if taken < maxX && rem[li]+1e-12 >= r.Resources {
			rem[li] -= r.Resources
			usedBy[j][li] = true
			chooseLoc(j, li+1, taken+1)
			usedBy[j][li] = false
			rem[li] += r.Resources
		}
	}
	rec = func(j int) {
		if j == len(reqs) {
			evaluate()
			return
		}
		chooseLoc(j, 0, 0)
	}
	rec(0)
	return best
}
