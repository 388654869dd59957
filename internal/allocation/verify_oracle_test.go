package allocation

import (
	"fmt"
	"math"
)

// verifyAssignment checks, with an independent max-flow computation, that
// the location counts X are simultaneously realizable on the pool: there
// exists an assignment of distinct locations giving request j exactly X[j]
// locations without exceeding any location's capacity. It requires uniform
// request resources (the flow model has unit edges) and errors otherwise.
//
// This is the structural soundness oracle for the allocation engines: any
// Result they return must pass.
func verifyAssignment(pool Pool, reqs []Request, X []int) error {
	if len(X) != len(reqs) {
		return fmt.Errorf("allocation: %d counts for %d requests", len(X), len(reqs))
	}
	if len(reqs) == 0 {
		return nil
	}
	r0 := reqs[0].Resources
	for j, r := range reqs {
		if r.Resources != r0 {
			return fmt.Errorf("allocation: verifyAssignment needs uniform resources (request %d differs)", j)
		}
	}
	L := pool.TotalLocations()
	total := 0
	var leftCap []int
	for j, x := range X {
		if x < 0 {
			return fmt.Errorf("allocation: negative count X[%d] = %d", j, x)
		}
		if x == 0 {
			continue
		}
		r := reqs[j]
		if x < r.Min || x > r.maxLocations(L) {
			return fmt.Errorf("allocation: X[%d] = %d outside [%d, %d]", j, x, r.Min, r.maxLocations(L))
		}
		leftCap = append(leftCap, x)
		total += x
	}
	if total == 0 {
		return nil
	}
	var rightCap []int
	for _, c := range pool.Classes {
		slots := int(math.Floor(c.Capacity / r0))
		for i := 0; i < c.Count; i++ {
			rightCap = append(rightCap, slots)
		}
	}
	flow, _ := bMatching(leftCap, rightCap)
	if flow != total {
		return fmt.Errorf("allocation: counts %v need %d pairs but flow admits only %d", X, total, flow)
	}
	return nil
}

// solveFlow is an exact engine for linear utility (d = 1) with uniform
// resources that, unlike the closed-form fast path, also honors Max caps
// exactly: it fixes an admission set (ascending Min, while feasible) and
// computes the maximum total assignment by max flow with per-request degree
// bounds in [Min, Max]. Lower bounds are enforced by allocating minima
// first (Gale–Ryser-checked) and topping up on the residual network.
func solveFlow(pool Pool, reqs []Request) (*Result, error) {
	for j, r := range reqs {
		if r.Shape != 1 {
			return nil, fmt.Errorf("allocation: solveFlow handles d = 1 only (request %d)", j)
		}
		if j > 0 && r.Resources != reqs[0].Resources {
			return nil, fmt.Errorf("allocation: solveFlow needs uniform resources")
		}
	}
	nc := len(pool.Classes)
	res := &Result{
		X:               make([]int, len(reqs)),
		ConsumedByClass: make([]float64, nc),
		SlotsByClass:    make([]int, nc),
	}
	if len(reqs) == 0 || pool.TotalLocations() == 0 {
		return res, nil
	}
	r0 := reqs[0].Resources
	L := pool.TotalLocations()

	// Location slots per class.
	n := make([]int, nc)
	counts := make([]int, nc)
	for c, cl := range pool.Classes {
		n[c] = int(math.Floor(cl.Capacity / r0))
		counts[c] = cl.Count
	}

	// Admission: ascending Min while the minima stay Gale–Ryser feasible
	// (identical to the fast path — admission is about feasibility, not
	// packing, at d = 1).
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	for a := 0; a < len(order); a++ {
		for b := a + 1; b < len(order); b++ {
			if reqs[order[b]].Min < reqs[order[a]].Min {
				order[a], order[b] = order[b], order[a]
			}
		}
	}
	var admitted []int
	var minsDesc []int
	for _, j := range order {
		if reqs[j].Min > L {
			continue
		}
		pos := 0
		for pos < len(minsDesc) && minsDesc[pos] >= reqs[j].Min {
			pos++
		}
		minsDesc = append(minsDesc, 0)
		copy(minsDesc[pos+1:], minsDesc[pos:])
		minsDesc[pos] = reqs[j].Min
		if !minimaFeasible(minsDesc, n, counts) {
			copy(minsDesc[pos:], minsDesc[pos+1:])
			minsDesc = minsDesc[:len(minsDesc)-1]
			continue
		}
		admitted = append(admitted, j)
	}
	if len(admitted) == 0 {
		return res, nil
	}

	// Flow network with lower bounds handled in two phases: first route
	// each admitted request its minimum (guaranteed feasible by the GR
	// check), then maximize the top-up with caps Max − Min on the residual
	// graph. A single graph with source edges of capacity Max and a
	// post-check of minima would not guarantee the lower bounds, so the
	// two-phase construction is used instead.
	nl := len(admitted)
	nrLocs := L
	g := newFlowGraph(nl + nrLocs + 2)
	s, t := 0, nl+nrLocs+1
	minEdges := make([]int, nl)
	for i, j := range admitted {
		minEdges[i] = g.addEdge(s, 1+i, reqs[j].Min)
	}
	li := 0
	for c := range pool.Classes {
		for k := 0; k < counts[c]; k++ {
			g.addEdge(1+nl+li, t, n[c])
			li++
		}
	}
	for i := 0; i < nl; i++ {
		for l := 0; l < nrLocs; l++ {
			g.addEdge(1+i, 1+nl+l, 1)
		}
	}
	sumMin := 0
	for _, j := range admitted {
		sumMin += reqs[j].Min
	}
	if got := g.maxFlow(s, t); got != sumMin {
		return nil, fmt.Errorf("allocation: internal: minima flow %d != %d", got, sumMin)
	}
	// Phase 2: raise source capacities to Max and continue the flow on the
	// same residual network.
	extraEdges := make([]int, nl)
	for i := range extraEdges {
		extraEdges[i] = -1
	}
	for i, j := range admitted {
		if extra := reqs[j].maxLocations(L) - reqs[j].Min; extra > 0 {
			extraEdges[i] = g.addEdge(s, 1+i, extra)
		}
	}
	g.maxFlow(s, t)

	deg := make([]int, nl)
	for i := range admitted {
		deg[i] = g.flow(minEdges[i])
		if extraEdges[i] >= 0 {
			deg[i] += g.flow(extraEdges[i])
		}
	}

	for i, j := range admitted {
		res.X[j] = deg[i]
		res.Utility += float64(deg[i])
	}
	// Consumption attribution mirrors the balanced convention of the fast
	// path: per-class consumption scales with each class's slot supply.
	assigned := 0
	for _, d := range deg {
		assigned += d
	}
	m := nl
	slotsAvail := totalSlots(n, counts, m)
	for c := range n {
		k := n[c]
		if k > m {
			k = m
		}
		classSlots := counts[c] * k
		if slotsAvail > 0 && assigned < slotsAvail {
			classSlots = int(math.Round(float64(classSlots) * float64(assigned) / float64(slotsAvail)))
		}
		res.SlotsByClass[c] = classSlots
		res.ConsumedByClass[c] = float64(classSlots) * r0
	}
	rebalanceSlots(res, assigned)
	return res, nil
}
