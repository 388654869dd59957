package core

import (
	"math"

	"fedshare/internal/allocation"
	"fedshare/internal/coalition"
)

// PrefixValuer implements coalition.PrefixGame: it returns a reusable
// incremental walker over the federation game, so the sampling Shapley
// engines can evaluate a permutation's growing prefixes by updating the
// previous prefix's solved allocation state (allocation.PrefixSolver)
// instead of re-solving V(S∪{i}) from scratch. Each Extend(i) adds
// facility i's location class to the pool — exactly the class
// ValueMembers builds — and returns µ times the updated optimal utility,
// bit-identical to ValueMembers of the extended member list. Its Walk
// values a whole walk in one PrefixSolver.Walk over the same classes,
// with the same values and counters as the Extend loop.
//
// Overlap models return nil (their V depends on concrete location
// identities, not the class multiset, so no incremental pool state
// applies); the walker then falls back to ValueMembers. The solver shares
// the process-wide allocation memo read-only on its fallback steps, so
// walks never flood the memo with one-off prefix keys.
//
// The returned valuer is stateful and single-goroutine; concurrent
// sampling workers each obtain their own (sharing the model and the memo
// is safe).
func (m *Model) PrefixValuer() coalition.PrefixValuer {
	if m.Overlap != nil {
		return nil
	}
	ps, err := allocation.NewPrefixSolver(m.requests(), allocation.DefaultMemo)
	if err != nil {
		// Invalid demand surfaces as a panic in Solve/ValueMembers; let
		// the non-incremental path report it the established way.
		return nil
	}
	classes := make([]allocation.Class, len(m.Facilities))
	for i, f := range m.Facilities {
		classes[i] = allocation.Class{Label: f.Name, Count: f.Locations, Capacity: f.EffectiveCapacity()}
	}
	ps.SetClasses(classes)
	return &modelPrefixValuer{ps: ps, classes: classes, mu: m.muFactor()}
}

// modelPrefixValuer walks one growing coalition of facilities. classes[i]
// is facility i's location class, built once per valuer and shared with
// the solver's Walk.
type modelPrefixValuer struct {
	ps      *allocation.PrefixSolver
	classes []allocation.Class
	mu      float64
}

// Reset implements coalition.PrefixValuer.
func (v *modelPrefixValuer) Reset() { v.ps.Reset() }

// Extend implements coalition.PrefixValuer.
func (v *modelPrefixValuer) Extend(i int) float64 {
	c := &v.classes[i]
	if c.Count == 0 {
		// ValueMembers skips zero-location facilities when building the
		// pool; the value is unchanged.
		return v.mu * v.ps.Value()
	}
	return v.mu * v.ps.Add(*c)
}

// Walk values a whole walk: vals[k] is µ times V of the first k+1
// facilities of perm, as Extend returns them.
func (v *modelPrefixValuer) Walk(perm []int, vals []float64) {
	v.ps.Walk(perm, vals)
	if v.mu == 1 {
		return // x·1 is x, bit for bit
	}
	for k := range perm {
		vals[k] *= v.mu
	}
}

// classPrefix is the collapsed game's incremental evaluator: a
// PrefixSolver over the merged classes ClassStructure's Value builds, one
// slot per template (represented by facility reps[j]) in template order.
// A replica of template j grows slot j by L_j locations in place.
type classPrefix struct {
	m    *Model
	reps []int
	ps   *allocation.PrefixSolver
}

// classPrefix builds one walker's evaluator over the given templates. It
// returns nil on invalid demand, leaving every step to Value, which
// reports it the established way.
func (m *Model) classPrefix(reps []int) coalition.ClassPrefix {
	ps, err := allocation.NewPrefixSolver(m.requests(), nil)
	if err != nil {
		return nil
	}
	caps := make([]float64, len(reps))
	for j, i := range reps {
		caps[j] = m.Facilities[i].EffectiveCapacity()
	}
	ps.SetLayout(caps)
	return &classPrefix{m: m, reps: reps, ps: ps}
}

// Reset implements coalition.ClassPrefix.
func (e *classPrefix) Reset() { e.ps.Reset() }

// Add implements coalition.ClassPrefix.
func (e *classPrefix) Add(j int) (float64, bool) {
	l := e.m.Facilities[e.reps[j]].Locations
	if l == 0 {
		// Value skips zero-location templates, so V — and whether it is
		// certified — is the previous step's (NaN when it was not).
		u := e.ps.Value()
		return e.m.muFactor() * u, !math.IsNaN(u)
	}
	u, ok := e.ps.Grow(j, l)
	return e.m.muFactor() * u, ok
}
