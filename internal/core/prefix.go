package core

import (
	"fedshare/internal/allocation"
	"fedshare/internal/coalition"
)

// PrefixValuer implements coalition.PrefixGame: it returns a reusable
// incremental walker over the federation game, so the sampling Shapley
// engines can evaluate a permutation's growing prefixes by updating the
// previous prefix's solved allocation state (allocation.PrefixSolver)
// instead of re-solving V(S∪{i}) from scratch. Its class list holds
// facility i's location class at index i — exactly the class
// ValueMembers builds — so Extend(i) returns µ times the optimal utility
// of the extended pool, re-solving the pool when the solver cannot
// certify the step, bit-identical to ValueMembers of the extended member
// list. Its Walk values a whole walk in one PrefixSolver.Walk, with the
// same values and counters as the Extend loop.
//
// Overlap models return nil (their V depends on concrete location
// identities, not the class multiset, so no incremental pool state
// applies); the walker then falls back to ValueMembers. Walks read and
// write no cache: a step the solver cannot certify is solved directly.
//
// The returned valuer is stateful and single-goroutine; concurrent
// sampling workers each obtain their own (sharing the model is safe).
func (m *Model) PrefixValuer() coalition.PrefixValuer {
	if m.Overlap != nil {
		return nil
	}
	classes := make([]allocation.Class, m.N())
	for i := range classes {
		classes[i] = m.class(i)
	}
	if e := m.newPrefixEvaluator(classes); e != nil {
		return e
	}
	return nil
}

// prefixEvaluator walks a growing pool of a fixed class list on an
// allocation.PrefixSolver, scaling V by µ. It serves both sampled games:
// as a coalition.PrefixValuer its classes are the facilities' (see
// PrefixValuer), and as the collapsed game's coalition.ClassPrefix they
// are the templates' (see ClassStructure). Both walk on the solver's one
// batched loop, PrefixSolver.WalkCertified.
type prefixEvaluator struct {
	ps *allocation.PrefixSolver
	mu float64
}

// newPrefixEvaluator builds one walker's evaluator over classes. It returns
// nil on invalid demand, leaving every step to the non-incremental path,
// which reports it the established way.
func (m *Model) newPrefixEvaluator(classes []allocation.Class) *prefixEvaluator {
	ps, err := allocation.NewPrefixSolver(m.reqs)
	if err != nil {
		return nil
	}
	ps.SetClasses(classes)
	return &prefixEvaluator{ps: ps, mu: m.muFactor()}
}

// Reset implements coalition.PrefixValuer.
func (e *prefixEvaluator) Reset() { e.ps.Reset() }

// Extend implements coalition.PrefixValuer.
func (e *prefixEvaluator) Extend(i int) float64 {
	v, ok := e.ps.Extend(i)
	if !ok {
		v = e.ps.Resolve()
	}
	return e.mu * v
}

// Walk values a whole walk: vals[k] is µ times V of the first k+1
// classes of perm, as Extend returns them.
func (e *prefixEvaluator) Walk(perm []int, vals []float64) {
	e.ps.Walk(perm, vals)
	e.scale(vals[:len(perm)])
}

// WalkCertified implements coalition.ClassPrefix: step n adds one more
// replica of template classes[n], which extends the pool by that
// template's class again — the locations the merged class of
// ClassStructure's Value gains. It values the walk's leading certified
// steps, µ times the solver's, and never solves; the collapsed game
// values the rest.
func (e *prefixEvaluator) WalkCertified(classes []int, vals []float64) int {
	n := e.ps.WalkCertified(classes, vals)
	e.scale(vals[:n])
	return n
}

// scale multiplies vals by µ.
func (e *prefixEvaluator) scale(vals []float64) {
	if e.mu == 1 {
		return // x·1 is x, bit for bit
	}
	for k := range vals {
		vals[k] *= e.mu
	}
}
