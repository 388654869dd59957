package coalition

import (
	"fmt"
	"math"

	"fedshare/internal/combin"
	"fedshare/internal/lp"
)

// LeastCoreResult is the outcome of the least-core LP.
type LeastCoreResult struct {
	// Epsilon is the minimized maximum excess max_S (V(S) − x(S)) over
	// proper nonempty coalitions. The core is nonempty iff Epsilon <= 0.
	Epsilon float64
	// X is one optimal allocation achieving Epsilon.
	X []float64
}

// LeastCore solves the least-core linear program
//
//	minimize ε  s.t.  x(S) >= V(S) − ε  for all proper nonempty S,
//	                  x(N)  = V(N).
//
// Cost is one LP with 2^n − 2 rows; keep n modest (the paper's federations
// have a handful of top-level authorities).
func LeastCore(t *Table) (*LeastCoreResult, error) {
	n := t.Players
	if n == 0 {
		return &LeastCoreResult{}, nil
	}
	if n == 1 {
		return &LeastCoreResult{Epsilon: math.Inf(-1), X: []float64{t.Values[combin.Singleton(0)]}}, nil
	}
	m := newCoreModel(t, nil)
	sol, err := m.solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("coalition: least-core LP is %v", sol.Status)
	}
	return &LeastCoreResult{Epsilon: -m.t.Value(sol.X), X: m.alloc(sol.X)}, nil
}

// coreModel builds the shared LP skeleton used by least-core and nucleolus:
// free variables x_0..x_{n-1} and the free "guarantee" variable t (t = −ε),
// maximizing t subject to x(S) >= V(S) + t for non-fixed coalitions and
// x(S) == V(S) + offset for fixed ones.
type coreModel struct {
	v     []float64 // the game's coalition values
	n     int
	xs    []lp.FreeVar
	t     lp.FreeVar
	fixed map[combin.Set]float64 // coalition -> pinned guarantee offset
}

func newCoreModel(t *Table, fixed map[combin.Set]float64) *coreModel {
	n := t.Players
	m := &coreModel{v: t.Values, n: n, fixed: fixed}
	m.xs = make([]lp.FreeVar, n)
	for i := 0; i < n; i++ {
		m.xs[i] = lp.FreeVar{Pos: 2 * i, Neg: 2*i + 1}
	}
	m.t = lp.FreeVar{Pos: 2 * n, Neg: 2*n + 1}
	return m
}

func (m *coreModel) cols() int { return 2*m.n + 2 }

// buildProblem assembles the LP maximizing objT·t + Σ objX_i·x_i.
// extraRows appends additional constraints (used by the uniqueness and
// bindingness probes).
func (m *coreModel) buildProblem(objX []float64, objT float64, extraRows func(p *lp.Problem)) *lp.Problem {
	p := lp.NewProblem(m.cols())
	if objX != nil {
		for i, c := range objX {
			m.xs[i].Coeff(p.C, c)
		}
	}
	if objT != 0 {
		m.t.Coeff(p.C, objT)
	}
	// Efficiency: x(N) = V(N).
	row := make([]float64, m.cols())
	for i := 0; i < m.n; i++ {
		m.xs[i].Coeff(row, 1)
	}
	grand := combin.Full(m.n)
	p.AddConstraint(row, lp.EQ, m.v[grand])
	// Coalition constraints.
	combin.AllCoalitions(m.n, func(s combin.Set) bool {
		if s.IsEmpty() || s == grand {
			return true
		}
		row := make([]float64, m.cols())
		for _, i := range s.Members() {
			m.xs[i].Coeff(row, 1)
		}
		if off, ok := m.fixed[s]; ok {
			p.AddConstraint(row, lp.EQ, m.v[s]+off)
		} else {
			m.t.Coeff(row, -1) // x(S) − t >= V(S)
			p.AddConstraint(row, lp.GE, m.v[s])
		}
		return true
	})
	if extraRows != nil {
		extraRows(p)
	}
	return p
}

// solve maximizes t under the model constraints.
func (m *coreModel) solve() (*lp.Solution, error) {
	return m.buildProblem(nil, 1, nil).Solve()
}

func (m *coreModel) alloc(x []float64) []float64 {
	out := make([]float64, m.n)
	for i := range out {
		out[i] = m.xs[i].Value(x)
	}
	return out
}

// tEqualsRow returns a constraint-writer pinning t == tStar.
func (m *coreModel) tEqualsRow(tStar float64) func(p *lp.Problem) {
	return func(p *lp.Problem) {
		row := make([]float64, m.cols())
		m.t.Coeff(row, 1)
		p.AddConstraint(row, lp.EQ, tStar)
	}
}

// Nucleolus computes the nucleolus of g via the standard iterative
// (Maschler-scheme) sequence of linear programs: repeatedly maximize the
// worst guarantee t, pin the coalitions whose constraints bind in every
// optimum, and recurse on the rest until the allocation is unique.
//
// It requires the game to have at least one imputation-like feasible point;
// for the paper's nonnegative-value games this always holds.
func Nucleolus(t *Table) ([]float64, error) {
	n := t.Players
	if n == 0 {
		return nil, nil
	}
	if n == 1 {
		return []float64{t.Values[combin.Singleton(0)]}, nil
	}
	const tol = 1e-7
	fixed := map[combin.Set]float64{}
	totalProper := (1 << uint(n)) - 2

	for round := 0; round < totalProper+1; round++ {
		m := newCoreModel(t, fixed)
		sol, err := m.solve()
		if err != nil {
			return nil, err
		}
		if sol.Status != lp.Optimal {
			return nil, fmt.Errorf("coalition: nucleolus LP round %d is %v", round, sol.Status)
		}
		tStar := m.t.Value(sol.X)

		// Uniqueness probe: if every x_i has zero range at t == t*, the
		// current optimal allocation is the nucleolus.
		unique := true
		xBase := m.alloc(sol.X)
		for i := 0; i < n && unique; i++ {
			for _, sign := range []float64{1, -1} {
				obj := make([]float64, n)
				obj[i] = sign
				probe := m.buildProblem(obj, 0, m.tEqualsRow(tStar))
				ps, err := probe.Solve()
				if err != nil {
					return nil, err
				}
				if ps.Status != lp.Optimal {
					return nil, fmt.Errorf("coalition: nucleolus uniqueness probe is %v", ps.Status)
				}
				if math.Abs(m.xs[i].Value(ps.X)-xBase[i]) > tol {
					unique = false
					break
				}
			}
		}
		if unique {
			return xBase, nil
		}

		// Pin every coalition whose guarantee constraint binds in all
		// optimal solutions: S is pinned iff max x(S) at t == t* still
		// equals V(S) + t*.
		pinnedAny := false
		combin.AllCoalitions(n, func(s combin.Set) bool {
			if s.IsEmpty() || s == combin.Full(n) {
				return true
			}
			if _, ok := fixed[s]; ok {
				return true
			}
			obj := make([]float64, n)
			for _, i := range s.Members() {
				obj[i] = 1
			}
			probe := m.buildProblem(obj, 0, m.tEqualsRow(tStar))
			ps, perr := probe.Solve()
			if perr != nil || ps.Status != lp.Optimal {
				return true // leave unpinned; next round will retry
			}
			if ps.Objective <= t.Values[s]+tStar+tol {
				fixed[s] = tStar
				pinnedAny = true
			}
			return true
		})
		if !pinnedAny {
			// Nothing more to pin but x not unique: numerically stuck.
			return xBase, fmt.Errorf("coalition: nucleolus failed to make progress at round %d", round)
		}
	}
	return nil, fmt.Errorf("coalition: nucleolus did not converge")
}
