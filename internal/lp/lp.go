// Package lp implements a dense two-phase primal simplex solver for linear
// programs. It exists so that the coalitional-game machinery (nucleolus,
// least-core, core-emptiness tests) and the LP-relaxed resource allocators
// can run without any dependency outside the standard library.
//
// Problems are stated in the natural form
//
//	maximize    c·x
//	subject to  a_j·x (<=|=|>=) b_j   for each constraint j
//	            x >= 0
//
// Free (sign-unrestricted) variables can be modelled by the caller as the
// difference of two nonnegative variables; NewFreeVar helps with that.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Relation is the sense of one linear constraint.
type Relation int

// Constraint senses.
const (
	LE Relation = iota // a·x <= b
	EQ                 // a·x == b
	GE                 // a·x >= b
)

func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case EQ:
		return "=="
	case GE:
		return ">="
	}
	return "?"
}

// Constraint is one row a·x (rel) b.
type Constraint struct {
	Coeffs []float64
	Rel    Relation
	RHS    float64
}

// Problem is a linear program in maximization form over nonnegative
// variables.
type Problem struct {
	// C is the objective vector; the solver maximizes C·x.
	C []float64
	// Rows are the constraints. Every row's Coeffs must have len(C) entries.
	Rows []Constraint
}

// NewProblem returns a problem with n variables and no constraints.
func NewProblem(n int) *Problem {
	return &Problem{C: make([]float64, n)}
}

// AddConstraint appends a constraint row. It panics on dimension mismatch to
// surface modelling bugs at build time rather than as wrong optima.
func (p *Problem) AddConstraint(coeffs []float64, rel Relation, rhs float64) {
	if len(coeffs) != len(p.C) {
		panic(fmt.Sprintf("lp: constraint has %d coefficients, problem has %d variables", len(coeffs), len(p.C)))
	}
	cp := append([]float64(nil), coeffs...)
	p.Rows = append(p.Rows, Constraint{Coeffs: cp, Rel: rel, RHS: rhs})
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return "unknown"
}

// Solution holds the result of a successful solve.
type Solution struct {
	X         []float64 // optimal values of the decision variables
	Objective float64   // C·X
	Status    Status
}

// ErrIterationLimit is returned when the simplex fails to converge; with
// Bland's rule this indicates numerical trouble rather than cycling.
var ErrIterationLimit = errors.New("lp: simplex iteration limit exceeded")

const (
	eps          = 1e-9
	maxIterScale = 200 // iterations allowed per (rows+cols)
)

// Solve runs the two-phase simplex method. The returned Solution has Status
// Optimal, Infeasible, or Unbounded; X and Objective are only meaningful for
// Optimal.
func (p *Problem) Solve() (*Solution, error) {
	n := len(p.C)
	m := len(p.Rows)
	if m == 0 {
		// Unconstrained: optimum is 0 at x=0 unless some c_i > 0 makes it
		// unbounded.
		for _, c := range p.C {
			if c > eps {
				return &Solution{Status: Unbounded}, nil
			}
		}
		return &Solution{X: make([]float64, n), Objective: 0, Status: Optimal}, nil
	}

	// Normalize rows to nonnegative RHS and count extra columns.
	type rowSpec struct {
		coeffs []float64
		rel    Relation
		rhs    float64
	}
	rows := make([]rowSpec, m)
	nSlack := 0
	for j, r := range p.Rows {
		coeffs := append([]float64(nil), r.Coeffs...)
		rel, rhs := r.Rel, r.RHS
		if rhs < 0 {
			for i := range coeffs {
				coeffs[i] = -coeffs[i]
			}
			rhs = -rhs
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		rows[j] = rowSpec{coeffs, rel, rhs}
		if rel != EQ {
			nSlack++
		}
	}

	// Tableau layout: [decision vars | slack/surplus | artificial] | RHS.
	// Every row gets an artificial variable; for a LE row with rhs>=0 the
	// slack could serve as the initial basis, but giving every row an
	// artificial keeps the construction uniform and simple.
	nArt := m
	total := n + nSlack + nArt
	t := newTableau(m, total)

	slackIdx := n
	for j, r := range rows {
		copy(t.a[j], r.coeffs)
		switch r.rel {
		case LE:
			t.a[j][slackIdx] = 1
			slackIdx++
		case GE:
			t.a[j][slackIdx] = -1
			slackIdx++
		}
		art := n + nSlack + j
		t.a[j][art] = 1
		t.b[j] = r.rhs
		t.basis[j] = art
	}

	// Phase 1: minimize the sum of artificials == maximize their negative.
	phase1 := make([]float64, total)
	for j := 0; j < nArt; j++ {
		phase1[n+nSlack+j] = -1
	}
	t.setObjective(phase1)
	if err := t.optimize(); err != nil {
		return nil, err
	}
	if t.objectiveValue() < -eps {
		return &Solution{Status: Infeasible}, nil
	}
	// Drive any artificial variables remaining in the basis out (degenerate
	// feasible bases can keep them at value 0).
	for j := 0; j < m; j++ {
		if t.basis[j] >= n+nSlack {
			pivoted := false
			for col := 0; col < n+nSlack; col++ {
				if math.Abs(t.a[j][col]) > eps {
					t.pivot(j, col)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Row is redundant (all-zero over real columns); it stays
				// with its artificial at 0, which is harmless as long as the
				// artificial columns are frozen in phase 2.
				_ = pivoted
			}
		}
	}

	// Phase 2: the true objective; artificial columns are frozen by marking
	// them unusable.
	t.frozenFrom = n + nSlack
	phase2 := make([]float64, total)
	copy(phase2, p.C)
	t.setObjective(phase2)
	if err := t.optimize(); err != nil {
		return nil, err
	}
	if t.unbounded {
		return &Solution{Status: Unbounded}, nil
	}

	x := make([]float64, n)
	for j := 0; j < m; j++ {
		if t.basis[j] < n {
			x[t.basis[j]] = t.b[j]
		}
	}
	obj := 0.0
	for i := range x {
		obj += p.C[i] * x[i]
	}
	return &Solution{X: x, Objective: obj, Status: Optimal}, nil
}

// tableau holds the working simplex state. Row objective is kept in reduced
// form: z[i] is the reduced cost of column i, zVal the current objective.
type tableau struct {
	m, cols    int
	a          [][]float64
	b          []float64
	z          []float64
	zVal       float64
	basis      []int
	frozenFrom int // columns >= frozenFrom may not enter the basis (-1: none)
	unbounded  bool
}

func newTableau(m, cols int) *tableau {
	t := &tableau{
		m:          m,
		cols:       cols,
		a:          make([][]float64, m),
		b:          make([]float64, m),
		z:          make([]float64, cols),
		basis:      make([]int, m),
		frozenFrom: -1,
	}
	for j := range t.a {
		t.a[j] = make([]float64, cols)
	}
	return t
}

// setObjective installs a fresh objective c (maximize) and prices it out
// against the current basis so the reduced costs are consistent.
func (t *tableau) setObjective(c []float64) {
	copy(t.z, c)
	t.zVal = 0
	t.unbounded = false
	// Price out basic columns: subtract c_B · row from the cost row.
	for j := 0; j < t.m; j++ {
		cb := c[t.basis[j]]
		if cb == 0 {
			continue
		}
		for i := 0; i < t.cols; i++ {
			t.z[i] -= cb * t.a[j][i]
		}
		t.zVal += cb * t.b[j]
	}
}

func (t *tableau) objectiveValue() float64 { return t.zVal }

// optimize runs primal simplex iterations with Bland's rule until no column
// improves the (maximization) objective.
func (t *tableau) optimize() error {
	limit := maxIterScale * (t.m + t.cols)
	for iter := 0; iter < limit; iter++ {
		// Entering column: Bland — smallest index with positive reduced cost.
		col := -1
		for i := 0; i < t.cols; i++ {
			if t.frozenFrom >= 0 && i >= t.frozenFrom {
				break
			}
			if t.z[i] > eps {
				col = i
				break
			}
		}
		if col == -1 {
			return nil // optimal
		}
		// Leaving row: min ratio test, ties broken by smallest basis index
		// (Bland).
		row := -1
		best := math.Inf(1)
		for j := 0; j < t.m; j++ {
			if t.a[j][col] > eps {
				ratio := t.b[j] / t.a[j][col]
				if ratio < best-eps || (ratio < best+eps && (row == -1 || t.basis[j] < t.basis[row])) {
					best = ratio
					row = j
				}
			}
		}
		if row == -1 {
			t.unbounded = true
			return nil
		}
		t.pivot(row, col)
	}
	return ErrIterationLimit
}

// pivot makes column col basic in row row.
func (t *tableau) pivot(row, col int) {
	p := t.a[row][col]
	inv := 1 / p
	for i := 0; i < t.cols; i++ {
		t.a[row][i] *= inv
	}
	t.b[row] *= inv
	for j := 0; j < t.m; j++ {
		if j == row {
			continue
		}
		f := t.a[j][col]
		if f == 0 {
			continue
		}
		for i := 0; i < t.cols; i++ {
			t.a[j][i] -= f * t.a[row][i]
		}
		t.b[j] -= f * t.b[row]
		if t.b[j] < 0 && t.b[j] > -eps {
			t.b[j] = 0
		}
	}
	f := t.z[col]
	if f != 0 {
		for i := 0; i < t.cols; i++ {
			t.z[i] -= f * t.a[row][i]
		}
		t.zVal += f * t.b[row]
	}
	t.basis[row] = col
}

// FreeVar helps model a sign-unrestricted variable v as v = x⁺ - x⁻ with two
// nonnegative columns. Pos and Neg are the column indices of x⁺ and x⁻.
type FreeVar struct {
	Pos, Neg int
}

// Value extracts the free variable's value from a solution vector.
func (f FreeVar) Value(x []float64) float64 { return x[f.Pos] - x[f.Neg] }

// Coeff writes coefficient c for the free variable into a constraint row.
func (f FreeVar) Coeff(row []float64, c float64) {
	row[f.Pos] = c
	row[f.Neg] = -c
}
