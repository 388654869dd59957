package coalition

import (
	"fmt"
	"math"
	"testing"

	"fedshare/internal/combin"
)

// Property checks and adapters the tests share. Production code reaches
// none of them: Values is the only Shapley entry point, and core.Analyze
// reads the least core directly.

// tableOf materializes an n-player characteristic function, the form the
// concepts that read every coalition take.
func tableOf(n int, v func(combin.Set) float64) *Table {
	t, err := Snapshot(n, v, 1)
	if err != nil {
		panic(err)
	}
	return t
}

// tableGame serves a Table as a MemberGame that keeps its table, as
// core.Model does, so Values hands it to the exact kernel.
type tableGame struct{ t *Table }

func (g tableGame) N() int                             { return g.t.Players }
func (g tableGame) Table() (*Table, error)             { return g.t, nil }
func (g tableGame) ValueMembers(members []int) float64 { return g.t.Values[setOf(members)] }

// snapshotGame is a game given by a bitmask characteristic function whose
// table, like core.Model's, is Snapshot's of that function: Values gets the
// exact kernel only when the snapshot succeeds.
type snapshotGame struct {
	n int
	v func(combin.Set) float64
}

func (g snapshotGame) N() int                             { return g.n }
func (g snapshotGame) Table() (*Table, error)             { return Snapshot(g.n, g.v, 1) }
func (g snapshotGame) ValueMembers(members []int) float64 { return g.v(setOf(members)) }

// checkEfficiency verifies Σφ_i == V(N) within tol.
func checkEfficiency(g *Table, phi []float64, tol float64) error {
	sum := 0.0
	for _, p := range phi {
		sum += p
	}
	vn := g.Values[combin.Full(g.Players)]
	if math.Abs(sum-vn) > tol {
		return fmt.Errorf("allocation sums to %g, V(N) = %g", sum, vn)
	}
	return nil
}

// inCore reports whether allocation x lies in the core of g: x must be
// efficient (Σx = V(N)) and no coalition may prefer to defect
// (x(S) >= V(S) for every S).
func inCore(g *Table, x []float64, tol float64) bool {
	n := g.Players
	if len(x) != n || checkEfficiency(g, x, tol) != nil {
		return false
	}
	ok := true
	combin.AllCoalitions(n, func(s combin.Set) bool {
		xs := 0.0
		for _, i := range s.Members() {
			xs += x[i]
		}
		if xs < g.Values[s]-tol {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// isMonotone reports whether S ⊆ T implies V(S) <= V(T).
func isMonotone(g *Table) bool {
	n := g.Players
	ok := true
	combin.AllCoalitions(n, func(s combin.Set) bool {
		for i := 0; i < n; i++ {
			if !s.Contains(i) && g.Values[s.With(i)] < g.Values[s]-1e-9 {
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}

// coreNonempty reports whether the core of g is nonempty by the least-core
// LP, with the tolerance core.Analyze uses.
func coreNonempty(t *testing.T, g *Table) bool {
	t.Helper()
	res, err := LeastCore(g)
	if err != nil {
		t.Fatal(err)
	}
	return res.Epsilon <= 1e-7
}
