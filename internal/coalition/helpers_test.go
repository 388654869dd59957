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

// memberAdapter lifts a bitmask Game to the MemberGame interface while
// keeping the Game methods, so Values still hands small games to the exact
// kernel (valid only up to combin.MaxPlayers players).
type memberAdapter struct{ Game }

// asMemberGame returns g as a MemberGame, unwrapping games that already
// implement the interface.
func asMemberGame(g Game) MemberGame {
	if mg, ok := g.(MemberGame); ok {
		return mg
	}
	return memberAdapter{g}
}

func (a memberAdapter) ValueMembers(members []int) float64 {
	return a.Value(setOf(members))
}

// checkEfficiency verifies Σφ_i == V(N) within tol.
func checkEfficiency(g Game, phi []float64, tol float64) error {
	sum := 0.0
	for _, p := range phi {
		sum += p
	}
	vn := g.Value(Grand(g))
	if math.Abs(sum-vn) > tol {
		return fmt.Errorf("allocation sums to %g, V(N) = %g", sum, vn)
	}
	return nil
}

// inCore reports whether allocation x lies in the core of g: x must be
// efficient (Σx = V(N)) and no coalition may prefer to defect
// (x(S) >= V(S) for every S).
func inCore(g Game, x []float64, tol float64) bool {
	n := g.N()
	if len(x) != n || checkEfficiency(g, x, tol) != nil {
		return false
	}
	ok := true
	combin.AllCoalitions(n, func(s combin.Set) bool {
		xs := 0.0
		for _, i := range s.Members() {
			xs += x[i]
		}
		if xs < g.Value(s)-tol {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// isMonotone reports whether S ⊆ T implies V(S) <= V(T).
func isMonotone(g Game) bool {
	n := g.N()
	ok := true
	combin.AllCoalitions(n, func(s combin.Set) bool {
		for i := 0; i < n; i++ {
			if !s.Contains(i) && g.Value(s.With(i)) < g.Value(s)-1e-9 {
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
func coreNonempty(t *testing.T, g Game) bool {
	t.Helper()
	res, err := LeastCore(g)
	if err != nil {
		t.Fatal(err)
	}
	return res.Epsilon <= 1e-7
}
