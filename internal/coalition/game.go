// Package coalition implements transferable-utility coalitional games and
// the solution concepts the paper builds on: the Shapley value (exact and
// sampled, both through Values), the Banzhaf value, the least core, the
// nucleolus and the weighted Shapley value. It also provides the
// structural property checks (superadditivity, convexity) that Sec. 3.2.1
// of the paper uses to reason about when the core exists.
package coalition

import (
	"fmt"
	"math"

	"fedshare/internal/combin"
)

// Game is a transferable-utility coalitional game: a player count and a
// characteristic function over coalitions. Implementations must return
// Value(Empty) == 0 and be deterministic. Snapshot evaluates each coalition
// once into a Table, which is how expensive characteristic functions should
// be handed to the solution concepts that revisit coalitions.
type Game interface {
	// N returns the number of players.
	N() int
	// Value returns V(S), the worth of coalition s.
	Value(s combin.Set) float64
}

// Func adapts a plain function to the Game interface.
type Func struct {
	Players int
	V       func(combin.Set) float64
}

// N implements Game.
func (f Func) N() int { return f.Players }

// Value implements Game.
func (f Func) Value(s combin.Set) float64 { return f.V(s) }

// Table is a game whose characteristic function is given explicitly as a
// dense array indexed by coalition bitmask.
type Table struct {
	Players int
	Values  []float64 // len must be 1 << Players
}

// NewTable builds a Table game, checking dimensions.
func NewTable(players int, values []float64) (*Table, error) {
	if players < 0 || players > 30 {
		return nil, fmt.Errorf("coalition: player count %d out of range for Table", players)
	}
	if len(values) != 1<<uint(players) {
		return nil, fmt.Errorf("coalition: table has %d entries, want %d", len(values), 1<<uint(players))
	}
	if values[0] != 0 {
		return nil, fmt.Errorf("coalition: V(empty) = %g, must be 0", values[0])
	}
	return &Table{Players: players, Values: values}, nil
}

// N implements Game.
func (t *Table) N() int { return t.Players }

// Value implements Game.
func (t *Table) Value(s combin.Set) float64 { return t.Values[s] }

// Grand returns the grand coalition of g.
func Grand(g Game) combin.Set { return combin.Full(g.N()) }

// IsSuperadditive reports whether V(S ∪ T) >= V(S) + V(T) for all disjoint
// S, T. Cost is O(3^n); keep n small.
func IsSuperadditive(g Game) bool {
	n := g.N()
	ok := true
	combin.AllCoalitions(n, func(s combin.Set) bool {
		rest := combin.Full(n).Minus(s)
		combin.Subsets(rest, func(t combin.Set) bool {
			if g.Value(s.Union(t)) < g.Value(s)+g.Value(t)-1e-9 {
				ok = false
				return false
			}
			return true
		})
		return ok
	})
	return ok
}

// IsConvex reports whether the game is convex (supermodular):
// V(S∪{i}) − V(S) is nondecreasing in S. Convex games always have a
// nonempty core, and their Shapley value lies in the core.
func IsConvex(g Game) bool {
	n := g.N()
	ok := true
	for i := 0; i < n && ok; i++ {
		for j := 0; j < n && ok; j++ {
			if i == j {
				continue
			}
			rest := combin.Full(n).Without(i).Without(j)
			combin.Subsets(rest, func(s combin.Set) bool {
				lhs := g.Value(s.With(i)) + g.Value(s.With(j))
				rhs := g.Value(s.With(i).With(j)) + g.Value(s)
				if lhs > rhs+1e-9 {
					ok = false
					return false
				}
				return true
			})
		}
	}
	return ok
}

// Normalize divides an allocation by V(N), yielding shares that sum to 1
// when the allocation is efficient. If V(N) == 0 it returns all zeros, which
// matches the paper's convention for infeasible demand (no value to share).
func Normalize(g Game, alloc []float64) []float64 {
	vn := g.Value(Grand(g))
	out := make([]float64, len(alloc))
	if math.Abs(vn) < 1e-12 {
		return out
	}
	for i, a := range alloc {
		out[i] = a / vn
	}
	return out
}
