// Package coalition implements transferable-utility coalitional games and
// the solution concepts the paper builds on: the Shapley value (exact and
// sampled, both through Values), the Banzhaf value, the least core, the
// nucleolus and the weighted Shapley value. It also provides the
// structural property checks (superadditivity, convexity) that Sec. 3.2.1
// of the paper uses to reason about when the core exists.
//
// A game is a MemberGame: a player count and a characteristic function
// over member lists. The concepts that read every coalition take its dense
// value Table instead, which Snapshot fills once per game.
package coalition

import (
	"fmt"

	"fedshare/internal/combin"
)

// Table is a game's characteristic function given explicitly as a dense
// array indexed by coalition bitmask.
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

// IsSuperadditive reports whether V(S ∪ T) >= V(S) + V(T) for all disjoint
// S, T. Cost is O(3^n); keep n small.
func IsSuperadditive(t *Table) bool {
	n, v := t.Players, t.Values
	ok := true
	combin.AllCoalitions(n, func(s combin.Set) bool {
		rest := combin.Full(n).Minus(s)
		combin.Subsets(rest, func(u combin.Set) bool {
			if v[s.Union(u)] < v[s]+v[u]-1e-9 {
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
func IsConvex(t *Table) bool {
	n, v := t.Players, t.Values
	ok := true
	for i := 0; i < n && ok; i++ {
		for j := 0; j < n && ok; j++ {
			if i == j {
				continue
			}
			rest := combin.Full(n).Without(i).Without(j)
			combin.Subsets(rest, func(s combin.Set) bool {
				lhs := v[s.With(i)] + v[s.With(j)]
				rhs := v[s.With(i).With(j)] + v[s]
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
