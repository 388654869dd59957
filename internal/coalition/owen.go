package coalition

import (
	"fmt"

	"fedshare/internal/combin"
	"fedshare/internal/stats"
)

// Structure is a coalition structure: a partition of the players into
// blocks (the paper's hierarchical federation — e.g. testbeds grouped under
// regional authorities, Sec. 1.2 and the future-work discussion of Sec. 6).
type Structure struct {
	Blocks [][]int
}

// Validate checks that Blocks partitions {0, …, n−1}.
func (st Structure) Validate(n int) error {
	seen := make([]bool, n)
	count := 0
	for bi, block := range st.Blocks {
		if len(block) == 0 {
			return fmt.Errorf("coalition: block %d is empty", bi)
		}
		for _, p := range block {
			if p < 0 || p >= n {
				return fmt.Errorf("coalition: player %d out of range", p)
			}
			if seen[p] {
				return fmt.Errorf("coalition: player %d appears twice", p)
			}
			seen[p] = true
			count++
		}
	}
	if count != n {
		return fmt.Errorf("coalition: structure covers %d of %d players", count, n)
	}
	return nil
}

// Singletons returns the trivial structure of one-player blocks.
func Singletons(n int) Structure {
	st := Structure{Blocks: make([][]int, n)}
	for i := 0; i < n; i++ {
		st.Blocks[i] = []int{i}
	}
	return st
}

// QuotientGame returns the game among blocks: the value of a set of blocks
// is the value of the union of their players.
func QuotientGame(g Game, st Structure) (Game, error) {
	if err := st.Validate(g.N()); err != nil {
		return nil, err
	}
	blockSets := make([]combin.Set, len(st.Blocks))
	for bi, block := range st.Blocks {
		blockSets[bi] = combin.Of(block...)
	}
	return Func{
		Players: len(st.Blocks),
		V: func(s combin.Set) float64 {
			var union combin.Set
			for _, bi := range s.Members() {
				union = union.Union(blockSets[bi])
			}
			return g.Value(union)
		},
	}, nil
}

// Owen computes the Owen value: the coalition-structure generalization of
// the Shapley value, the natural sharing rule for hierarchical federations.
// It is the expected marginal contribution over orderings in which each
// block's players appear contiguously, blocks in random order and players
// random within their block.
//
// The exact computation enumerates B!·Π(m_b!) structured orderings; it
// refuses structures beyond ~10^7 orderings — use MonteCarloOwen there.
func Owen(g Game, st Structure) ([]float64, error) {
	n := g.N()
	if err := st.Validate(n); err != nil {
		return nil, err
	}
	orderings := combin.Factorial(len(st.Blocks))
	for _, block := range st.Blocks {
		orderings *= combin.Factorial(len(block))
	}
	if orderings > 1e7 {
		return nil, fmt.Errorf("coalition: %.3g structured orderings; use MonteCarloOwen", orderings)
	}
	// The orderings revisit every coalition many times over, so read the
	// game's own dense table when it keeps one; it is built only now that
	// the structure is known to be feasible.
	if tg, ok := g.(tabled); ok {
		if t, err := tg.Table(); err == nil {
			g = t
		}
	}

	phi := make([]float64, n)
	count := 0
	// Enumerate block orders; within each block order, enumerate member
	// permutations per block via recursive composition.
	combin.Permutations(len(st.Blocks), func(blockOrder []int) bool {
		// perms[level] iterates permutations of block blockOrder[level].
		var rec func(level int, prefix []int)
		rec = func(level int, prefix []int) {
			if level == len(blockOrder) {
				var s combin.Set
				prev := 0.0
				for _, p := range prefix {
					s = s.With(p)
					v := g.Value(s)
					phi[p] += v - prev
					prev = v
				}
				count++
				return
			}
			block := st.Blocks[blockOrder[level]]
			combin.Permutations(len(block), func(inner []int) bool {
				ordered := make([]int, 0, len(prefix)+len(block))
				ordered = append(ordered, prefix...)
				for _, k := range inner {
					ordered = append(ordered, block[k])
				}
				rec(level+1, ordered)
				return true
			})
		}
		rec(0, nil)
		return true
	})
	for i := range phi {
		phi[i] /= float64(count)
	}
	return phi, nil
}

// MonteCarloOwen estimates the Owen value by sampling structured orderings.
func MonteCarloOwen(g Game, st Structure, samples int, rng *stats.Rand) ([]float64, error) {
	n := g.N()
	if n > combin.MaxPlayers {
		return nil, fmt.Errorf("coalition: MonteCarloOwen limited to %d players, got %d", combin.MaxPlayers, n)
	}
	if err := st.Validate(n); err != nil {
		return nil, err
	}
	if samples <= 0 {
		return nil, fmt.Errorf("coalition: MonteCarloOwen needs samples > 0")
	}
	phi := make([]float64, n)
	blockIdx := make([]int, len(st.Blocks))
	for i := range blockIdx {
		blockIdx[i] = i
	}
	order := make([]int, 0, n)
	for it := 0; it < samples; it++ {
		rng.Shuffle(len(blockIdx), func(i, j int) {
			blockIdx[i], blockIdx[j] = blockIdx[j], blockIdx[i]
		})
		order = order[:0]
		for _, bi := range blockIdx {
			block := st.Blocks[bi]
			perm := rng.Perm(len(block))
			for _, k := range perm {
				order = append(order, block[k])
			}
		}
		var s combin.Set
		prev := 0.0
		for _, p := range order {
			s = s.With(p)
			v := g.Value(s)
			phi[p] += v - prev
			prev = v
		}
	}
	for i := range phi {
		phi[i] /= float64(samples)
	}
	return phi, nil
}

// BlockShares sums an allocation over the structure's blocks — the
// authority-level totals of a member-level allocation. Consistency with the
// quotient game's Shapley value is the Owen value's defining property.
func BlockShares(st Structure, phi []float64) []float64 {
	out := make([]float64, len(st.Blocks))
	for bi, block := range st.Blocks {
		for _, p := range block {
			out[bi] += phi[p]
		}
	}
	return out
}
