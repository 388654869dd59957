package coalition

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"sync"
)

// Symmetry collapse.
//
// Facilities with identical contribution signatures are interchangeable
// players: V(S) depends only on HOW MANY members of each class S contains,
// not on which ones. A game over n players partitioned into k classes with
// multiplicities m_1..m_k therefore collapses to a game over count vectors
// c ∈ Π[0, m_j] — a state space of Π(m_j+1) values instead of 2^n. For a
// 200-facility federation drawn from 8 facility classes that is ~10^10×
// fewer states than the coalition lattice, and because symmetric players
// provably receive equal Shapley values, per-class shares split equally
// within a class with no further error.
//
// Two engines run on the collapsed game: exactShapley enumerates the count
// lattice with closed-form ordering probabilities (exact, feasible when
// Π(m_j+1) is modest), and MemberGame adapts it for the sampler,
// composing collapse with sampling when the state space is still too
// large. Its permutation walks grow a count vector one member at a time.
// The structure's evaluator (ClassStructure.Prefix) values a walk's
// leading certified steps in one batched call; certification is monotone
// along a walk, so every later step reads a concurrent count-vector memo,
// which calls Value on a miss.

// ClassStructure describes the interchangeable-player structure of a game:
// a partition of the players into classes plus the class-level
// characteristic function.
type ClassStructure struct {
	// Mult is the class multiplicity vector; Σ Mult = N.
	Mult []int
	// ClassOf maps each player to its class index.
	ClassOf []int
	// Value returns V for the coalition containing counts[j] members of
	// class j (any counts[j] members — the classes are interchangeable).
	// It must be safe for concurrent calls, return 0 for the zero vector,
	// and must not retain the slice. MemberGame's walks call it only on
	// steps Prefix does not value, through a count-vector memo, so it
	// need not cache itself.
	Value func(counts []int) float64
	// Prefix, when non-nil, returns a fresh batched evaluator of Value
	// for one prefix walker. The game's owner fills it (core.Model backs
	// it with an allocation.PrefixSolver); nil means every walked step
	// reads the count-vector memo.
	Prefix func() ClassPrefix
}

// ClassPrefix values the leading certified steps of a collapsed-game walk,
// for one walker. It is stateful and single-goroutine.
type ClassPrefix interface {
	// WalkCertified starts a walk from the zero vector that adds one
	// member of class classes[0], then of classes[1], …, and returns how
	// many leading steps it can certify: for each n below the returned
	// count it sets vals[n] to exactly Value of the count vector after
	// the (n+1)th addition, bit for bit. The caller values the rest.
	WalkCertified(classes []int, vals []float64) int
}

// Validate checks the partition's internal consistency.
func (cs *ClassStructure) Validate() error {
	if cs.Value == nil {
		return fmt.Errorf("coalition: class structure has no value function")
	}
	total := 0
	for j, m := range cs.Mult {
		if m <= 0 {
			return fmt.Errorf("coalition: class %d has non-positive multiplicity %d", j, m)
		}
		total += m
	}
	if total != len(cs.ClassOf) {
		return fmt.Errorf("coalition: multiplicities sum to %d, have %d players", total, len(cs.ClassOf))
	}
	seen := make([]int, len(cs.Mult))
	for p, j := range cs.ClassOf {
		if j < 0 || j >= len(cs.Mult) {
			return fmt.Errorf("coalition: player %d assigned to unknown class %d", p, j)
		}
		seen[j]++
	}
	for j := range seen {
		if seen[j] != cs.Mult[j] {
			return fmt.Errorf("coalition: class %d has %d assigned players, multiplicity %d", j, seen[j], cs.Mult[j])
		}
	}
	return nil
}

// N returns the player count.
func (cs *ClassStructure) N() int { return len(cs.ClassOf) }

// K returns the class count.
func (cs *ClassStructure) K() int { return len(cs.Mult) }

// States returns the collapsed state-space size Π(m_j+1) as a float (it
// overflows int64 long before the exact engine becomes feasible anyway).
func (cs *ClassStructure) States() float64 {
	states := 1.0
	for _, m := range cs.Mult {
		states *= float64(m + 1)
	}
	return states
}

// Groups returns the classes as player-index groups, ready for the
// sampler's pooling.
func (cs *ClassStructure) Groups() [][]int {
	out := make([][]int, cs.K())
	for p, j := range cs.ClassOf {
		out[j] = append(out[j], p)
	}
	return out
}

// exactClassMaxStates bounds the count lattices Values hands to
// exactShapley: 2^21 states × 8 bytes is a 16 MiB value table, and every
// state costs one characteristic-function evaluation.
const exactClassMaxStates = 1 << 21

// exactShapley computes the exact Shapley value of every player over the
// collapsed game by dynamic enumeration of the count lattice.
//
// For a player p of class j, the coalition S preceding p in a uniform
// random ordering enters φ_p only through its class composition c, and the
// number of such coalitions is Π_i C(m_i − δ_ij, c_i), so
//
//	φ_p = Σ_c  w[|c|] · Π_i C(m_i − δ_ij, c_i) · (V(c+e_j) − V(c))
//
// with w the usual ordering weights s!(n−s−1)!/n!. The products are
// evaluated in log space (overflow-safe for any n) as the multivariate
// hypergeometric mass Π C(m_i−δ_ij, c_i)/C(n−1, |c|) scaled by 1/n. The
// structure must be valid, with at most exactClassMaxStates states; Values
// checks both.
func exactShapley(cs *ClassStructure) []float64 {
	n, k := cs.N(), cs.K()
	states := int(cs.States())

	// Mixed-radix layout: state index idx(c) = Σ c_j · stride_j.
	stride := make([]int, k)
	s := 1
	for j := 0; j < k; j++ {
		stride[j] = s
		s *= cs.Mult[j] + 1
	}

	// Materialize V over the count lattice.
	table := make([]float64, states)
	counts := make([]int, k)
	for idx := 0; idx < states; idx++ {
		table[idx] = cs.Value(counts)
		odometer(counts, cs.Mult)
	}

	// ln C(a, b) via a lnΓ-backed factorial table; relative error ~1e-14,
	// far inside the exact engines' cross-check tolerance.
	lf := make([]float64, n+1)
	for i := 2; i <= n; i++ {
		v, _ := math.Lgamma(float64(i + 1))
		lf[i] = v
	}
	lnC := func(a, b int) float64 { return lf[a] - lf[b] - lf[a-b] }
	lnN := math.Log(float64(n))

	phiClass := make([]float64, k)
	for j := range counts {
		counts[j] = 0
	}
	for idx := 0; idx < states; idx++ {
		card := 0
		logBase := 0.0 // Σ ln C(m_i, c_i)
		for i, c := range counts {
			card += c
			logBase += lnC(cs.Mult[i], c)
		}
		if card < n {
			lw := logBase - lnN - lnC(n-1, card)
			for j := 0; j < k; j++ {
				free := cs.Mult[j] - counts[j]
				if free == 0 {
					continue
				}
				// Restrict the base product to the fixed player's class:
				// C(m_j−1, c_j) = C(m_j, c_j)·(m_j−c_j)/m_j.
				coef := math.Exp(lw) * float64(free) / float64(cs.Mult[j])
				phiClass[j] += coef * (table[idx+stride[j]] - table[idx])
			}
		}
		odometer(counts, cs.Mult)
	}

	phi := make([]float64, n)
	for p, j := range cs.ClassOf {
		phi[p] = phiClass[j]
	}
	return phi
}

// odometer advances a count vector to the next mixed-radix state.
func odometer(counts, mult []int) {
	for j := range counts {
		if counts[j] < mult[j] {
			counts[j]++
			return
		}
		counts[j] = 0
	}
}

// classMemoStripes is the lock striping of the collapsed-game value memo.
const classMemoStripes = 64

// classMemberGame adapts a ClassStructure to the MemberGame interface for
// the sampler: coalitions reduce to count vectors, and count vectors the
// incremental evaluator cannot certify are solved once through a striped
// concurrent memo. A sampled ordering of a 200-player game visits 200
// prefixes, but across thousands of orderings those prefixes share a
// vastly smaller count-vector space, so a memo-served step is usually an
// O(k) lookup rather than a solve. This memo is the only cache on the
// collapsed path (core.Model's ClassStructure.Value solves directly), so
// memory is bounded by the count vectors one computation sends to it.
type classMemberGame struct {
	cs     *ClassStructure
	seed   maphash.Seed
	mus    [classMemoStripes]sync.Mutex
	tables [classMemoStripes]map[string]float64
}

// MemberGame returns the collapsed game as a sampler-ready MemberGame with
// a fresh value memo.
func (cs *ClassStructure) MemberGame() MemberGame {
	g := &classMemberGame{cs: cs, seed: maphash.MakeSeed()}
	for i := range g.tables {
		g.tables[i] = map[string]float64{}
	}
	return g
}

// N implements MemberGame.
func (g *classMemberGame) N() int { return g.cs.N() }

// ValueMembers implements MemberGame.
func (g *classMemberGame) ValueMembers(members []int) float64 {
	k := g.cs.K()
	counts := make([]int, k)
	for _, p := range members {
		counts[g.cs.ClassOf[p]]++
	}
	return g.valueCounts(counts, make([]byte, 2*k))
}

// PrefixValuer implements PrefixGame: the walker's coalition reduces to a
// count vector maintained incrementally, with no per-member scan. Its Walk
// takes the leading certified steps from the valuer's own ClassPrefix
// evaluator in one call, and every other step, like every Extend, is one
// O(k) probe of the game's striped memo. Both equal Value of the count
// vector bit for bit, so incremental and ValueMembers evaluations agree
// whichever serves a step.
func (g *classMemberGame) PrefixValuer() PrefixValuer {
	k := g.cs.K()
	v := &classPrefixValuer{g: g, counts: make([]int, k), key: make([]byte, 2*k)}
	if g.cs.Prefix != nil {
		v.ev = g.cs.Prefix()
	}
	return v
}

// classPrefixValuer is the incremental walker state over one count vector.
type classPrefixValuer struct {
	g       *classMemberGame
	ev      ClassPrefix // nil: every step reads the memo
	counts  []int
	key     []byte
	classes []int // the class of each player of the walk ev values
}

// Reset implements PrefixValuer.
func (v *classPrefixValuer) Reset() { clear(v.counts) }

// Extend implements PrefixValuer: V of the grown count vector, from the
// memo.
func (v *classPrefixValuer) Extend(p int) float64 {
	v.counts[v.g.cs.ClassOf[p]]++
	return v.g.valueCounts(v.counts, v.key)
}

// Walk values a whole walk, as Reset and one Extend per player of perm
// would: the evaluator values the leading certified steps, and Extend
// each later one.
func (v *classPrefixValuer) Walk(perm []int, vals []float64) {
	v.Reset()
	n := 0
	if v.ev != nil {
		v.classes = v.classes[:0]
		for _, p := range perm {
			v.classes = append(v.classes, v.g.cs.ClassOf[p])
		}
		if n = v.ev.WalkCertified(v.classes, vals); n < len(perm) {
			for _, j := range v.classes[:n] {
				v.counts[j]++
			}
		}
	}
	for ; n < len(perm); n++ {
		vals[n] = v.Extend(perm[n])
	}
}

// valueCounts returns the collapsed game's value for a count vector
// through the striped memo; key is a caller-provided 2·K-byte scratch.
func (g *classMemberGame) valueCounts(counts []int, key []byte) float64 {
	for j, c := range counts {
		binary.LittleEndian.PutUint16(key[2*j:], uint16(c))
	}
	stripe := maphash.Bytes(g.seed, key) & (classMemoStripes - 1)
	mu, table := &g.mus[stripe], g.tables[stripe]
	ks := string(key)
	mu.Lock()
	if v, ok := table[ks]; ok {
		mu.Unlock()
		return v
	}
	mu.Unlock()
	// Solve outside the stripe lock: distinct vectors in one stripe can
	// evaluate concurrently, and Value is required to be pure.
	v := g.cs.Value(counts)
	mu.Lock()
	table[ks] = v
	mu.Unlock()
	return v
}
