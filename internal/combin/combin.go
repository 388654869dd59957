// Package combin provides combinatorial enumeration primitives used by the
// coalitional game engine: coalitions as bitmasks, subset and permutation
// iteration, and binomial/factorial tables.
//
// Coalitions over a player set {0, 1, …, n-1} are represented as Set, a
// uint64 bitmask, which bounds the exact engines at 64 players; the
// Monte-Carlo estimators in package coalition lift that restriction.
package combin

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Set is a coalition of players encoded as a bitmask: bit i set means player
// i belongs to the coalition.
type Set uint64

// Empty is the empty coalition.
const Empty Set = 0

// MaxPlayers is the largest player count representable by Set.
const MaxPlayers = 64

// Full returns the grand coalition over n players.
func Full(n int) Set {
	if n < 0 || n > MaxPlayers {
		panic(fmt.Sprintf("combin: player count %d out of range [0,%d]", n, MaxPlayers))
	}
	if n == MaxPlayers {
		return Set(math.MaxUint64)
	}
	return Set(1)<<uint(n) - 1
}

// Singleton returns the coalition containing only player i.
func Singleton(i int) Set { return Set(1) << uint(i) }

// Of builds a coalition from an explicit list of players.
func Of(players ...int) Set {
	var s Set
	for _, p := range players {
		s |= Singleton(p)
	}
	return s
}

// Contains reports whether player i belongs to s.
func (s Set) Contains(i int) bool { return s&Singleton(i) != 0 }

// With returns s ∪ {i}.
func (s Set) With(i int) Set { return s | Singleton(i) }

// Without returns s \ {i}.
func (s Set) Without(i int) Set { return s &^ Singleton(i) }

// Union returns s ∪ t.
func (s Set) Union(t Set) Set { return s | t }

// Minus returns s \ t.
func (s Set) Minus(t Set) Set { return s &^ t }

// Card returns |s|.
func (s Set) Card() int { return bits.OnesCount64(uint64(s)) }

// IsEmpty reports whether s is the empty coalition.
func (s Set) IsEmpty() bool { return s == 0 }

// Members returns the players of s in increasing order.
func (s Set) Members() []int {
	out := make([]int, 0, s.Card())
	for t := s; t != 0; {
		i := bits.TrailingZeros64(uint64(t))
		out = append(out, i)
		t &^= Set(1) << uint(i)
	}
	return out
}

// String renders the coalition in conventional notation, e.g. "{0,2,3}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for idx, p := range s.Members() {
		if idx > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(p))
	}
	b.WriteByte('}')
	return b.String()
}

// Subsets calls fn for every subset of s, including Empty and s itself.
// Iteration order is the standard sub-mask descent (decreasing mask value,
// finishing with the empty set). It stops early if fn returns false.
func Subsets(s Set, fn func(Set) bool) {
	// Classic sub-mask enumeration: sub = (sub-1) & s walks all submasks.
	for sub := s; ; sub = (sub - 1) & s {
		if !fn(sub) {
			return
		}
		if sub == 0 {
			return
		}
	}
}

// AllCoalitions calls fn for every coalition over n players, empty and grand
// included. With n players this is 2^n invocations.
func AllCoalitions(n int, fn func(Set) bool) {
	full := Full(n)
	for m := Set(0); ; m++ {
		if !fn(m) {
			return
		}
		if m == full {
			return
		}
	}
}

// Binomial returns C(n, k) as a float64, exact for all values that fit, and
// +Inf on overflow. Negative or out-of-range k yields 0.
func Binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	out := 1.0
	for i := 0; i < k; i++ {
		out *= float64(n-i) / float64(i+1)
	}
	return math.Round(out)
}

// Factorial returns n! as a float64 (exact through n = 22, approximate
// beyond). Negative n panics.
func Factorial(n int) float64 {
	if n < 0 {
		panic("combin: factorial of negative number")
	}
	out := 1.0
	for i := 2; i <= n; i++ {
		out *= float64(i)
	}
	return out
}

// Permutations calls fn with each permutation of {0,…,n-1} using Heap's
// algorithm. The slice passed to fn is reused between calls; callers must
// copy it if they retain it. Iteration stops early if fn returns false.
func Permutations(n int, fn func([]int) bool) {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	if n == 0 {
		fn(perm)
		return
	}
	c := make([]int, n)
	if !fn(perm) {
		return
	}
	for i := 0; i < n; {
		if c[i] < i {
			if i%2 == 0 {
				perm[0], perm[i] = perm[i], perm[0]
			} else {
				perm[c[i]], perm[i] = perm[i], perm[c[i]]
			}
			if !fn(perm) {
				return
			}
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
}
