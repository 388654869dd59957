// Package combin provides combinatorial enumeration primitives used by the
// coalitional game engine: coalitions as bitmasks, subset iteration and
// binomial coefficients.
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

// Subsets calls fn for every subset of s, including the empty set and s itself.
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
