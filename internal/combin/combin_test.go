package combin

import (
	"math"
	"testing"
	"testing/quick"
)

// of builds a coalition from an explicit list of players.
func of(players ...int) Set {
	var s Set
	for _, p := range players {
		s |= Singleton(p)
	}
	return s
}

func TestFull(t *testing.T) {
	cases := []struct {
		n    int
		want Set
	}{
		{0, 0},
		{1, 1},
		{3, 0b111},
		{8, 0xFF},
		{64, Set(math.MaxUint64)},
	}
	for _, c := range cases {
		if got := Full(c.n); got != c.want {
			t.Errorf("Full(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestFullPanicsOutOfRange(t *testing.T) {
	for _, n := range []int{-1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Full(%d) did not panic", n)
				}
			}()
			Full(n)
		}()
	}
}

func TestSetOperations(t *testing.T) {
	s := of(0, 2, 5)
	if !s.Contains(0) || !s.Contains(2) || !s.Contains(5) {
		t.Fatalf("of(0,2,5) missing members: %v", s)
	}
	if s.Contains(1) || s.Contains(3) {
		t.Fatalf("of(0,2,5) has spurious members: %v", s)
	}
	if got := s.Card(); got != 3 {
		t.Errorf("Card = %d, want 3", got)
	}
	if got := s.With(1); got != of(0, 1, 2, 5) {
		t.Errorf("With(1) = %v", got)
	}
	if got := s.Without(2); got != of(0, 5) {
		t.Errorf("Without(2) = %v", got)
	}
	if got := s.Union(of(1, 2)); got != of(0, 1, 2, 5) {
		t.Errorf("Union = %v", got)
	}
	if got := s.Minus(of(2)); got != of(0, 5) {
		t.Errorf("Minus = %v", got)
	}
}

func TestMembersRoundTrip(t *testing.T) {
	f := func(raw uint64) bool {
		s := Set(raw)
		var rebuilt Set
		for _, m := range s.Members() {
			rebuilt = rebuilt.With(m)
		}
		return rebuilt == s && len(s.Members()) == s.Card()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	if got := of(0, 2, 3).String(); got != "{0,2,3}" {
		t.Errorf("String = %q", got)
	}
	if got := Set(0).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

func TestSubsetsCount(t *testing.T) {
	s := of(1, 3, 4, 7)
	count := 0
	seen := map[Set]bool{}
	Subsets(s, func(sub Set) bool {
		if sub&^s != 0 {
			t.Errorf("subset %v not within %v", sub, s)
		}
		if seen[sub] {
			t.Errorf("duplicate subset %v", sub)
		}
		seen[sub] = true
		count++
		return true
	})
	if count != 16 {
		t.Errorf("got %d subsets of a 4-set, want 16", count)
	}
	if !seen[Set(0)] || !seen[s] {
		t.Error("Subsets must include the empty set and the set itself")
	}
}

func TestSubsetsEarlyStop(t *testing.T) {
	count := 0
	Subsets(of(0, 1, 2), func(Set) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop after 3, got %d calls", count)
	}
}

func TestAllCoalitions(t *testing.T) {
	count := 0
	AllCoalitions(4, func(Set) bool { count++; return true })
	if count != 16 {
		t.Errorf("AllCoalitions(4) visited %d, want 16", count)
	}
	// n=0 visits only the empty coalition.
	count = 0
	AllCoalitions(0, func(s Set) bool {
		if s != Set(0) {
			t.Errorf("unexpected coalition %v for n=0", s)
		}
		count++
		return true
	})
	if count != 1 {
		t.Errorf("AllCoalitions(0) visited %d, want 1", count)
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1},
		{5, 0, 1},
		{5, 5, 1},
		{5, 2, 10},
		{10, 3, 120},
		{52, 5, 2598960},
		{5, 6, 0},
		{5, -1, 0},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("Binomial(%d,%d) = %g, want %g", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialPascal(t *testing.T) {
	// Pascal's rule over a triangle.
	for n := 2; n <= 20; n++ {
		for k := 1; k < n; k++ {
			if got, want := Binomial(n, k), Binomial(n-1, k-1)+Binomial(n-1, k); got != want {
				t.Fatalf("Pascal fails at (%d,%d): %g != %g", n, k, got, want)
			}
		}
	}
}

func BenchmarkSubsets10(b *testing.B) {
	s := Full(10)
	for i := 0; i < b.N; i++ {
		n := 0
		Subsets(s, func(Set) bool { n++; return true })
	}
}
