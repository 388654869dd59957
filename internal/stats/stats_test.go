package stats

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce identical streams")
		}
	}
	c := NewRand(43)
	diff := false
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds should diverge")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRand(7)
	var s Summary
	for i := 0; i < 100000; i++ {
		s.Add(r.Float64())
	}
	if m := s.Mean(); math.Abs(m-0.5) > 0.01 {
		t.Errorf("uniform mean %g, want ~0.5", m)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRand(3)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) hit %d values in 1000 draws, want all 7", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRand(11)
	var s Summary
	rate := 2.5
	for i := 0; i < 100000; i++ {
		s.Add(r.ExpFloat64(rate))
	}
	if m := s.Mean(); math.Abs(m-1/rate) > 0.01 {
		t.Errorf("exponential mean %g, want ~%g", m, 1/rate)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(17)
	f := func(nRaw uint8) bool {
		n := int(nRaw%20) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("mean = %g, want 5", s.Mean())
	}
	// Population variance is 4; sample variance = 32/7.
	if want := 32.0 / 7.0; math.Abs(s.Var()-want) > 1e-12 {
		t.Errorf("var = %g, want %g", s.Var(), want)
	}
	if s.CI95() <= 0 {
		t.Error("CI95 should be positive for n>1")
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.CI95() != 0 {
		t.Error("empty summary should be all zeros")
	}
	s.Add(3)
	if s.Var() != 0 || s.CI95() != 0 {
		t.Error("single-sample variance must be 0")
	}
}

func TestMeanAndQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Errorf("Mean = %g", Mean(xs))
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
	if q := Quantile(xs, 0.5); q != 2.5 {
		t.Errorf("median = %g", q)
	}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %g", q)
	}
	if q := Quantile(xs, 1); q != 4 {
		t.Errorf("q1 = %g", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) should be NaN")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "phi1"
	s.Add(0, 0.2)
	s.Add(50, 0.3)
	if y, ok := s.YAt(50); !ok || y != 0.3 {
		t.Errorf("YAt(50) = %g, %v", y, ok)
	}
	if _, ok := s.YAt(99); ok {
		t.Error("YAt(99) should not exist")
	}
}

func TestTable(t *testing.T) {
	a := Series{Name: "a", Points: []Point{{0, 1}, {1, 2}}}
	b := Series{Name: "b", Points: []Point{{0, 3}, {1, 4}}}
	out := Table("x", []Series{a, b})
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Errorf("missing headers: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Errorf("want 3 lines, got %d", len(lines))
	}
}

func TestTablePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Table should panic on length mismatch")
		}
	}()
	a := Series{Name: "a", Points: []Point{{0, 1}}}
	b := Series{Name: "b", Points: []Point{{0, 3}, {1, 4}}}
	Table("x", []Series{a, b})
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func TestSummaryMerge(t *testing.T) {
	// Merging partial summaries must match feeding every value into one.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9, -1, 3.5, 12, 0.25}
	for split := 0; split <= len(xs); split++ {
		var a, b, whole Summary
		for i, x := range xs {
			if i < split {
				a.Add(x)
			} else {
				b.Add(x)
			}
			whole.Add(x)
		}
		a.Merge(b)
		if a.N() != whole.N() {
			t.Fatalf("split %d: N = %d, want %d", split, a.N(), whole.N())
		}
		if math.Abs(a.Mean()-whole.Mean()) > 1e-12 {
			t.Errorf("split %d: mean %g vs %g", split, a.Mean(), whole.Mean())
		}
		if math.Abs(a.Var()-whole.Var()) > 1e-12 {
			t.Errorf("split %d: var %g vs %g", split, a.Var(), whole.Var())
		}
	}
}

func TestSummaryMergeEmpty(t *testing.T) {
	var a, empty Summary
	a.Add(1)
	a.Add(3)
	before := a
	a.Merge(empty)
	if a != before {
		t.Error("merging an empty summary must be a no-op")
	}
	var c Summary
	c.Merge(a)
	if c.N() != 2 || c.Mean() != 2 {
		t.Errorf("merge into empty lost state: %+v", c)
	}
}

// BenchmarkTable renders a 2000-series × 1-point table, the shape of the
// walk workload's result, and a figure-sized one of 6 series × 14 points.
func BenchmarkTable(b *testing.B) {
	for _, c := range []struct {
		name           string
		series, points int
	}{{"2000x1", 2000, 1}, {"6x14", 6, 14}} {
		series := make([]Series, c.series)
		for i := range series {
			series[i].Name = fmt.Sprintf("f%d", i)
			for p := 0; p < c.points; p++ {
				series[i].Add(float64(100*p), float64(i+p)/7)
			}
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = Table("l", series)
			}
		})
	}
}
