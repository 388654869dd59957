// Package stats provides the small statistical toolkit the simulators and
// estimators need: a seedable deterministic RNG, streaming summaries,
// confidence intervals, and (x, y) series used by the figure runners.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Rand is a deterministic, seedable pseudo-random generator
// (xorshift128+ core). It is intentionally independent of math/rand so that
// experiment outputs are stable across Go releases.
type Rand struct {
	s0, s1 uint64
}

// NewRand returns a generator seeded from seed via SplitMix64 so that nearby
// seeds produce unrelated streams.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	next := func() uint64 {
		sm += 0x9E3779B97F4A7C15
		z := sm
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	r.s0, r.s1 = next(), next()
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1
	}
	return r
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// ExpFloat64 returns an exponential variate with the given rate (mean 1/rate).
func (r *Rand) ExpFloat64(rate float64) float64 {
	if rate <= 0 {
		panic("stats: ExpFloat64 with non-positive rate")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Summary accumulates streaming first and second moments of a sample.
type Summary struct {
	n        int
	mean, m2 float64
}

// Add folds one observation into the summary (Welford's update).
func (s *Summary) Add(x float64) {
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// Merge folds another summary into s, as if every observation added to o
// had been added to s (Chan et al.'s pairwise moment combination). It is
// the reduction step of the parallel estimators: workers accumulate into
// private summaries and merge them in a fixed order, so the merged moments
// are deterministic for a given partition regardless of completion order.
func (s *Summary) Merge(o Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n := s.n + o.n
	delta := o.mean - s.mean
	s.mean += delta * float64(o.n) / float64(n)
	s.m2 += o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(n)
	s.n = n
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance (0 for fewer than 2 samples).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Var()) }

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean. It is 0 for fewer than two samples.
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return 1.96 * s.Stddev() / math.Sqrt(float64(s.n))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation on the sorted sample. Empty input yields NaN.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Point is one (x, y) sample of a plotted series.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points: one line of a paper figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// YAt returns the y value at the first point whose x equals x (within eps),
// and whether such a point exists.
func (s *Series) YAt(x float64) (float64, bool) {
	const eps = 1e-9
	for _, p := range s.Points {
		if math.Abs(p.X-x) < eps {
			return p.Y, true
		}
	}
	return 0, false
}

// Table renders a set of series as an aligned text table sharing the x axis.
// All series must have identical x grids; Table panics otherwise to surface
// figure-runner bugs early.
func Table(xLabel string, series []Series) string {
	if len(series) == 0 {
		return ""
	}
	n := len(series[0].Points)
	for _, s := range series {
		if len(s.Points) != n {
			panic(fmt.Sprintf("stats: series %q has %d points, want %d", s.Name, len(s.Points), n))
		}
	}
	out := fmt.Sprintf("%12s", xLabel)
	for _, s := range series {
		out += fmt.Sprintf(" %12s", s.Name)
	}
	out += "\n"
	for i := 0; i < n; i++ {
		out += fmt.Sprintf("%12.4g", series[0].Points[i].X)
		for _, s := range series {
			if math.Abs(s.Points[i].X-series[0].Points[i].X) > 1e-9 {
				panic(fmt.Sprintf("stats: series %q x grid mismatch at row %d", s.Name, i))
			}
			out += fmt.Sprintf(" %12.4f", s.Points[i].Y)
		}
		out += "\n"
	}
	return out
}
