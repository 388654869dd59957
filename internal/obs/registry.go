package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// kind discriminates the metric families a registry can hold.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Registry is a concurrency-safe collection of metric families. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	sink     atomic.Value // Sink; trace-line destination for spans
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// family is one named metric family: all children share the name, help,
// type, label names, and (for histograms) bucket layout.
type family struct {
	name       string
	help       string
	kind       kind
	labelNames []string
	buckets    []float64      // histogram upper bounds (no +Inf)
	fn         func() float64 // kindGaugeFunc only

	mu       sync.RWMutex
	children map[string]any // label-value key -> *Counter / *Gauge / *Histogram
}

// labelKey joins label values into a map key. \xff cannot appear in UTF-8
// text, so the join is unambiguous.
func labelKey(values []string) string {
	return strings.Join(values, "\xff")
}

// family returns the named family, creating it if absent. An existing
// family must match the requested kind and label arity exactly.
func (r *Registry) family(name, help string, k kind, labelNames []string, buckets []float64) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = r.families[name]; f == nil {
			f = &family{
				name:       name,
				help:       help,
				kind:       k,
				labelNames: append([]string(nil), labelNames...),
				buckets:    append([]float64(nil), buckets...),
				children:   map[string]any{},
			}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != k || len(f.labelNames) != len(labelNames) {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v/%d labels (was %v/%d)",
			name, k, len(labelNames), f.kind, len(f.labelNames)))
	}
	return f
}

// child returns the metric for the given label values, creating it via
// make on first use.
func (f *family) child(values []string, make func() any) any {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := labelKey(values)
	f.mu.RLock()
	c := f.children[key]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.children[key]; c == nil {
		c = make()
		f.children[key] = c
	}
	return c
}

// --- Counter ---

// Counter is a monotonically increasing count. All methods are safe for
// concurrent use and lock-free.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n < 0 panics: counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: counter decrement")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter returns the unlabeled counter family name, creating it if
// absent.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, kindCounter, nil, nil)
	return f.child(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family name, creating it if
// absent.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, labelNames, nil)}
}

// With returns the child counter for the given label values.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.child(labelValues, func() any { return &Counter{} }).(*Counter)
}

// --- Gauge ---

// Gauge is an instantaneous float64 value. All methods are safe for
// concurrent use and lock-free.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (negative to subtract) with a CAS loop.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		new_ := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, new_) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge returns the unlabeled gauge family name, creating it if absent.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, kindGauge, nil, nil)
	return f.child(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family name, creating it if absent.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, labelNames, nil)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.child(labelValues, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a callback-backed gauge: fn is evaluated at scrape
// time, so existing counters (e.g. the Go runtime's goroutine and heap
// statistics) can be exported with zero hot-path cost. Re-registering the same name
// replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindGaugeFunc, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// --- Histogram ---

// DefBuckets is the default latency bucket layout, in seconds: 1µs–10s in
// a 1-10 exponential ladder with a mid-decade point, wide enough for both
// in-process kernel batches and network round-trips.
var DefBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5, 10,
}

// ExpBuckets returns count buckets starting at start and multiplying by
// factor, for metrics whose range the default ladder does not fit.
func ExpBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, count >= 1")
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Histogram counts observations into fixed buckets. Observe is lock-free:
// a bucket scan plus three atomic adds.
type Histogram struct {
	upper   []float64       // sorted upper bounds; +Inf is implicit
	counts  []atomic.Uint64 // len(upper)+1; last is the +Inf bucket
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram buckets must be strictly increasing")
		}
	}
	return &Histogram{
		upper:  buckets,
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new_ := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new_) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values so far.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Histogram returns the unlabeled histogram family name, creating it if
// absent with the given bucket upper bounds (nil means DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.family(name, help, kindHistogram, nil, buckets)
	return f.child(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family name, creating it if
// absent with the given bucket upper bounds (nil means DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{r.family(name, help, kindHistogram, labelNames, buckets)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.child(labelValues, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// --- Snapshot ---

// Snapshot is a point-in-time copy of a registry, suitable for JSON
// encoding or programmatic inspection.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// FamilySnapshot is one family's state.
type FamilySnapshot struct {
	Name    string           `json:"name"`
	Type    string           `json:"type"`
	Help    string           `json:"help,omitempty"`
	Metrics []MetricSnapshot `json:"metrics"`
}

// MetricSnapshot is one child's state. Value is set for counters and
// gauges; Count/Sum/Buckets for histograms.
type MetricSnapshot struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value"`
	Count   uint64            `json:"count,omitempty"`
	Sum     float64           `json:"sum,omitempty"`
	Buckets []BucketCount     `json:"buckets,omitempty"`
}

// BucketCount is a cumulative histogram bucket: observations <= LE. The
// implicit +Inf bucket is the metric's Count.
type BucketCount struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// Snapshot copies the registry's current state, with families and
// children in deterministic (sorted) order.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var snap Snapshot
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Type: f.kind.String(), Help: f.help}
		if f.kind == kindGaugeFunc {
			f.mu.RLock()
			fn := f.fn
			f.mu.RUnlock()
			v := 0.0
			if fn != nil {
				v = fn()
			}
			fs.Metrics = []MetricSnapshot{{Value: v}}
			snap.Families = append(snap.Families, fs)
			continue
		}
		f.mu.RLock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, key := range keys {
			ms := MetricSnapshot{}
			if len(f.labelNames) > 0 {
				values := strings.Split(key, "\xff")
				ms.Labels = make(map[string]string, len(f.labelNames))
				for i, ln := range f.labelNames {
					ms.Labels[ln] = values[i]
				}
			}
			switch c := f.children[key].(type) {
			case *Counter:
				ms.Value = float64(c.Value())
			case *Gauge:
				ms.Value = c.Value()
			case *Histogram:
				ms.Count = c.Count()
				ms.Sum = c.Sum()
				cum := uint64(0)
				ms.Buckets = make([]BucketCount, len(c.upper))
				for i, ub := range c.upper {
					cum += c.counts[i].Load()
					ms.Buckets[i] = BucketCount{LE: ub, Count: cum}
				}
			}
			fs.Metrics = append(fs.Metrics, ms)
		}
		f.mu.RUnlock()
		snap.Families = append(snap.Families, fs)
	}
	return snap
}
