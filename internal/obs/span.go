package obs

import (
	"context"
	"log/slog"
	"time"
)

// spanSeconds returns the registry's span-duration histogram family.
func (r *Registry) spanSeconds() *HistogramVec {
	return r.HistogramVec("fedshare_span_seconds",
		"Span durations by span name.", DefBuckets, "span")
}

// Span is one timed operation. Create with StartSpan, attach context with
// Attr, and finish with End; End records the duration into the
// fedshare_span_seconds{span=name} histogram and, when slog's default
// logger has debug enabled, logs one debug record. A Span is used by a
// single goroutine.
type Span struct {
	name  string
	start time.Time
	reg   *Registry
	attrs []slog.Attr
}

// StartSpan starts a span against the registry.
func (r *Registry) StartSpan(name string) *Span {
	return &Span{name: name, start: time.Now(), reg: r}
}

// StartSpan starts a span against the Default registry.
func StartSpan(name string) *Span { return Default.StartSpan(name) }

// debugEnabled reports whether slog's default logger takes debug records.
func debugEnabled() bool {
	return slog.Default().Enabled(context.TODO(), slog.LevelDebug)
}

// Attr attaches a key/value pair to the span's debug record. The pair is
// kept only while debug logging is enabled, so the call is cheap otherwise.
func (s *Span) Attr(key string, value any) *Span {
	if debugEnabled() {
		s.attrs = append(s.attrs, slog.Any(key, value))
	}
	return s
}

// End finishes the span and returns its duration.
func (s *Span) End() time.Duration {
	d := time.Since(s.start)
	s.reg.spanSeconds().With(s.name).Observe(d.Seconds())
	if debugEnabled() {
		attrs := append([]slog.Attr{slog.String("span", s.name), slog.Duration("dur", d)}, s.attrs...)
		slog.LogAttrs(context.TODO(), slog.LevelDebug, "span", attrs...)
	}
	return d
}
