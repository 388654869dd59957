package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fedshare/internal/coalition"
	"fedshare/internal/core"
	"fedshare/internal/sfa"
)

// Tracing lives entirely in the benchmark: spans are recorded around the
// calls the benchmark makes into each layer (job, lifecycle, call,
// RunContext, Values), kept in memory, and written as JSONL when the run
// ends. Hot valuer calls are aggregated into one span per Values call
// carrying a count and a total.

// span is one recorded interval. Times are nanoseconds since the run began.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
}

// spanRef identifies a span for its children.
type spanRef struct{ trace, id uint64 }

// tracer collects a run's spans.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root starts a new trace and returns the reference its spans hang from.
func (t *tracer) root() spanRef {
	id := t.next.Add(1)
	return spanRef{trace: id, id: id}
}

// child allocates a span id under parent before the span is recorded, so
// the span's own children can reference it.
func (t *tracer) child(parent spanRef) spanRef {
	return spanRef{trace: parent.trace, id: t.next.Add(1)}
}

// record stores a finished span. parent is zero for a root.
func (t *tracer) record(ref spanRef, parent uint64, name string, start, end time.Time, count int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Trace: ref.trace, ID: ref.id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Count: count,
	})
	t.mu.Unlock()
}

// add records a leaf span under parent.
func (t *tracer) add(parent spanRef, name string, start, end time.Time, count int64) {
	t.record(t.child(parent), parent.id, name, start, end, count)
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is one span name's total and self time.
type selfTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// selfTimes reports, per span name, the summed duration and the self time:
// duration minus the part of the interval its children cover. Root spans'
// self time is the residual no traced layer accounts for.
func selfTimes(spans []span) []selfTime {
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	by := map[string]*selfTime{}
	for _, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			by[s.Name] = st
		}
		dur := s.End - s.Start
		covered := coveredNS(children[s.ID], s.Start, s.End)
		st.Count++
		st.Total += time.Duration(dur)
		st.Self += time.Duration(dur - covered)
	}
	out := make([]selfTime, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// coveredNS is the length of the union of intervals, clipped to [lo, hi].
func coveredNS(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, x := range iv {
		s, e := x[0], x[1]
		if s < end {
			s = end
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// --- Compute layers: a timing wrapper around the federation game ---

// tracedGame forwards the game interfaces coalition.Values consults and
// times the valuer calls: ValueMembers and the collapsed ClassStructure
// value (core.value) and the incremental PrefixValuer steps (core.prefix).
type tracedGame struct {
	m                 *core.Model
	valueN, valueNS   atomic.Int64
	prefixN, prefixNS atomic.Int64
}

func (g *tracedGame) N() int { return g.m.N() }

func (g *tracedGame) ValueMembers(members []int) float64 {
	t0 := time.Now()
	v := g.m.ValueMembers(members)
	g.valueNS.Add(int64(time.Since(t0)))
	g.valueN.Add(1)
	return v
}

func (g *tracedGame) ClassStructure() *coalition.ClassStructure {
	cs := g.m.ClassStructure()
	if cs == nil {
		return nil
	}
	inner := cs.Value
	wrapped := *cs
	wrapped.Value = func(counts []int) float64 {
		t0 := time.Now()
		v := inner(counts)
		g.valueNS.Add(int64(time.Since(t0)))
		g.valueN.Add(1)
		return v
	}
	return &wrapped
}

func (g *tracedGame) PrefixValuer() coalition.PrefixValuer {
	pv := g.m.PrefixValuer()
	if pv == nil {
		return nil
	}
	return &tracedValuer{pv: pv, g: g}
}

type tracedValuer struct {
	pv coalition.PrefixValuer
	g  *tracedGame
}

func (v *tracedValuer) Reset() { v.pv.Reset() }

func (v *tracedValuer) Extend(i int) float64 {
	t0 := time.Now()
	x := v.pv.Extend(i)
	v.g.prefixNS.Add(int64(time.Since(t0)))
	v.g.prefixN.Add(1)
	return x
}

// --- Plane layers: wire and store wrappers ---

// wireTap wraps one benchmark client's connections. While on, it counts
// the bytes each way; it also keeps the first captureLimit bytes of each
// connection's two streams, which frameCosts later decodes and re-encodes
// to time the frame codec on real envelopes.
type wireTap struct {
	on    atomic.Bool
	bytes atomic.Int64
	mu    sync.Mutex
	conns []*tappedConn
}

// captureLimit bounds the bytes kept per stream.
const captureLimit = 1 << 20

// dial matches sfa.ClientConfig.DialFunc.
func (w *wireTap) dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	tc := &tappedConn{Conn: c, tap: w}
	w.mu.Lock()
	w.conns = append(w.conns, tc)
	w.mu.Unlock()
	return tc, nil
}

// tappedConn is one client connection seen by a wireTap. The client
// serializes its round trips, so each stream holds whole frames in order
// up to the point capture stopped.
type tappedConn struct {
	net.Conn
	tap         *wireTap
	sent, recvd capture
}

// capture is a prefix of one stream; it stops at the first chunk that
// would overflow captureLimit, so it never holds a gap.
type capture struct {
	buf  bytes.Buffer
	full bool
}

func (c *tappedConn) record(cp *capture, p []byte) {
	if !c.tap.on.Load() {
		return
	}
	c.tap.bytes.Add(int64(len(p)))
	c.tap.mu.Lock()
	if !cp.full && cp.buf.Len()+len(p) <= captureLimit {
		cp.buf.Write(p)
	} else {
		cp.full = true
	}
	c.tap.mu.Unlock()
}

func (c *tappedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.record(&c.sent, p[:n])
	return n, err
}

func (c *tappedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.record(&c.recvd, p[:n])
	return n, err
}

// frameCosts decodes the captured request and response streams with
// sfa.ReadFrame and re-encodes every envelope with sfa.WriteFrame,
// returning the mean cost per frame of each.
func frameCosts(taps []*wireTap) (encode, decode time.Duration, frames int) {
	var streams [][]byte
	for _, w := range taps {
		w.mu.Lock()
		for _, c := range w.conns {
			streams = append(streams, c.sent.buf.Bytes(), c.recvd.buf.Bytes())
		}
		w.mu.Unlock()
	}
	var envs []*sfa.Envelope
	var dec time.Duration
	for _, s := range streams {
		r := bytes.NewReader(s)
		for {
			t0 := time.Now()
			env, err := sfa.ReadFrame(r)
			if err != nil {
				break // end of stream, or a frame cut by the capture limit
			}
			dec += time.Since(t0)
			envs = append(envs, env)
		}
	}
	if len(envs) == 0 {
		return 0, 0, 0
	}
	t0 := time.Now()
	for _, env := range envs {
		if err := sfa.WriteFrame(io.Discard, env); err != nil {
			break
		}
	}
	enc := time.Since(t0)
	n := time.Duration(len(envs))
	return enc / n, dec / n, len(envs)
}

// timedStore wraps the coordinator's durable store and, while on, times
// and counts every record append.
type timedStore struct {
	*sfa.DurableStore
	on      *atomic.Bool
	n, nsec atomic.Int64
}

func (s *timedStore) Append(rec sfa.Record) error {
	if !s.on.Load() {
		return s.DurableStore.Append(rec)
	}
	t0 := time.Now()
	err := s.DurableStore.Append(rec)
	s.nsec.Add(int64(time.Since(t0)))
	s.n.Add(1)
	return err
}

// printSelfTimes renders the self-time table of a traced run.
func printSelfTimes(w io.Writer, spans []span) {
	fmt.Fprintf(w, "  %-28s %8s %12s %12s\n", "span", "count", "total", "self")
	for _, st := range selfTimes(spans) {
		fmt.Fprintf(w, "  %-28s %8d %12s %12s\n", st.Name, st.Count,
			st.Total.Round(time.Microsecond), st.Self.Round(time.Microsecond))
	}
}
