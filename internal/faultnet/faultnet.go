// Package faultnet is a deterministic network-fault-injection harness for
// the federation plane's chaos tests. It wraps net.Conn so that connection
// drops, latency spikes, partial writes, frame-header corruption, and lost
// responses are injected from a seeded deterministic RNG (internal/stats)
// instead of real network weather.
//
// Determinism is the whole point: every connection's complete fault plan is
// drawn up-front at wrap time, keyed to *write-operation indices* — the SFA
// client issues exactly one buffered write per request — so the injected
// fault sequence depends only on the seed and the number of requests sent,
// never on goroutine scheduling, TCP segmentation, or timing. Running the
// same workload twice with the same seed injects byte-identical fault
// schedules.
package faultnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"fedshare/internal/stats"
)

// Kind enumerates the injectable faults. All faults are keyed to a write
// operation, which for length-prefixed request/response protocols makes
// the plan deterministic (one write per request).
type Kind int

const (
	// KindNone leaves the write untouched.
	KindNone Kind = iota
	// KindDrop closes the connection instead of writing: the request
	// never reaches the peer.
	KindDrop
	// KindPartialWrite writes only half the bytes, then closes: the peer
	// sees a truncated frame.
	KindPartialWrite
	// KindCorrupt flips the top bit of the first byte (the frame-length
	// header), so the peer reads an oversized length and rejects the
	// frame. The write itself "succeeds" — silent corruption.
	KindCorrupt
	// KindDropResponse performs the full write, then closes the
	// connection: the peer receives and executes the request but the
	// response is lost. This is the case idempotency keys exist for.
	KindDropResponse
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindDrop:
		return "drop"
	case KindPartialWrite:
		return "partial-write"
	case KindCorrupt:
		return "corrupt"
	case KindDropResponse:
		return "drop-response"
	}
	return "unknown"
}

// ErrInjected marks every error produced by an injected fault.
var ErrInjected = errors.New("faultnet: injected fault")

// Config sets per-write fault probabilities. Probabilities are evaluated
// independently per write op in plan order; at most one fault fires per
// write (first match in the order Drop, PartialWrite, Corrupt,
// DropResponse wins). Latency is drawn separately and can coincide with a
// fault.
type Config struct {
	// Seed feeds the plan RNG. Two wrappers with equal Config produce
	// identical plans.
	Seed uint64
	// PDrop, PPartial, PCorrupt, PDropResponse are per-write-op fault
	// probabilities in [0, 1].
	PDrop         float64
	PPartial      float64
	PCorrupt      float64
	PDropResponse float64
	// PLatency injects a pre-write delay drawn uniformly in
	// (0, MaxLatency] with this probability.
	PLatency   float64
	MaxLatency time.Duration
	// PlannedWrites is how many write ops each connection's plan covers
	// (default 128). Writes beyond the plan are clean.
	PlannedWrites int
}

func (c Config) plannedWrites() int {
	if c.PlannedWrites <= 0 {
		return 128
	}
	return c.PlannedWrites
}

// planStep is the pre-drawn fate of one write op.
type planStep struct {
	kind  Kind
	delay time.Duration
}

// drawPlan rolls the complete fault plan for one connection from rng. All
// randomness is consumed here, at connection setup, in a fixed order.
func drawPlan(cfg Config, rng *stats.Rand) []planStep {
	plan := make([]planStep, cfg.plannedWrites())
	for i := range plan {
		if cfg.PLatency > 0 && cfg.MaxLatency > 0 && rng.Float64() < cfg.PLatency {
			plan[i].delay = time.Duration(1 + rng.Float64()*float64(cfg.MaxLatency-1))
		}
		r := rng.Float64()
		switch {
		case r < cfg.PDrop:
			plan[i].kind = KindDrop
		case r < cfg.PDrop+cfg.PPartial:
			plan[i].kind = KindPartialWrite
		case r < cfg.PDrop+cfg.PPartial+cfg.PCorrupt:
			plan[i].kind = KindCorrupt
		case r < cfg.PDrop+cfg.PPartial+cfg.PCorrupt+cfg.PDropResponse:
			plan[i].kind = KindDropResponse
		default:
			plan[i].kind = KindNone
		}
	}
	return plan
}

// Conn wraps a net.Conn with a pre-drawn fault plan. Reads pass through
// untouched; faults fire on writes per the plan.
type Conn struct {
	net.Conn
	plan   []planStep
	record func(event string)

	mu       sync.Mutex
	writeIdx int
}

// WrapConn wraps inner with the fault plan drawn from rng (which is
// consumed immediately; subsequent use by the caller is safe). record, if
// non-nil, receives one line per triggered fault.
func WrapConn(inner net.Conn, cfg Config, rng *stats.Rand, record func(string)) *Conn {
	return &Conn{Conn: inner, plan: drawPlan(cfg, rng), record: record}
}

func (c *Conn) event(idx int, what string) {
	if c.record != nil {
		c.record(fmt.Sprintf("write%d:%s", idx, what))
	}
}

// Write applies the planned fault for this write index.
func (c *Conn) Write(b []byte) (int, error) {
	c.mu.Lock()
	idx := c.writeIdx
	c.writeIdx++
	var st planStep
	if idx < len(c.plan) {
		st = c.plan[idx]
	}
	c.mu.Unlock()
	if st.delay > 0 {
		c.event(idx, fmt.Sprintf("latency=%s", st.delay.Round(time.Microsecond)))
		time.Sleep(st.delay)
	}
	switch st.kind {
	case KindDrop:
		c.event(idx, "drop")
		_ = c.Conn.Close()
		return 0, fmt.Errorf("%w: dropped write %d", ErrInjected, idx)
	case KindPartialWrite:
		c.event(idx, "partial-write")
		n := len(b) / 2
		written, _ := c.Conn.Write(b[:n])
		_ = c.Conn.Close()
		return written, fmt.Errorf("%w: partial write %d (%d of %d bytes)", ErrInjected, idx, written, len(b))
	case KindCorrupt:
		c.event(idx, "corrupt")
		cp := make([]byte, len(b))
		copy(cp, b)
		cp[0] ^= 0x80 // explode the length prefix; the peer rejects the frame
		return c.Conn.Write(cp)
	case KindDropResponse:
		c.event(idx, "drop-response")
		n, err := c.Conn.Write(b)
		if err == nil {
			// Give the peer a moment to read the request off the socket
			// before the close can discard it, so "request executed,
			// response lost" is the overwhelmingly likely outcome.
			time.Sleep(2 * time.Millisecond)
			_ = c.Conn.Close()
		}
		return n, err
	default:
		return c.Conn.Write(b)
	}
}

// Dialer produces fault-injected client connections with per-connection
// plans derived deterministically from the seed and a connection counter.
// A Dialer is intended for one logical client dialing serially (the SFA
// client redials only after the previous connection broke), which keeps
// connection indices — and therefore plans — reproducible.
type Dialer struct {
	cfg Config

	mu      sync.Mutex
	connIdx int
	events  []string
}

// NewDialer returns a Dialer for cfg.
func NewDialer(cfg Config) *Dialer {
	return &Dialer{cfg: cfg}
}

// Dial connects and wraps the connection; its signature matches
// sfa.ClientConfig.DialFunc.
func (d *Dialer) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	inner, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	idx := d.connIdx
	d.connIdx++
	d.mu.Unlock()
	rng := stats.NewRand(d.cfg.Seed ^ (0x9E3779B97F4A7C15 * uint64(idx+1)))
	prefix := fmt.Sprintf("conn%d.", idx)
	return WrapConn(inner, d.cfg, rng, func(ev string) {
		d.mu.Lock()
		d.events = append(d.events, prefix+ev)
		d.mu.Unlock()
	}), nil
}

// Events returns the triggered-fault log so far. For a serially-used
// Dialer the log is deterministic in the seed.
func (d *Dialer) Events() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.events...)
}
