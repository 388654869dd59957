package sfa

import (
	"errors"
	"fmt"
	"net"
	"time"

	"fedshare/internal/obs"
	"fedshare/internal/stats"
)

// ClientConfig tunes a Client's fault-tolerance policies. The zero value of
// every field selects a sensible default, so ClientConfig{Addr: a} is a
// fully working configuration.
type ClientConfig struct {
	// Addr is the registry address to dial.
	Addr string
	// DialTimeout bounds each (re)connection attempt (default 10s).
	DialTimeout time.Duration
	// CallTimeout bounds one request/response round-trip; each retry
	// attempt gets a fresh deadline (default 10s).
	CallTimeout time.Duration
	// MaxAttempts is the per-call retry budget: total attempts including
	// the first (default 3; 1 disables retries).
	MaxAttempts int
	// RetryBase and RetryMax shape the exponential backoff between
	// attempts: base*2^(attempt-1), capped at max, with deterministic
	// jitter in [1/2, 1) of the computed delay (defaults 25ms and 1s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// BreakerThreshold is the number of consecutive transport failures
	// that opens the circuit breaker (default 5; negative disables the
	// breaker). While open, calls fail fast with ErrCircuitOpen for
	// breakerCooldown; then one half-open probe is allowed.
	BreakerThreshold int
	// Seed feeds the deterministic jitter RNG, so a seeded client retries
	// on a reproducible schedule (default 0, still deterministic).
	Seed uint64
	// Registry receives the client's obs instrumentation (default
	// obs.Default).
	Registry *obs.Registry
	// DialFunc replaces net.DialTimeout — the fault-injection harness and
	// unit tests substitute wrapped or failing connections here.
	DialFunc func(addr string, timeout time.Duration) (net.Conn, error)
	// Sleep replaces time.Sleep between retry attempts (tests).
	Sleep func(time.Duration)
	// Now replaces time.Now for the breaker clock (tests).
	Now func() time.Time
}

// withDefaults returns cfg with every zero field filled in.
func (cfg ClientConfig) withDefaults() ClientConfig {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 10 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 25 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = time.Second
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default
	}
	if cfg.DialFunc == nil {
		cfg.DialFunc = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return cfg
}

// ErrCircuitOpen is returned (wrapped) when the client's circuit breaker is
// open and the call was rejected without touching the network.
var ErrCircuitOpen = errors.New("sfa: circuit breaker open")

// RemoteError is a failure reported by the server itself: the transport
// round-trip succeeded, so the breaker does not count it against the peer.
// Most remote errors are final (retrying would re-execute the request);
// the one exception is Code == CodeOverloaded, which the server guarantees
// was shed before execution, so the client retries it with backoff.
type RemoteError struct {
	Msg  string
	Code string
}

func (e *RemoteError) Error() string { return "sfa: remote: " + e.Msg }

// IsOverloaded reports whether err is (or wraps) a server shed response:
// the request was rejected by the admission gate without executing. Load
// generators use it to separate shed traffic from real transport failures.
func IsOverloaded(err error) bool {
	var remote *RemoteError
	return errors.As(err, &remote) && remote.Code == CodeOverloaded
}

// backoffDelay computes the sleep before retry attempt (attempt >= 1),
// exponential in the attempt number with deterministic jitter drawn from
// rng: uniform in [d/2, d) of the capped delay d.
func backoffDelay(base, max time.Duration, attempt int, rng *stats.Rand) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(rng.Float64()*float64(half))
}

// breakerState enumerates the circuit breaker's three states. The numeric
// values are exported verbatim through the breaker-state gauge.
type breakerState int

const (
	breakerClosed   breakerState = 0
	breakerHalfOpen breakerState = 1
	breakerOpen     breakerState = 2
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerHalfOpen:
		return "half-open"
	case breakerOpen:
		return "open"
	}
	return "unknown"
}

// breakerCooldown is how long an open breaker rejects calls before
// allowing a half-open probe.
const breakerCooldown = 2 * time.Second

// breaker is a minimal closed→open→half-open circuit breaker. It is not
// internally synchronized: the owning Client guards it with its call mutex.
type breaker struct {
	threshold int // consecutive failures to open; <= 0 disables

	state    breakerState
	failures int
	openedAt time.Time
}

// allow reports whether a call may proceed, transitioning open→half-open
// once the cooldown has elapsed.
func (b *breaker) allow(now time.Time) bool {
	if b.threshold <= 0 {
		return true
	}
	switch b.state {
	case breakerOpen:
		if now.Sub(b.openedAt) >= breakerCooldown {
			b.state = breakerHalfOpen
			return true
		}
		return false
	default:
		return true
	}
}

// success resets the breaker to closed.
func (b *breaker) success() {
	b.failures = 0
	b.state = breakerClosed
}

// failure records one transport failure, opening the breaker at the
// threshold (or immediately when a half-open probe fails). It reports
// whether this failure opened the breaker.
func (b *breaker) failure(now time.Time) bool {
	if b.threshold <= 0 {
		return false
	}
	b.failures++
	if b.state == breakerHalfOpen || b.failures >= b.threshold {
		wasOpen := b.state == breakerOpen
		b.state = breakerOpen
		b.openedAt = now
		return !wasOpen
	}
	return false
}

// circuitOpenError wraps ErrCircuitOpen with the peer address and the error
// that tripped the breaker, so callers see both the fast-fail and the root
// cause.
func circuitOpenError(addr string, last error) error {
	if last == nil {
		return fmt.Errorf("%w to %s", ErrCircuitOpen, addr)
	}
	return fmt.Errorf("%w to %s (last failure: %v)", ErrCircuitOpen, addr, last)
}
