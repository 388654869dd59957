package sfa

import (
	"errors"
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
	// Deprecated: ignored. The client has no circuit breaker; a
	// coordinator's peer health tracker is its one failure detector.
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
	return cfg
}

// RemoteError is a failure reported by the server itself: the transport
// round-trip succeeded, so peer health does not count it against the peer.
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
