package sfa

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"fedshare/internal/stats"
)

// PeerState is one peer's position in the failure-detection lifecycle.
// The numeric values are exported verbatim through the
// fedshare_sfa_peer_state{peer} gauge.
type PeerState int

const (
	// PeerHealthy: recent calls succeed; the peer participates fully.
	PeerHealthy PeerState = 0
	// PeerSuspect: one or more consecutive transport failures, but not yet
	// enough to declare the peer down. It still receives traffic.
	PeerSuspect PeerState = 1
	// PeerDown: consecutive failures crossed the down threshold. The
	// coordinator stops sending it reservations, excludes it from share
	// computation, and queues releases for later replay.
	PeerDown PeerState = 2
	// PeerRecovering: a probe reached a down peer; the reconciler is
	// replaying queued operations and proving convergence before the peer
	// is readmitted to share computation.
	PeerRecovering PeerState = 3
)

func (s PeerState) String() string {
	switch s {
	case PeerHealthy:
		return "healthy"
	case PeerSuspect:
		return "suspect"
	case PeerDown:
		return "down"
	case PeerRecovering:
		return "recovering"
	}
	return "unknown"
}

// excluded reports whether a peer in this state is left out of placement
// and share computation: down, or recovering until reconciliation readmits
// it.
func (s PeerState) excluded() bool { return s == PeerDown || s == PeerRecovering }

// peerHealth is one peer's tracked condition.
type peerHealth struct {
	state     PeerState
	failures  int       // consecutive transport failures
	since     time.Time // entered current state
	lastSeen  time.Time // last successful contact; zero = never
	nextProbe time.Time
}

// healthTracker drives each peer through healthy → suspect → down →
// recovering from call outcomes and probe results. All time is read from
// the injected clock and probe jitter comes from a seeded RNG, so a test
// federation's health history is deterministic.
type healthTracker struct {
	mu            sync.Mutex
	now           func() time.Time
	downAfter     int
	probeInterval time.Duration
	rng           *stats.Rand
	peers         map[string]*peerHealth
	// onTransition observes every state change (invoked under mu — it must
	// not call back into the tracker). The server uses it to drive the
	// peer-state gauge and transition log lines.
	onTransition func(peer string, from, to PeerState)
}

func newHealthTracker(now func() time.Time, downAfter int, probeInterval time.Duration, seed uint64) *healthTracker {
	return &healthTracker{
		now:           now,
		downAfter:     downAfter,
		probeInterval: probeInterval,
		rng:           stats.NewRand(seed),
		peers:         map[string]*peerHealth{},
	}
}

// scheduleProbeLocked sets the peer's next probe deadline: one interval
// out, with deterministic jitter in [0, interval/4) so a large federation's
// probes spread out instead of firing in one burst.
func (h *healthTracker) scheduleProbeLocked(p *peerHealth, now time.Time) {
	jitter := time.Duration(h.rng.Float64() * float64(h.probeInterval) / 4)
	p.nextProbe = now.Add(h.probeInterval + jitter)
}

// setStateLocked transitions a peer, resetting its failure streak and
// firing the transition hook. Caller holds h.mu.
func (h *healthTracker) setStateLocked(name string, p *peerHealth, to PeerState, now time.Time) {
	from := p.state
	if from == to {
		return
	}
	p.state = to
	p.failures = 0
	p.since = now
	if h.onTransition != nil {
		h.onTransition(name, from, to)
	}
}

// ensure registers a peer as healthy. Re-peering resets an existing entry:
// a fresh peering handshake just round-tripped, so the peer is reachable.
func (h *healthTracker) ensure(name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.now()
	p, ok := h.peers[name]
	if !ok {
		p = &peerHealth{state: PeerHealthy, since: now, lastSeen: now}
		h.peers[name] = p
		h.scheduleProbeLocked(p, now)
		if h.onTransition != nil {
			h.onTransition(name, PeerHealthy, PeerHealthy)
		}
		return
	}
	p.lastSeen = now
	h.setStateLocked(name, p, PeerHealthy, now)
}

// observe feeds one attempt's outcome into the state machine. Success
// clears a suspect streak; the first failure makes a healthy peer suspect,
// and downAfter failures in a row, that first one included, make it down.
// Down and recovering peers are owned by the probe/reconcile path: a stray
// outcome (e.g. an in-flight call that raced the transition) never
// readmits them.
func (h *healthTracker) observe(name string, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, present := h.peers[name]
	if !present {
		return
	}
	now := h.now()
	if ok {
		p.lastSeen = now
		p.failures = 0
		if p.state == PeerSuspect {
			h.setStateLocked(name, p, PeerHealthy, now)
		}
		return
	}
	switch p.state {
	case PeerHealthy:
		h.setStateLocked(name, p, PeerSuspect, now)
		// The streak's first failure counts toward the down threshold;
		// at downAfter 1 it goes straight through.
		p.failures = 1
		if p.failures >= h.downAfter {
			h.setStateLocked(name, p, PeerDown, now)
		}
	case PeerSuspect:
		p.failures++
		if p.failures >= h.downAfter {
			h.setStateLocked(name, p, PeerDown, now)
		}
	case PeerRecovering:
		// The reconciler demotes explicitly; nothing to count here.
	case PeerDown:
		// Already down; stay down until a probe succeeds.
	}
}

// peerGate is one peer's health as each attempt of a call to it sees it
// (see Client.call).
type peerGate struct {
	h    *healthTracker
	name string
}

// admit returns nil while the peer may be called, and otherwise the
// transport failure that stops the call.
func (g *peerGate) admit() error {
	if st := g.h.state(g.name); st.excluded() {
		return fmt.Errorf("sfa: peer %s is %s", g.name, st)
	}
	return nil
}

// state returns the peer's current state (PeerHealthy for unknown peers,
// matching the pre-health-tracking behavior of treating every peer as
// usable).
func (h *healthTracker) state(name string) PeerState {
	h.mu.Lock()
	defer h.mu.Unlock()
	if p, ok := h.peers[name]; ok {
		return p.state
	}
	return PeerHealthy
}

// beginRecovery transitions a down peer to recovering, returning true if
// this call performed the transition (so exactly one reconciler starts).
// beginDrain does the same from healthy, for draining a backlog that
// accrued in the race window between a release and the peer's readmission.
func (h *healthTracker) beginRecovery(name string) bool {
	return h.transition(name, PeerDown, PeerRecovering)
}

func (h *healthTracker) beginDrain(name string) bool {
	return h.transition(name, PeerHealthy, PeerRecovering)
}

// readmit returns a recovering peer to healthy after the reconciler proved
// convergence; demote sends it back to down after a failed attempt.
func (h *healthTracker) readmit(name string) bool {
	return h.transition(name, PeerRecovering, PeerHealthy)
}

func (h *healthTracker) demote(name string) bool {
	return h.transition(name, PeerRecovering, PeerDown)
}

func (h *healthTracker) transition(name string, from, to PeerState) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.peers[name]
	if !ok || p.state != from {
		return false
	}
	now := h.now()
	if to == PeerHealthy {
		p.lastSeen = now
	}
	h.setStateLocked(name, p, to, now)
	return true
}

// dueProbes returns the peers whose probe deadline has passed, in sorted
// order, and schedules their next probes. Recovering peers are skipped —
// the reconciler owns them until it readmits or demotes.
func (h *healthTracker) dueProbes() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.now()
	var due []string
	for name, p := range h.peers {
		if p.state == PeerRecovering {
			continue
		}
		if !p.nextProbe.After(now) {
			due = append(due, name)
			h.scheduleProbeLocked(p, now)
		}
	}
	sort.Strings(due)
	return due
}

// PeerHealthInfo is one peer's externally visible condition, served by the
// daemon's peer endpoint and rendered by fedctl status.
type PeerHealthInfo struct {
	Peer  string `json:"peer"`
	Addr  string `json:"addr"`
	State string `json:"state"`
	// SinceSeconds is time spent in the current state; LastSeenSeconds is
	// time since the last successful contact (-1 = never). Durations are
	// relative so they are meaningful under any clock.
	SinceSeconds    float64 `json:"since_seconds"`
	LastSeenSeconds float64 `json:"last_seen_seconds"`
	Failures        int     `json:"failures"`
	Backlog         int     `json:"backlog"`
}

// snapshot captures every tracked peer's condition, sorted by name.
func (h *healthTracker) snapshot() []PeerHealthInfo {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.now()
	out := make([]PeerHealthInfo, 0, len(h.peers))
	for name, p := range h.peers {
		info := PeerHealthInfo{
			Peer:            name,
			State:           p.state.String(),
			SinceSeconds:    now.Sub(p.since).Seconds(),
			LastSeenSeconds: -1,
			Failures:        p.failures,
		}
		if !p.lastSeen.IsZero() {
			info.LastSeenSeconds = now.Sub(p.lastSeen).Seconds()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}
