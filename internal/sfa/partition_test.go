package sfa

import (
	"bufio"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedshare/internal/faultnet"
	"fedshare/internal/obs"
)

// --- health tracker unit tests ----------------------------------------------

type transitionLog struct {
	mu      sync.Mutex
	entries []string
}

func (l *transitionLog) hook(peer string, from, to PeerState) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from != to {
		l.entries = append(l.entries, fmt.Sprintf("%s:%s->%s", peer, from, to))
	}
}

func (l *transitionLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.entries...)
}

func TestHealthTrackerLifecycle(t *testing.T) {
	clock := newFakeClock()
	var log transitionLog
	h := newHealthTracker(clock.Now, 3, 50*time.Millisecond, 7)
	h.onTransition = log.hook

	h.ensure("X")
	if got := h.state("X"); got != PeerHealthy {
		t.Fatalf("state after ensure = %s", got)
	}
	// The first failure makes the peer suspect.
	h.observe("X", false)
	if got := h.state("X"); got != PeerSuspect {
		t.Fatalf("state after 1 failure = %s, want suspect", got)
	}
	// Success clears a suspect streak.
	h.observe("X", true)
	if got := h.state("X"); got != PeerHealthy {
		t.Fatalf("state after recovery = %s, want healthy", got)
	}
	// Walk to down: downAfter (3) counts from the first failure of the
	// streak, so two failures stay suspect and the third crosses it.
	for i := 0; i < 2; i++ {
		h.observe("X", false)
	}
	if got := h.state("X"); got != PeerSuspect {
		t.Fatalf("state after 2 failures = %s, want suspect", got)
	}
	h.observe("X", false)
	if got := h.state("X"); got != PeerDown {
		t.Fatalf("state after streak = %s, want down", got)
	}
	// A stray success (an in-flight call that raced the transition) must not
	// readmit a down peer; only the probe/reconcile path does.
	h.observe("X", true)
	if got := h.state("X"); got != PeerDown {
		t.Fatalf("stray success readmitted a down peer: %s", got)
	}
	if !h.beginRecovery("X") {
		t.Fatal("beginRecovery on a down peer must succeed")
	}
	if h.beginRecovery("X") {
		t.Fatal("second beginRecovery must lose the race")
	}
	// Outcomes observed during recovery are owned by the reconciler.
	h.observe("X", false)
	if got := h.state("X"); got != PeerRecovering {
		t.Fatalf("observe during recovery moved state to %s", got)
	}
	if !h.readmit("X") {
		t.Fatal("readmit after convergence must succeed")
	}
	if got := h.state("X"); got != PeerHealthy {
		t.Fatalf("state after readmit = %s", got)
	}
	// Drain path: healthy -> recovering -> (failed) -> down.
	if !h.beginDrain("X") {
		t.Fatal("beginDrain on a healthy peer must succeed")
	}
	if !h.demote("X") {
		t.Fatal("demote on a recovering peer must succeed")
	}
	want := []string{
		"X:healthy->suspect", "X:suspect->healthy",
		"X:healthy->suspect", "X:suspect->down",
		"X:down->recovering", "X:recovering->healthy",
		"X:healthy->recovering", "X:recovering->down",
	}
	if got := log.snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("transitions = %v\nwant %v", got, want)
	}
	if got := h.state("untracked"); got != PeerHealthy {
		t.Errorf("untracked peer state = %s, want default healthy", got)
	}
}

func TestHealthTrackerStraightThroughDown(t *testing.T) {
	clock := newFakeClock()
	var log transitionLog
	// downAfter == 1: a single failure falls straight through suspect to
	// down, with both transitions observed.
	h := newHealthTracker(clock.Now, 1, 50*time.Millisecond, 1)
	h.onTransition = log.hook
	h.ensure("Y")
	h.observe("Y", false)
	if got := h.state("Y"); got != PeerDown {
		t.Fatalf("state = %s, want down", got)
	}
	want := []string{"Y:healthy->suspect", "Y:suspect->down"}
	if got := log.snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("transitions = %v, want %v", got, want)
	}
}

func TestHealthTrackerDueProbes(t *testing.T) {
	clock := newFakeClock()
	const interval = 40 * time.Millisecond
	h := newHealthTracker(clock.Now, 3, interval, 11)
	h.ensure("A")
	h.ensure("B")
	if due := h.dueProbes(); len(due) != 0 {
		t.Fatalf("probes due immediately after ensure: %v", due)
	}
	// interval + max jitter (interval/4) passes: both peers are due, sorted.
	clock.Advance(interval + interval/4)
	if due := h.dueProbes(); !reflect.DeepEqual(due, []string{"A", "B"}) {
		t.Fatalf("due = %v, want [A B]", due)
	}
	// dueProbes reschedules: nothing is due again until the clock moves.
	if due := h.dueProbes(); len(due) != 0 {
		t.Fatalf("probes due twice without the clock advancing: %v", due)
	}
	// Recovering peers are owned by the reconciler and never probed.
	for i := 0; i < 3; i++ {
		h.observe("A", false)
	}
	if !h.beginRecovery("A") {
		t.Fatal("A should be down and recoverable")
	}
	clock.Advance(interval + interval/4)
	if due := h.dueProbes(); !reflect.DeepEqual(due, []string{"B"}) {
		t.Fatalf("due = %v, want [B] (A is recovering)", due)
	}
}

// --- overload shedding -------------------------------------------------------

// silentListener accepts connections and never answers, wedging any call
// routed at it until the test closes the accepted connections.
type silentListener struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func newSilentListener(t *testing.T) *silentListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &silentListener{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, c)
			s.mu.Unlock()
		}
	}()
	t.Cleanup(s.close)
	return s
}

func (s *silentListener) close() {
	_ = s.ln.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		_ = c.Close()
	}
	s.conns = nil
}

// TestAdmissionGateShedsOverload wedges the server's single admission slot
// with a GetShares blocked on a silent peer, then proves that excess calls
// are shed unexecuted with CodeOverloaded, that a shed is never a
// transport failure, and that a retrying client succeeds once the wedge
// clears.
func TestAdmissionGateShedsOverload(t *testing.T) {
	reg := obs.NewRegistry()
	srv := startServer(t, buildAuthority(t, "PLC", 2, 1, 4),
		WithMetrics(reg), WithConfig(ServerConfig{MaxInFlight: 1}))

	// Inject a peer whose registry accepts and never answers: GetShares
	// blocks on its GetRecord, holding the only admission slot.
	silent := newSilentListener(t)
	slow := NewClient(ClientConfig{
		Addr: silent.ln.Addr().String(), CallTimeout: 10 * time.Second,
		MaxAttempts: 1, Registry: reg,
	})
	t.Cleanup(func() { _ = slow.Close() })
	srv.mu.Lock()
	srv.peers["SLOW"] = &peerHandle{
		record: AuthorityRecord{Name: "SLOW", Addr: silent.ln.Addr().String()},
		client: slow,
	}
	srv.mu.Unlock()

	cShares := dialServer(t, srv)
	sharesDone := make(chan error, 1)
	var shares SharesResponse
	go func() {
		sharesDone <- cShares.Call(MethodGetShares, SharesRequest{Policy: "shapley"}, &shares)
	}()
	waitFor(t, "the admission slot to fill", func() bool { return srv.inflight.Load() == 1 })

	pingsBefore := counterValue(reg, "fedshare_sfa_requests_total", MethodPing)

	// A non-retrying client sees the shed as a retriable remote error.
	c2 := NewClient(ClientConfig{Addr: srv.Addr(), MaxAttempts: 1, Registry: reg})
	t.Cleanup(func() { _ = c2.Close() })
	transport, err := c2.call(MethodPing, nil, nil, c2.cfg.MaxAttempts, nil)
	if !IsOverloaded(err) {
		t.Fatalf("call against a full server: err = %v, want overloaded", err)
	}
	if got := c2.Stats().Shed; got != 1 {
		t.Errorf("client shed count = %d, want 1", got)
	}
	if transport {
		t.Error("a shed reported as a transport failure")
	}
	if got := reg.Counter("fedshare_sfa_shed_total", "").Value(); got != 1 {
		t.Errorf("server shed counter = %d, want 1", got)
	}
	// Shed requests are guaranteed unexecuted and do not count as dispatched.
	if got := counterValue(reg, "fedshare_sfa_requests_total", MethodPing); got != pingsBefore {
		t.Errorf("shed ping counted in requests_total (%d -> %d)", pingsBefore, got)
	}

	// A retrying client sheds once, backs off (here: until the wedge truly
	// cleared), and then succeeds — overload is retriable by construction.
	wedgeDone := make(chan struct{})
	c3 := NewClient(ClientConfig{
		Addr: srv.Addr(), MaxAttempts: 2, Registry: reg,
		Sleep: func(time.Duration) { <-wedgeDone },
	})
	t.Cleanup(func() { _ = c3.Close() })
	c3Done := make(chan error, 1)
	var c3Transport bool
	go func() {
		var err error
		c3Transport, err = c3.call(MethodPing, nil, nil, c3.cfg.MaxAttempts, nil)
		c3Done <- err
	}()
	waitFor(t, "the retrying client to be shed", func() bool { return c3.Stats().Shed == 1 })

	// Clear the wedge: the silent peer's connections die, GetShares finishes
	// (degraded, not failed), and the slot frees.
	silent.close()
	if err := <-sharesDone; err != nil {
		t.Fatalf("GetShares blocked on a dead peer must degrade, not fail: %v", err)
	}
	if !shares.Partial || len(shares.Down) != 1 || shares.Down[0] != "SLOW" {
		t.Errorf("shares = partial=%t down=%v, want partial with [SLOW]", shares.Partial, shares.Down)
	}
	close(wedgeDone)
	if err := <-c3Done; err != nil {
		t.Fatalf("retry after shed: %v", err)
	}
	st := c3.Stats()
	if st.Shed != 1 || st.Retries != 1 {
		t.Errorf("retrying client stats = %+v, want 1 shed and 1 retry", st)
	}
	if c3Transport {
		t.Error("retrying client reported a transport failure")
	}
	if got := reg.Counter("fedshare_sfa_shed_total", "").Value(); got != 2 {
		t.Errorf("server shed counter = %d, want 2", got)
	}
}

// --- a silent peer -----------------------------------------------------------

// TestSilentPeerStallBounded sends concurrent share queries to a
// coordinator whose peer accepts connections and never answers, so every
// attempt holds the peer client until its call timeout. The peer's down
// verdict must come after a few attempts, not after each query's retry
// budget, and must stop the queries still waiting for the connection:
// every query returns partial shares within a few timeouts.
func TestSilentPeerStallBounded(t *testing.T) {
	srv := startServer(t, buildAuthority(t, "PLC", 2, 1, 4), WithMetrics(obs.NewRegistry()))
	silent := newSilentListener(t)
	const timeout = 100 * time.Millisecond
	srv.installPeer(AuthorityRecord{Name: "SLOW", Addr: silent.ln.Addr().String()}, NewClient(ClientConfig{
		Addr: silent.ln.Addr().String(), CallTimeout: timeout, Registry: obs.NewRegistry(),
	}))

	const queries = 12
	clients := make([]*Client, queries)
	for i := range clients {
		clients[i] = dialServer(t, srv)
	}
	errs := make(chan error, queries)
	start := time.Now()
	for _, c := range clients {
		go func(c *Client) {
			var shares SharesResponse
			err := c.Call(MethodGetShares, SharesRequest{Policy: "shapley"}, &shares)
			if err == nil && (!shares.Partial || len(shares.Down) != 1 || shares.Down[0] != "SLOW") {
				err = fmt.Errorf("shares partial=%t down=%v, want partial with [SLOW]", shares.Partial, shares.Down)
			}
			errs <- err
		}(c)
	}
	for range clients {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	// Each query spending its budget of 3 attempts would take 36 timeouts.
	if took := time.Since(start); took > 20*timeout {
		silent.mu.Lock()
		attempts := len(silent.conns)
		silent.mu.Unlock()
		t.Errorf("%d share queries took %v against a silent peer (%d attempts), want at most %v",
			queries, took, attempts, 20*timeout)
	}
}

// --- probes ------------------------------------------------------------------

// TestProbeWithRetryingPeerClient probes P2 through a peer client that
// keeps its default retry budget, on a server clock the test drives.
// DownAfter counts the share queries' failed attempts, not the queries;
// while the link is cut, each due probe of the down peer dials exactly
// once; after a heal, the first due probe readmits it with no wall-clock
// wait.
func TestProbeWithRetryingPeerClient(t *testing.T) {
	clock := newFakeClock()
	reg3 := obs.NewRegistry()
	p2 := startServer(t, buildAuthority(t, "P2", 2, 1, 4))
	p3 := startServer(t, buildAuthority(t, "P3", 2, 1, 4), WithMetrics(reg3))
	p2Addr := p2.Addr()
	gate := faultnet.NewPartition()
	var dials atomic.Int64 // dials to P2
	const interval = 50 * time.Millisecond
	srvC := startServer(t, buildAuthority(t, "C", 2, 1, 4), WithMetrics(obs.NewRegistry()),
		WithConfig(ServerConfig{
			Now: clock.Now, LeaseReapInterval: 2 * time.Millisecond, ProbeInterval: interval,
			PeerClient: func(addr string) ClientConfig {
				if addr != p2Addr {
					return ClientConfig{}
				}
				return ClientConfig{DialFunc: func(addr string, timeout time.Duration) (net.Conn, error) {
					dials.Add(1)
					return gate.Dial(addr, timeout)
				}}
			},
		}))
	for _, addr := range []string{p2Addr, p3.Addr()} {
		if err := srvC.PeerWith(addr); err != nil {
			t.Fatal(err)
		}
	}
	c := dialServer(t, srvC)

	// probeRound makes every probe due and waits for P3's ping. The reaper
	// probes peers one at a time in name order, so P2's probe has returned
	// by then. It reports how many times the round dialed P2.
	probeRound := func() int64 {
		t.Helper()
		before := dials.Load()
		want := counterValue(reg3, "fedshare_sfa_requests_total", MethodPing) + 1
		clock.Advance(interval + interval/4)
		waitFor(t, "the probe round to reach P3", func() bool {
			return counterValue(reg3, "fedshare_sfa_requests_total", MethodPing) >= want
		})
		return dials.Load() - before
	}

	// Cut the link and query shares. The first query's first attempt finds
	// the severed connection, which is not counted, since a retry follows
	// on a fresh dial, and its two retries dial and fail. The second
	// query's first attempt dials, takes P2 down at DownAfter (3) failed
	// attempts and stops that query's retries. The third leaves P2 out
	// without calling it.
	gate.Cut()
	for i, want := range []struct {
		dials int64
		state PeerState
	}{{2, PeerSuspect}, {1, PeerDown}, {0, PeerDown}} {
		before := dials.Load()
		var shares SharesResponse
		if err := c.Call(MethodGetShares, SharesRequest{Policy: "shapley"}, &shares); err != nil || !shares.Partial {
			t.Fatalf("shares during the cut: partial %t, err %v; want partial", shares.Partial, err)
		}
		if got := dials.Load() - before; got != want.dials {
			t.Errorf("share query %d dialed P2 %d times, want %d", i+1, got, want.dials)
		}
		if st := srvC.health.state("P2"); st != want.state {
			t.Fatalf("P2 is %s after share query %d, want %s", st, i+1, want.state)
		}
	}
	for i := 1; i <= 3; i++ {
		if n := probeRound(); n != 1 {
			t.Errorf("due probe %d of the cut peer dialed %d times, want 1", i, n)
		}
	}
	if st := srvC.health.state("P2"); st != PeerDown {
		t.Fatalf("P2 is %s while the link is cut, want down", st)
	}

	gate.Heal()
	if n := probeRound(); n != 1 {
		t.Errorf("first due probe after the heal dialed %d times, want 1", n)
	}
	if st := srvC.health.state("P2"); st != PeerHealthy {
		t.Fatalf("P2 is %s after the first due probe past the heal, want healthy", st)
	}
	var shares SharesResponse
	if err := c.Call(MethodGetShares, SharesRequest{Policy: "shapley"}, &shares); err != nil || shares.Partial {
		t.Errorf("shares after readmission: partial %t, err %v; want whole", shares.Partial, err)
	}
}

// TestPeerRestartKeepsPeerHealthy restarts P2 on its address between two
// probes. The coordinator's pooled connection to it is then dead, so the
// next probe's first attempt fails on it, and the retry dials the
// restarted peer, which answers. Even at DownAfter 1 the peer never leaves
// healthy: a failure on a connection an earlier call left open is not
// counted while a retry follows.
func TestPeerRestartKeepsPeerHealthy(t *testing.T) {
	clock := newFakeClock()
	reg, reg3 := obs.NewRegistry(), obs.NewRegistry()
	p2 := startServer(t, buildAuthority(t, "P2", 2, 1, 4))
	p3 := startServer(t, buildAuthority(t, "P3", 2, 1, 4), WithMetrics(reg3))
	const interval = 50 * time.Millisecond
	srvC := startServer(t, buildAuthority(t, "C", 2, 1, 4), WithMetrics(reg),
		WithConfig(ServerConfig{
			Now: clock.Now, LeaseReapInterval: 2 * time.Millisecond, ProbeInterval: interval, DownAfter: 1,
		}))
	for _, addr := range []string{p2.Addr(), p3.Addr()} {
		if err := srvC.PeerWith(addr); err != nil {
			t.Fatal(err)
		}
	}

	addr := p2.Addr()
	_ = p2.Close()
	restarted := NewServer(buildAuthority(t, "P2", 2, 1, 4), testSecret, WithLogger(quietLog))
	if err := restarted.Start(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = restarted.Close() })

	// Make every probe due and wait for P3's ping: the reaper probes peers
	// one at a time in name order, so P2's probe has returned by then.
	want := counterValue(reg3, "fedshare_sfa_requests_total", MethodPing) + 1
	clock.Advance(interval + interval/4)
	waitFor(t, "the probe round to reach P3", func() bool {
		return counterValue(reg3, "fedshare_sfa_requests_total", MethodPing) >= want
	})
	if st := srvC.health.state("P2"); st != PeerHealthy {
		t.Errorf("P2 is %s after a probe past its restart, want healthy", st)
	}
	transitions := reg.CounterVec("fedshare_sfa_peer_transitions_total", "", "peer", "to")
	if n := transitions.With("P2", "suspect").Value(); n != 0 {
		t.Errorf("P2 went suspect %d times across its restart, want 0", n)
	}
}

// --- reconciliation: lost intent ---------------------------------------------

// TestReconcileDropsLostIntent exercises the wipe/restart path: the peer
// loses holdings the coordinator still intends (here: they are released
// behind the coordinator's back), and reconciliation amends intent instead
// of demanding slivers the peer no longer has.
func TestReconcileDropsLostIntent(t *testing.T) {
	clock := newFakeClock()
	regC, reg2 := obs.NewRegistry(), obs.NewRegistry()
	p2 := startServer(t, buildAuthority(t, "P2", 2, 1, 4), WithMetrics(reg2))
	gate := faultnet.NewPartition()
	p2Addr := p2.Addr()
	srvC := startServer(t, buildAuthority(t, "C", 2, 1, 4), WithMetrics(regC),
		WithConfig(ServerConfig{
			Now: clock.Now, LeaseReapInterval: 2 * time.Millisecond,
			ProbeInterval: 50 * time.Millisecond, DownAfter: 1, Seed: 3,
			PeerClient: func(addr string) ClientConfig {
				cc := ClientConfig{Addr: addr, MaxAttempts: 1, Registry: regC}
				if addr == p2Addr {
					cc.DialFunc = gate.Dial
				}
				return cc
			},
		}))
	if err := srvC.PeerWith(p2Addr); err != nil {
		t.Fatal(err)
	}
	c := dialServer(t, srvC)

	var resp SliceResponse
	if err := c.Call(MethodCreateSlice, SliceRequest{
		Credential: userCred(), Name: "lost1", Owner: "x", MinSites: 3,
	}, &resp); err != nil {
		t.Fatal(err)
	}
	var p2Slivers []SliverRecord
	for _, sv := range resp.Slivers {
		if sv.Authority == "P2" {
			p2Slivers = append(p2Slivers, sv)
		}
	}
	if len(p2Slivers) != 2 {
		t.Fatalf("slice holds %d slivers at P2, want 2", len(p2Slivers))
	}

	// The peer "loses" the holdings: release them directly at P2, as if it
	// restarted without its volatile state.
	direct := dialServer(t, p2)
	if err := direct.Call(MethodRelease, ReleaseRequest{
		Credential: IssueCredential(testSecret, "C", "C", time.Minute),
		SliceName:  "lost1", Slivers: p2Slivers,
	}, nil); err != nil {
		t.Fatal(err)
	}

	// Partition the link and let one failed call declare P2 down.
	gate.Cut()
	var shares SharesResponse
	if err := c.Call(MethodGetShares, SharesRequest{Policy: "shapley"}, &shares); err != nil {
		t.Fatalf("degraded shares: %v", err)
	}
	if !shares.Partial {
		t.Error("shares during the cut should carry the partial marker")
	}
	waitFor(t, "P2 to be declared down", func() bool {
		return srvC.health.state("P2") == PeerDown
	})

	// Heal; the probe starts recovery and reconciliation drops the lost
	// intent rather than failing forever on the mismatch.
	gate.Heal()
	clock.Advance(120 * time.Millisecond)
	waitFor(t, "P2 readmission after reconcile", func() bool {
		return srvC.health.state("P2") == PeerHealthy && srvC.recon.depth("P2") == 0
	})
	if got := regC.Counter("fedshare_sfa_reconcile_dropped_intent_total", "").Value(); got != 2 {
		t.Errorf("dropped-intent counter = %d, want 2", got)
	}
	if got := regC.CounterVec("fedshare_sfa_reconcile_runs_total", "", "outcome").With("converged").Value(); got != 1 {
		t.Errorf("converged reconcile runs = %d, want 1", got)
	}

	// Intent was amended: deleting the slice sends P2 no further release.
	releasesBefore := counterValue(reg2, "fedshare_sfa_requests_total", MethodRelease)
	if err := c.Call(MethodDeleteSlice, DeleteRequest{Credential: userCred(), Name: "lost1"}, nil); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(reg2, "fedshare_sfa_requests_total", MethodRelease); got != releasesBefore {
		t.Errorf("delete after amended intent sent %d extra releases to P2", got-releasesBefore)
	}
	// Fresh response struct: Partial/Down are omitempty, so decoding into a
	// reused struct would leave stale values behind.
	var healed SharesResponse
	if err := c.Call(MethodGetShares, SharesRequest{Policy: "shapley"}, &healed); err != nil {
		t.Fatal(err)
	}
	if healed.Partial {
		t.Error("shares after readmission should not be partial")
	}
}

// rewriteResults is a DialFunc whose connections relay frames to the real
// peer and replace the result of every answered call of the method stored
// in rewrite with a count of seven and nothing after it: bytes that decode
// neither as a ReserveResponse nor as an AuthorityRecord, from a peer
// whose transport works.
func rewriteResults(rewrite *atomic.Value) func(addr string, timeout time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		up, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		conn, relay := net.Pipe()
		go func() {
			defer up.Close()
			defer relay.Close()
			// One Write per frame: net.Pipe has no buffer, so each of
			// WriteFrame's writes, empty ones included, waits for a read.
			w := bufio.NewWriter(relay)
			for {
				req, err := ReadFrame(relay)
				if err != nil || WriteFrame(up, req) != nil {
					return
				}
				resp, err := ReadFrame(up)
				if err != nil {
					return
				}
				if req.Method == rewrite.Load() && resp.Error == "" {
					resp.Result = []byte("\x00\x00\x00\x07")
				}
				if WriteFrame(w, resp) != nil || w.Flush() != nil {
					return
				}
			}
		}()
		return conn, nil
	}
}

// TestUndecodableReserveKeepsPeerHealthy checks that a peer answering a
// Reserve with a result that does not decode is alive, not suspect: the
// reserve executed, so it stays queued for its unknown outcome, and the
// next probe drains it, retires the slivers the peer placed and readmits
// the peer with holdings equal to intent. An unreadable record then fails
// a share query as a remote error would, and leaves the peer healthy.
func TestUndecodableReserveKeepsPeerHealthy(t *testing.T) {
	clock := newFakeClock()
	regC := obs.NewRegistry()
	p2 := startServer(t, buildAuthority(t, "P2", 2, 1, 4))
	p2Addr := p2.Addr()
	var rewrite atomic.Value
	rewrite.Store("")
	srvC := startServer(t, buildAuthority(t, "C", 2, 1, 4), WithMetrics(regC),
		WithConfig(ServerConfig{
			Now: clock.Now, LeaseReapInterval: 2 * time.Millisecond,
			ProbeInterval: 50 * time.Millisecond, DownAfter: 2, Seed: 3,
			PeerClient: func(addr string) ClientConfig {
				cc := ClientConfig{Addr: addr, MaxAttempts: 1, Registry: regC}
				if addr == p2Addr {
					cc.DialFunc = rewriteResults(&rewrite)
				}
				return cc
			},
		}))
	if err := srvC.PeerWith(p2Addr); err != nil {
		t.Fatal(err)
	}
	c := dialServer(t, srvC)

	rewrite.Store(MethodReserve)
	var resp SliceResponse
	if err := c.Call(MethodCreateSlice, SliceRequest{
		Credential: userCred(), Name: "s1", Owner: "x", MinSites: 2,
	}, &resp); err != nil {
		t.Fatal(err)
	}
	for _, sv := range resp.Slivers {
		if sv.Authority == "P2" {
			t.Fatalf("slice committed sliver %v at P2, whose reserve result was unreadable", sv)
		}
	}
	if st := srvC.health.state("P2"); st != PeerHealthy {
		t.Fatalf("P2 is %s after answering a Reserve with an undecodable result, want healthy", st)
	}
	if d := srvC.recon.depth("P2"); d != 1 {
		t.Fatalf("P2 backlog %d, want 1: the reserve whose outcome is unknown", d)
	}

	rewrite.Store("")
	converged := regC.CounterVec("fedshare_sfa_reconcile_runs_total", "", "outcome").With("converged")
	clock.Advance(120 * time.Millisecond)
	waitFor(t, "the probe to drain P2 and readmit it", func() bool {
		return converged.Value() == 1 && srvC.health.state("P2") == PeerHealthy && srvC.recon.depth("P2") == 0
	})
	if got := regC.Counter("fedshare_sfa_reconcile_retired_total", "").Value(); got != 2 {
		t.Errorf("retired %d orphan slivers at P2, want the 2 its reserve placed", got)
	}
	srvC.mu.Lock()
	ph := srvC.peers["P2"]
	srvC.mu.Unlock()
	held, err := srvC.fetchHoldings(ph, IssueCredential(testSecret, "C", "C", time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if orphans, lost := diffHoldings(held, srvC.remoteIntent("P2")); len(orphans) > 0 || len(lost) > 0 {
		t.Errorf("after readmission P2 holds %v beyond intent and lacks %v", orphans, lost)
	}

	rewrite.Store(MethodGetRecord)
	var shares SharesResponse
	err = c.Call(MethodGetShares, SharesRequest{Policy: "shapley"}, &shares)
	if err == nil || !strings.Contains(err.Error(), "get record at P2") || !strings.Contains(err.Error(), "decode") {
		t.Fatalf("shares over an unreadable P2 record: %v (partial %v, down %v), want the decode error", err, shares.Partial, shares.Down)
	}
	if st := srvC.health.state("P2"); st != PeerHealthy {
		t.Errorf("P2 is %s after answering GetRecord with an undecodable record, want healthy", st)
	}
}

// --- partition/heal chaos ----------------------------------------------------

// runPartitionChaos drives a three-authority federation (coordinator C,
// peers P1 and P2) through a seeded schedule of partition windows on the
// C→P2 link, asserting after every heal that reconciliation converges, and
// at the end that the exactly-once identity holds at the partitioned peer
// and all capacity returns. The returned transcript is a pure function of
// the seed; the caller compares two runs for byte equality.
func runPartitionChaos(t *testing.T, seed uint64) string {
	clock := newFakeClock()
	regC, reg1, reg2 := obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()
	authC := buildAuthority(t, "C", 2, 1, 8)
	auth1 := buildAuthority(t, "P1", 3, 1, 8)
	auth2 := buildAuthority(t, "P2", 3, 1, 8)
	p1 := startServer(t, auth1, WithMetrics(reg1))
	p2 := startServer(t, auth2, WithMetrics(reg2))
	gate := faultnet.NewPartition()
	p2Addr := p2.Addr()
	srvC := startServer(t, authC, WithMetrics(regC), WithConfig(ServerConfig{
		Now: clock.Now, LeaseReapInterval: 2 * time.Millisecond,
		ProbeInterval: 50 * time.Millisecond, DownAfter: 2, Seed: seed,
		PeerClient: func(addr string) ClientConfig {
			cc := ClientConfig{Addr: addr, MaxAttempts: 1, Registry: regC}
			if addr == p2Addr {
				cc.DialFunc = gate.Dial
			}
			return cc
		},
	}))
	if err := srvC.PeerWith(p1.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := srvC.PeerWith(p2Addr); err != nil {
		t.Fatal(err)
	}
	c := dialServer(t, srvC)

	// Populate the advertisement cache while everything is healthy, so
	// degraded-mode shares can price the full game later.
	var shares SharesResponse
	if err := c.Call(MethodGetShares, SharesRequest{Policy: "shapley"}, &shares); err != nil {
		t.Fatal(err)
	}
	if shares.Partial {
		t.Fatal("healthy federation reported partial shares")
	}

	var b strings.Builder
	plan := faultnet.DrawPartitionPlan(seed, faultnet.PartitionPlanConfig{})
	fmt.Fprintf(&b, "plan=%v\n", plan)

	type sliceInfo struct {
		name  string
		hasP2 bool
	}
	var live []sliceInfo
	var expReserve, expRelease, expRetire int64 // expected executions at P2
	opIdx := 0
	// One op = create a fresh slice and delete the one from two ops ago, so
	// slices created before a cut are deleted during it (exercising queued
	// releases) and vice versa.
	op := func() {
		state := srvC.health.state("P2")
		// A key for P2 is drawn only when it is not down/recovering; every
		// drawn key executes exactly once (directly or via replay).
		keyed := state != PeerDown && state != PeerRecovering
		name := fmt.Sprintf("part%03d", opIdx)
		var resp SliceResponse
		if err := c.Call(MethodCreateSlice, SliceRequest{
			Credential: userCred(), Name: name, Owner: "chaos", MinSites: 1,
		}, &resp); err != nil {
			t.Fatalf("op %d: create %s: %v", opIdx, name, err)
		}
		hasP2 := false
		for _, sv := range resp.Slivers {
			if sv.Authority == "P2" {
				hasP2 = true
				break
			}
		}
		if keyed {
			expReserve++
			if !hasP2 {
				// The keyed reserve failed in transit: its replay will place
				// slivers the committed slice does not reference, and the
				// reconciler retires them with one fresh-keyed release.
				expRetire++
			}
		}
		fmt.Fprintf(&b, "op%03d state=%s keyed=%t sites=%d hasP2=%t\n",
			opIdx, state, keyed, resp.Sites, hasP2)
		live = append(live, sliceInfo{name, hasP2})
		opIdx++
		if len(live) > 2 {
			old := live[0]
			live = live[1:]
			if err := c.Call(MethodDeleteSlice, DeleteRequest{Credential: userCred(), Name: old.name}, nil); err != nil {
				t.Fatalf("op %d: delete %s: %v", opIdx, old.name, err)
			}
			if old.hasP2 {
				expRelease++
			}
		}
	}

	for wi, w := range plan {
		for j := 0; j < w.UpOps; j++ {
			op()
		}
		gate.Cut()
		fmt.Fprintf(&b, "w%d:cut\n", wi)
		for j := 0; j < w.DownOps; j++ {
			op()
		}
		if srvC.health.state("P2") == PeerDown {
			// Degraded mode: shares succeed over the live sub-federation and
			// carry the partial marker while the peer is out. Fresh response
			// struct every time — Partial/Down are omitempty and would
			// otherwise keep stale values across decodes.
			var shares SharesResponse
			if err := c.Call(MethodGetShares, SharesRequest{Policy: "shapley"}, &shares); err != nil {
				t.Fatalf("window %d: degraded shares: %v", wi, err)
			}
			if !shares.Partial || !reflect.DeepEqual(shares.Down, []string{"P2"}) {
				t.Fatalf("window %d: shares = partial=%t down=%v, want partial with [P2]",
					wi, shares.Partial, shares.Down)
			}
			if _, ok := shares.Shares["P2"]; ok {
				t.Fatalf("window %d: down peer received a share", wi)
			}
			fmt.Fprintf(&b, "w%d:partial down=%v\n", wi, shares.Down)
		}
		gate.Heal()
		// Advance past the probe deadline (interval + max jitter); the next
		// reaper tick probes P2, starts recovery, and reconciles inline.
		clock.Advance(120 * time.Millisecond)
		waitFor(t, fmt.Sprintf("window %d reconciliation", wi), func() bool {
			return srvC.health.state("P2") == PeerHealthy && srvC.recon.depth("P2") == 0
		})
		fmt.Fprintf(&b, "w%d:healed\n", wi)
	}

	// Drain the survivors while healthy and verify all capacity returned.
	for _, s := range live {
		if err := c.Call(MethodDeleteSlice, DeleteRequest{Credential: userCred(), Name: s.name}, nil); err != nil {
			t.Fatalf("final delete %s: %v", s.name, err)
		}
		if s.hasP2 {
			expRelease++
		}
	}
	if got := authC.Utilization(); got != 0 {
		t.Errorf("C utilization after drain = %g, want 0", got)
	}
	if got := auth1.Utilization(); got != 0 {
		t.Errorf("P1 utilization after drain = %g, want 0", got)
	}
	if got := auth2.Utilization(); got != 0 {
		t.Errorf("P2 utilization after drain = %g, want 0 (orphans must be retired)", got)
	}

	// Exactly-once at the partitioned peer: executions (dispatched minus
	// dedup replays) equal the keys the coordinator drew — every queued
	// operation ran once, no more, despite replays.
	resExec := counterValue(reg2, "fedshare_sfa_requests_total", MethodReserve) -
		counterValue(reg2, "fedshare_sfa_dedup_replays_total", MethodReserve)
	relExec := counterValue(reg2, "fedshare_sfa_requests_total", MethodRelease) -
		counterValue(reg2, "fedshare_sfa_dedup_replays_total", MethodRelease)
	if resExec != expReserve {
		t.Errorf("P2 reserve executions = %d, want %d", resExec, expReserve)
	}
	if relExec != expRelease+expRetire {
		t.Errorf("P2 release executions = %d, want %d (%d releases + %d retires)",
			relExec, expRelease+expRetire, expRelease, expRetire)
	}
	runs := regC.CounterVec("fedshare_sfa_reconcile_runs_total", "", "outcome")
	if got := runs.With("converged").Value(); got != int64(len(plan)) {
		t.Errorf("converged reconcile runs = %d, want %d", got, len(plan))
	}
	if got := runs.With("failed").Value(); got != 0 {
		t.Errorf("failed reconcile runs = %d, want 0", got)
	}

	// Fully healed: shares cover the whole federation again.
	var final SharesResponse
	if err := c.Call(MethodGetShares, SharesRequest{Policy: "shapley"}, &final); err != nil {
		t.Fatal(err)
	}
	if final.Partial || len(final.Shares) != 3 {
		t.Errorf("final shares = partial=%t n=%d, want full federation", final.Partial, len(final.Shares))
	}

	fmt.Fprintf(&b, "events=%v\n", gate.Events())
	fmt.Fprintf(&b, "exec reserve=%d release=%d retire=%d\n", resExec, relExec-expRetire, expRetire)
	return b.String()
}

// TestPartitionHealConvergence is the partition/heal chaos suite: the same
// seed must drive byte-identical schedules and outcomes, every window must
// reconcile to convergence, and the partitioned peer must observe each
// reservation and release exactly once.
func TestPartitionHealConvergence(t *testing.T) {
	seed := chaosSeed(t)
	first := runPartitionChaos(t, seed)
	second := runPartitionChaos(t, seed)
	if first != second {
		t.Errorf("same seed produced different runs:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	t.Logf("partition chaos transcript (seed %d):\n%s", seed, first)
}
