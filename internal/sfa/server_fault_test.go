package sfa

import (
	"io"
	"sync"
	"testing"
	"time"

	"fedshare/internal/obs"
)

// fakeClock is an injectable lease clock: the reaper still ticks on the wall
// clock, but judges expiry against this simulated time.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// hasSlice reports whether srv's durable state holds the named slice.
func hasSlice(srv *Server, name string) bool {
	srv.st.mu.Lock()
	defer srv.st.mu.Unlock()
	return srv.st.slices[name] != nil
}

// leaseServer starts a server with a fast reaper on a simulated clock.
func leaseServer(t *testing.T, sites, nodes, capacity int) (*Server, *obs.Registry, *fakeClock) {
	t.Helper()
	clock := newFakeClock()
	reg := obs.NewRegistry()
	srv := startServer(t, buildAuthority(t, "PLC", sites, nodes, capacity),
		WithMetrics(reg),
		WithConfig(ServerConfig{LeaseReapInterval: 2 * time.Millisecond, Now: clock.Now}))
	return srv, reg, clock
}

func TestIdleReadDeadlineConfigurable(t *testing.T) {
	srv := startServer(t, buildAuthority(t, "PLC", 1, 1, 1),
		WithMetrics(obs.NewRegistry()),
		WithConfig(ServerConfig{IdleReadDeadline: 50 * time.Millisecond}))
	conn, err := netDial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing: the server must drop us at the configured deadline, far
	// sooner than the 2-minute default.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	start := time.Now()
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read = %v, want EOF from idle drop", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("idle drop took %v; configured deadline was 50ms", elapsed)
	}
}

func TestReserveIdempotencyReplaysResponse(t *testing.T) {
	srv, reg, _ := leaseServer(t, 1, 1, 4)
	c := dialServer(t, srv)
	req := ReserveRequest{
		Credential: userCred(), SliceName: "s1", Sites: 1, PerSite: 2,
		IdempotencyKey: "coord/s1@PLC",
	}
	var first, second ReserveResponse
	if err := c.Call(MethodReserve, req, &first); err != nil {
		t.Fatal(err)
	}
	if len(first.Slivers) != 2 {
		t.Fatalf("first reserve placed %d slivers, want 2", len(first.Slivers))
	}
	// The retry replays the original response instead of double-booking.
	if err := c.Call(MethodReserve, req, &second); err != nil {
		t.Fatal(err)
	}
	if len(second.Slivers) != 2 ||
		second.Slivers[0] != first.Slivers[0] || second.Slivers[1] != first.Slivers[1] {
		t.Errorf("replayed response %+v differs from original %+v", second, first)
	}
	if got := counterValue(reg, "fedshare_sfa_dedup_replays_total", MethodReserve); got != 1 {
		t.Errorf("dedup replay counter = %d, want 1", got)
	}
	// Only 2 of 4 slots are used: the retry reserved nothing new.
	if util := srv.auth.Utilization(); util != 0.5 {
		t.Errorf("utilization = %g, want 0.5", util)
	}
}

func TestReleaseIdempotencyProtectsAccounting(t *testing.T) {
	srv, reg, _ := leaseServer(t, 1, 1, 4)
	c := dialServer(t, srv)
	var r1, r2 ReserveResponse
	if err := c.Call(MethodReserve, ReserveRequest{
		Credential: userCred(), SliceName: "a", Sites: 1, PerSite: 2,
	}, &r1); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(MethodReserve, ReserveRequest{
		Credential: userCred(), SliceName: "b", Sites: 1, PerSite: 2,
	}, &r2); err != nil {
		t.Fatal(err)
	}
	rel := ReleaseRequest{
		Credential: userCred(), SliceName: "a", Slivers: r1.Slivers,
		IdempotencyKey: "coord/a@PLC/release",
	}
	// A release retried after a lost response must not decrement twice —
	// without the key, slice b's capacity accounting would be corrupted.
	for i := 0; i < 2; i++ {
		if err := c.Call(MethodRelease, rel, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := counterValue(reg, "fedshare_sfa_dedup_replays_total", MethodRelease); got != 1 {
		t.Errorf("release dedup replay counter = %d, want 1", got)
	}
	if util := srv.auth.Utilization(); util != 0.5 {
		t.Errorf("utilization = %g, want 0.5 (slice b intact)", util)
	}
}

func TestDedupTableBounded(t *testing.T) {
	srv, _, _ := leaseServer(t, 4, 1, 8)
	srv.st.mu.Lock()
	srv.st.capacity = 2 // shrink after start for the test
	srv.st.mu.Unlock()
	c := dialServer(t, srv)
	for _, key := range []string{"k1", "k2", "k3", "k4"} {
		if err := c.Call(MethodReserve, ReserveRequest{
			Credential: userCred(), SliceName: "s-" + key, Sites: 1, PerSite: 1,
			IdempotencyKey: key,
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	srv.st.mu.Lock()
	got := len(srv.st.window)
	srv.st.mu.Unlock()
	if got > 2 {
		t.Errorf("dedup table holds %d completed keys, cap is 2", got)
	}
	// An evicted key no longer replays: the request executes again. That is
	// the documented trade-off of a bounded table.
	var rr ReserveResponse
	if err := c.Call(MethodReserve, ReserveRequest{
		Credential: userCred(), SliceName: "s-k1b", Sites: 1, PerSite: 1,
		IdempotencyKey: "k1",
	}, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Slivers) != 1 {
		t.Errorf("re-executed reserve placed %d slivers, want 1", len(rr.Slivers))
	}
}

func TestLeaseExpiryReapsSlivers(t *testing.T) {
	srv, reg, clock := leaseServer(t, 1, 1, 4)
	c := dialServer(t, srv)
	if err := c.Call(MethodReserve, ReserveRequest{
		Credential: userCred(), SliceName: "leased", Sites: 1, PerSite: 2,
		TTLSeconds: 10,
	}, nil); err != nil {
		t.Fatal(err)
	}
	active := reg.Gauge("fedshare_sfa_leases_active", "")
	if active.Value() != 1 {
		t.Fatalf("leases_active = %g, want 1", active.Value())
	}
	if srv.auth.Utilization() != 0.5 {
		t.Fatalf("utilization = %g before expiry", srv.auth.Utilization())
	}
	clock.Advance(11 * time.Second)
	expired := reg.Counter("fedshare_sfa_leases_expired_total", "")
	waitFor(t, "lease reaper", func() bool {
		return expired.Value() == 1 && active.Value() == 0 && srv.auth.Utilization() == 0
	})
}

func TestExplicitReleaseCancelsLease(t *testing.T) {
	srv, reg, clock := leaseServer(t, 1, 1, 4)
	c := dialServer(t, srv)
	var rr ReserveResponse
	if err := c.Call(MethodReserve, ReserveRequest{
		Credential: userCred(), SliceName: "early", Sites: 1, PerSite: 2,
		TTLSeconds: 10,
	}, &rr); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(MethodRelease, ReleaseRequest{
		Credential: userCred(), SliceName: "early", Slivers: rr.Slivers,
	}, nil); err != nil {
		t.Fatal(err)
	}
	if srv.auth.Utilization() != 0 {
		t.Fatalf("utilization = %g after release", srv.auth.Utilization())
	}
	// Reserve a second slice, then let the clock pass the first lease's
	// expiry: the settled lease must not fire and steal slice two's slivers.
	if err := c.Call(MethodReserve, ReserveRequest{
		Credential: userCred(), SliceName: "later", Sites: 1, PerSite: 2,
	}, nil); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute)
	time.Sleep(20 * time.Millisecond) // several reaper ticks
	if got := reg.Counter("fedshare_sfa_leases_expired_total", "").Value(); got != 0 {
		t.Errorf("leases_expired = %d, want 0 (lease was settled by release)", got)
	}
	if util := srv.auth.Utilization(); util != 0.5 {
		t.Errorf("utilization = %g, want 0.5 (slice two intact)", util)
	}
}

func TestSliceTTLExpiresAcrossFederation(t *testing.T) {
	clock := newFakeClock()
	reg := obs.NewRegistry()
	servers := federate(t, map[string][3]int{
		"PLC": {2, 1, 2}, "PLE": {2, 1, 2},
	}, WithMetrics(reg), WithConfig(ServerConfig{
		LeaseReapInterval: 2 * time.Millisecond, Now: clock.Now,
	}))
	c := dialServer(t, servers["PLC"])
	var resp SliceResponse
	if err := c.Call(MethodCreateSlice, SliceRequest{
		Credential: userCred(), Name: "exp", Owner: "alice", MinSites: 3,
		TTLSeconds: 30,
	}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Sites < 3 {
		t.Fatalf("slice spans %d sites, want >= 3", resp.Sites)
	}
	clock.Advance(31 * time.Second)
	waitFor(t, "federated slice expiry", func() bool {
		return !hasSlice(servers["PLC"], "exp") &&
			servers["PLC"].auth.Utilization() == 0 &&
			servers["PLE"].auth.Utilization() == 0
	})
}

func TestIdempotencyKeysNamespacedByMethod(t *testing.T) {
	srv, reg, _ := leaseServer(t, 1, 1, 4)
	c := dialServer(t, srv)
	var rr ReserveResponse
	if err := c.Call(MethodReserve, ReserveRequest{
		Credential: userCred(), SliceName: "s", Sites: 1, PerSite: 2,
		IdempotencyKey: "shared-key",
	}, &rr); err != nil {
		t.Fatal(err)
	}
	// The same key on Release must execute the release, not replay the
	// cached reserve outcome as a silent empty success.
	if err := c.Call(MethodRelease, ReleaseRequest{
		Credential: userCred(), SliceName: "s", Slivers: rr.Slivers,
		IdempotencyKey: "shared-key",
	}, nil); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(reg, "fedshare_sfa_dedup_replays_total", MethodRelease); got != 0 {
		t.Errorf("release replays = %d, want 0 (keys are namespaced per method)", got)
	}
	if util := srv.auth.Utilization(); util != 0 {
		t.Errorf("utilization = %g after release, want 0", util)
	}
}

func TestLateReleaseAfterLeaseExpiryDoesNotDoubleFree(t *testing.T) {
	srv, reg, clock := leaseServer(t, 1, 1, 4)
	c := dialServer(t, srv)
	// Two slices on the same node: "leased" expires via TTL, "pinned" stays.
	var leased ReserveResponse
	if err := c.Call(MethodReserve, ReserveRequest{
		Credential: userCred(), SliceName: "leased", Sites: 1, PerSite: 2,
		TTLSeconds: 5,
	}, &leased); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(MethodReserve, ReserveRequest{
		Credential: userCred(), SliceName: "pinned", Sites: 1, PerSite: 2,
	}, nil); err != nil {
		t.Fatal(err)
	}
	clock.Advance(6 * time.Second)
	expired := reg.Counter("fedshare_sfa_leases_expired_total", "")
	waitFor(t, "lease reaper", func() bool { return expired.Value() == 1 })
	// The holder's release lands after the reaper already freed the lease:
	// it must release nothing, or node load would be decremented twice and
	// "pinned"'s capacity would leak to later reservations.
	if err := c.Call(MethodRelease, ReleaseRequest{
		Credential: userCred(), SliceName: "leased", Slivers: leased.Slivers,
	}, nil); err != nil {
		t.Fatal(err)
	}
	if util := srv.auth.Utilization(); util != 0.5 {
		t.Errorf("utilization = %g, want 0.5 (pinned slice intact)", util)
	}
}

func TestSliceRecreateAfterDeleteReReservesAtPeers(t *testing.T) {
	clock := newFakeClock()
	reg := obs.NewRegistry()
	servers := federate(t, map[string][3]int{
		"PLC": {1, 1, 2}, "PLE": {2, 1, 2},
	}, WithMetrics(reg), WithConfig(ServerConfig{
		LeaseReapInterval: 2 * time.Millisecond, Now: clock.Now,
	}))
	c := dialServer(t, servers["PLC"])
	// Two full lifecycles of the same slice name. The second CreateSlice
	// must re-execute its reservation at the peer under a fresh idempotency
	// generation — replaying the first lifecycle's cached response would
	// record slivers that were never re-reserved.
	for cycle := 0; cycle < 2; cycle++ {
		var resp SliceResponse
		if err := c.Call(MethodCreateSlice, SliceRequest{
			Credential: userCred(), Name: "re", Owner: "alice", MinSites: 3,
		}, &resp); err != nil {
			t.Fatalf("cycle %d create: %v", cycle, err)
		}
		if resp.Sites < 3 {
			t.Fatalf("cycle %d: slice spans %d sites, want >= 3", cycle, resp.Sites)
		}
		if util := servers["PLE"].auth.Utilization(); util == 0 {
			t.Fatalf("cycle %d: peer utilization is 0; reservation was replayed, not executed", cycle)
		}
		if err := c.Call(MethodDeleteSlice, DeleteRequest{
			Credential: userCred(), Name: "re",
		}, nil); err != nil {
			t.Fatalf("cycle %d delete: %v", cycle, err)
		}
	}
	if got := counterValue(reg, "fedshare_sfa_dedup_replays_total", MethodReserve); got != 0 {
		t.Errorf("reserve replays = %d, want 0 (each lifecycle keys its own reservation)", got)
	}
	for name, srv := range servers {
		if util := srv.auth.Utilization(); util != 0 {
			t.Errorf("%s utilization = %g after both lifecycles deleted, want 0", name, util)
		}
	}
}

func TestDrainStopsAcceptingAndFinishesCleanly(t *testing.T) {
	srv := startServer(t, buildAuthority(t, "PLC", 1, 1, 1),
		WithMetrics(obs.NewRegistry()),
		WithConfig(ServerConfig{IdleReadDeadline: 10 * time.Second}))
	c := dialServer(t, srv)
	if err := c.Call(MethodPing, nil, nil); err != nil {
		t.Fatal(err)
	}
	if srv.Draining() {
		t.Fatal("server draining before Drain")
	}
	done := make(chan struct{})
	go func() {
		srv.Drain()
		close(done)
	}()
	// Drain must return promptly even though the client connection sat idle
	// under a 10s read deadline: draining wakes idle reads immediately.
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Drain did not return; idle connections not woken")
	}
	if !srv.Draining() {
		t.Error("Draining() = false after Drain")
	}
	// New connections are refused (listener closed)...
	if _, err := Dial(srv.Addr(), 200*time.Millisecond); err == nil {
		t.Error("dial after Drain should fail")
	}
	// ...and the drained server's existing client cannot reach it either.
	if err := c.Call(MethodPing, nil, nil); err == nil {
		t.Error("call after Drain should fail")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close after Drain: %v", err)
	}
}

func TestDrainConcurrentWithTraffic(t *testing.T) {
	srv := startServer(t, buildAuthority(t, "PLC", 2, 2, 4),
		WithMetrics(obs.NewRegistry()))
	const workers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient(ClientConfig{
				Addr: srv.Addr(), MaxAttempts: 1,
				CallTimeout: time.Second, Registry: obs.NewRegistry(),
			})
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Once draining starts these calls fail with transport
				// errors; they must never hang or panic.
				_ = c.Call(MethodPing, nil, nil)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	srv.Drain()
	close(stop)
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Errorf("Close after Drain: %v", err)
	}
}
