package sfa

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fedshare/internal/faultnet"
	"fedshare/internal/obs"
	"fedshare/internal/wal"
)

// snapshotState serializes srv's durable state under the state lock, the
// witness the recovery tests compare.
func (s *Server) snapshotState() State {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	return s.st.snapshot()
}

// durableServer builds a server backed by a WAL store in dir, without
// starting the network listener: handlers are driven directly so request
// order is deterministic. The returned store is the one the server writes
// through; crash it with store.log.Close() to simulate kill -9 (no final
// snapshot, no graceful close). opts apply after the defaults.
func durableServer(t *testing.T, dir string, snapshotEvery int, clock *fakeClock, opts ...Option) (*Server, *DurableStore, *State) {
	t.Helper()
	store, st, err := OpenDurableStore(DurableOptions{
		Dir: dir, SnapshotEvery: snapshotEvery, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("open durable store: %v", err)
	}
	srv := NewServer(buildAuthority(t, "DUR", 4, 2, 4), testSecret, append([]Option{
		WithLogger(quietLog),
		WithStore(store),
		WithMetrics(obs.NewRegistry()),
		WithConfig(ServerConfig{Now: clock.Now}),
	}, opts...)...)
	t.Cleanup(func() { _ = srv.Close() })
	return srv, store, st
}

// driveLifecycle runs one deterministic mixed workload — keyed and unkeyed
// reserves, duplicate replays, partial and full releases, slice creation
// and deletion, and lease expiry via the reaper — against srv. The same
// sequence applied to two servers with the same topology and clock must
// leave them in identical durable state.
func driveLifecycle(t *testing.T, srv *Server, clock *fakeClock) {
	t.Helper()
	reserve := func(slice, key string, sites, per int, ttl float64) *ReserveResponse {
		t.Helper()
		resp, err := srv.handleReserve(ReserveRequest{
			Credential: userCred(), SliceName: slice, Sites: sites, PerSite: per,
			IdempotencyKey: key, TTLSeconds: ttl,
		})
		if err != nil {
			t.Fatalf("reserve %s (key %q): %v", slice, key, err)
		}
		return resp
	}
	r1 := reserve("web", "k1", 2, 1, 30)
	if len(r1.Slivers) != 2 {
		t.Fatalf("web reserve placed %d slivers, want 2", len(r1.Slivers))
	}
	reserve("web", "k2", 1, 1, 0) // merge: indefinite expiry dominates
	dup := reserve("web", "k1", 2, 1, 30)
	if !reflect.DeepEqual(dup, r1) {
		t.Fatalf("duplicate k1 = %+v, want replay of %+v", dup, r1)
	}
	reserve("db", "k3", 1, 2, 10)

	if _, err := srv.handleRelease(ReleaseRequest{
		Credential: userCred(), SliceName: "web", Slivers: r1.Slivers[:1],
		IdempotencyKey: "rk1",
	}); err != nil {
		t.Fatalf("release: %v", err)
	}

	create := func(name string, min int, ttl float64) {
		t.Helper()
		if _, err := srv.handleCreateSlice(SliceRequest{
			Credential: userCred(), Name: name, Owner: "tester",
			MinSites: min, SliversPerSite: 1, TTLSeconds: ttl,
		}); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
	}
	create("big", 2, 60)
	create("tmp", 1, 5)

	clock.Advance(12 * time.Second) // expires db (TTL 10) and tmp (TTL 5)
	srv.reapExpiredLeases()

	if _, err := srv.handleDeleteSlice(DeleteRequest{Credential: userCred(), Name: "big"}); err != nil {
		t.Fatalf("delete big: %v", err)
	}
	reserve("cache", "k4", 1, 1, 100)
	reserve("cache", "", 1, 1, 0) // unkeyed merge
}

// TestRecoveryEquivalence is the central durability contract: a server
// recovered from its WAL (after a crash that skipped the final snapshot)
// holds exactly the state of a memory-only twin that executed the same
// request sequence and never crashed. Runs with snapshots disabled (pure
// log replay), cutting every 3 appends (snapshot + suffix replay), and
// every append (pure snapshot load).
func TestRecoveryEquivalence(t *testing.T) {
	for _, every := range []int{-1, 3, 1} {
		t.Run(fmt.Sprintf("snapshotEvery=%d", every), func(t *testing.T) {
			clock := newFakeClock()
			dir := t.TempDir()
			srv, store, st := durableServer(t, dir, every, clock)
			if st != nil {
				t.Fatalf("fresh directory recovered non-nil state: %+v", st)
			}
			mem := NewServer(buildAuthority(t, "DUR", 4, 2, 4), testSecret,
				WithLogger(quietLog), WithMetrics(obs.NewRegistry()),
				WithConfig(ServerConfig{Now: clock.Now}))

			// The same clock drives both, so expiries are byte-identical.
			driveLifecycle(t, srv, clock)
			clock.mu.Lock()
			clock.t = time.Unix(1_000_000, 0) // rewind for the twin
			clock.mu.Unlock()
			driveLifecycle(t, mem, clock)

			want := mem.snapshotState()
			if got := srv.snapshotState(); !reflect.DeepEqual(got, want) {
				t.Fatalf("durable server diverged from memory twin before crash:\n got %+v\nwant %+v", got, want)
			}

			// Crash: close the log file handles without the final snapshot,
			// then recover into a fresh server.
			_ = store.log.Close()
			rec, store2, rst := durableServer(t, dir, every, clock)
			defer store2.Close()
			if rst == nil {
				t.Fatal("recovery returned nil state for a populated directory")
			}
			if err := rec.Restore(rst); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if got := rec.snapshotState(); !reflect.DeepEqual(got, want) {
				t.Errorf("recovered state differs from never-crashed twin:\n got %+v\nwant %+v", got, want)
			}
			if got, want := rec.auth.Utilization(), mem.auth.Utilization(); got != want {
				t.Errorf("recovered utilization = %g, want %g", got, want)
			}

			// The recovered server must replay cached outcomes for old keys…
			r1, err := rec.handleReserve(ReserveRequest{
				Credential: userCred(), SliceName: "web", Sites: 2, PerSite: 1,
				IdempotencyKey: "k1", TTLSeconds: 30,
			})
			if err != nil {
				t.Fatalf("replay k1 after recovery: %v", err)
			}
			if n := counterValue(rec.obsreg, "fedshare_sfa_dedup_replays_total", MethodReserve); n != 1 {
				t.Errorf("k1 after recovery executed instead of replaying (replays = %d)", n)
			}
			if len(r1.Slivers) != 2 {
				t.Errorf("replayed k1 returned %d slivers, want the original 2", len(r1.Slivers))
			}
			// …and keep serving new work.
			if _, err := rec.handleReserve(ReserveRequest{
				Credential: userCred(), SliceName: "fresh", Sites: 1, PerSite: 1,
				IdempotencyKey: "k-new",
			}); err != nil {
				t.Errorf("new reserve after recovery: %v", err)
			}
		})
	}
	t.Run("peered", recoverPeeredCoordinator)
}

// recoverPeeredCoordinator is TestRecoveryEquivalence's peered case: a
// started durable coordinator, peered with one started peer, embeds slices
// across the peer, deletes one, lets a TTL slice with remote slivers
// expire, amends intent, and reserves and releases locally — every record
// op. Recovered from its log alone, it must equal its own pre-crash state.
func recoverPeeredCoordinator(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	// An hour-long reaper tick keeps the reaper and probes out of the way;
	// the test reaps by hand.
	cfg := WithConfig(ServerConfig{Now: clock.Now, LeaseReapInterval: time.Hour})
	peer := startServer(t, buildAuthority(t, "PEER", 2, 1, 4), WithMetrics(obs.NewRegistry()), cfg)
	srv, store, _ := durableServer(t, dir, -1, clock, cfg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.PeerWith(peer.Addr()); err != nil {
		t.Fatal(err)
	}
	create := func(name string, ttl float64) []SliverRecord {
		t.Helper()
		// Four local sites cannot meet min_sites 5: the peer must join.
		resp, err := srv.handleCreateSlice(SliceRequest{
			Credential: userCred(), Name: name, Owner: "tester",
			MinSites: 5, SliversPerSite: 1, TTLSeconds: ttl,
		})
		if err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		var remote []SliverRecord
		for _, sv := range resp.Slivers {
			if sv.Authority == "PEER" {
				remote = append(remote, sv)
			}
		}
		if len(remote) == 0 {
			t.Fatalf("slice %s holds no slivers at the peer", name)
		}
		return remote
	}
	remoteA := create("a", 0)
	create("b", 0)
	if _, err := srv.handleDeleteSlice(DeleteRequest{Credential: userCred(), Name: "b"}); err != nil {
		t.Fatalf("delete b: %v", err)
	}
	create("t", 5)
	clock.Advance(6 * time.Second)
	if n := srv.reapExpiredLeases(); n != 1 {
		t.Fatalf("reaper expired %d leases, want the TTL slice", n)
	}
	if hasSlice(srv, "t") {
		t.Fatal("expired slice t still present")
	}
	rr, err := srv.handleReserve(ReserveRequest{
		Credential: userCred(), SliceName: "r", Sites: 1, PerSite: 1, IdempotencyKey: "rk",
	})
	if err != nil {
		t.Fatalf("reserve: %v", err)
	}
	if _, err := srv.handleRelease(ReleaseRequest{
		Credential: userCred(), SliceName: "r", Slivers: rr.Slivers, IdempotencyKey: "rk",
	}); err != nil {
		t.Fatalf("release: %v", err)
	}
	srv.amendIntent("PEER", map[string][]SliverRecord{"a": remoteA[:1]})

	want := srv.snapshotState()
	util := srv.auth.Utilization()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	_ = store.log.Close() // crash: no final snapshot

	rec, store2, rst := durableServer(t, dir, -1, clock, cfg)
	defer store2.Close()
	if rst == nil {
		t.Fatal("recovery returned nil state for a populated directory")
	}
	ops := map[string]bool{}
	for _, r := range rst.log {
		ops[r.Op] = true
	}
	for _, op := range []string{OpReserve, OpRelease, OpCreateSlice, OpDeleteSlice, OpExpire, OpGen, OpAmendRemote} {
		if !ops[op] {
			t.Errorf("recovered log holds no %s record", op)
		}
	}
	if err := rec.Restore(rst); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := rec.snapshotState(); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered coordinator differs from its pre-crash state:\n got %+v\nwant %+v", got, want)
	}
	if got := rec.auth.Utilization(); got != util {
		t.Errorf("recovered utilization = %g, want %g", got, util)
	}
}

// TestRecoveryDedupWindow: the recovered idempotency window is the live
// one — the newest DedupCapacity outcomes, in log order — whether recovery
// replays the whole log or loads a snapshot and replays the suffix, so a
// retry of the newest key replays after a crash.
func TestRecoveryDedupWindow(t *testing.T) {
	for _, every := range []int{-1, 3} {
		t.Run(fmt.Sprintf("snapshotEvery=%d", every), func(t *testing.T) {
			clock := newFakeClock()
			dir := t.TempDir()
			cfg := WithConfig(ServerConfig{Now: clock.Now, DedupCapacity: 4})
			srv, store, _ := durableServer(t, dir, every, clock, cfg)
			for i := 9; i >= 0; i-- {
				key := fmt.Sprintf("s%d", i)
				rr, err := srv.handleReserve(ReserveRequest{
					Credential: userCred(), SliceName: key, Sites: 1, PerSite: 1, IdempotencyKey: key,
				})
				if err != nil {
					t.Fatalf("reserve %s: %v", key, err)
				}
				if _, err := srv.handleRelease(ReleaseRequest{
					Credential: userCred(), SliceName: key, Slivers: rr.Slivers,
				}); err != nil {
					t.Fatalf("release %s: %v", key, err)
				}
			}
			want := srv.snapshotState()
			var keys []string
			for _, d := range want.Dedup {
				keys = append(keys, d.Key)
			}
			if newest := []string{"reserve:s3", "reserve:s2", "reserve:s1", "reserve:s0"}; !reflect.DeepEqual(keys, newest) {
				t.Fatalf("live window = %v, want %v", keys, newest)
			}

			_ = store.log.Close() // crash: no final snapshot
			rec, store2, rst := durableServer(t, dir, every, clock, cfg)
			defer store2.Close()
			if err := rec.Restore(rst); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if got := rec.snapshotState(); !reflect.DeepEqual(got, want) {
				t.Errorf("recovered state differs from live state:\n got %+v\nwant %+v", got, want)
			}
			if _, err := rec.handleReserve(ReserveRequest{
				Credential: userCred(), SliceName: "s0", Sites: 1, PerSite: 1, IdempotencyKey: "s0",
			}); err != nil {
				t.Fatalf("retry s0: %v", err)
			}
			if n := counterValue(rec.obsreg, "fedshare_sfa_dedup_replays_total", MethodReserve); n != 1 {
				t.Errorf("retry of the newest key re-executed after recovery (replays = %d)", n)
			}
		})
	}
}

// failingStore refuses the next append of one op, as a full disk would.
type failingStore struct {
	Store
	failOp string
}

func (f *failingStore) Append(rec Record) error {
	if rec.Op == f.failOp {
		f.failOp = ""
		return errors.New("disk full")
	}
	return f.Store.Append(rec)
}

// TestDurableAppendFailureRetries: a reserve or slice creation whose record
// cannot be logged is refused with nothing applied — no placement, no
// outcome under its key — so a retry executes once the disk recovers, and
// the log still reproduces the live state.
func TestDurableAppendFailureRetries(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	store, _, err := OpenDurableStore(DurableOptions{Dir: dir, SnapshotEvery: -1, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	failing := &failingStore{Store: store, failOp: OpReserve}
	newServer := func(st Store) *Server {
		return NewServer(buildAuthority(t, "DUR", 2, 1, 2), testSecret,
			WithLogger(quietLog), WithStore(st),
			WithMetrics(obs.NewRegistry()), WithConfig(ServerConfig{Now: clock.Now}))
	}
	srv := newServer(failing)
	defer srv.Close()

	req := ReserveRequest{Credential: userCred(), SliceName: "s", Sites: 1, PerSite: 1, IdempotencyKey: "k"}
	if _, err := srv.handleReserve(req); err == nil {
		t.Fatal("reserve whose append failed was acknowledged")
	}
	if got := srv.snapshotState(); !reflect.DeepEqual(got, State{}) {
		t.Errorf("refused reserve left state %+v", got)
	}
	if u := srv.auth.Utilization(); u != 0 {
		t.Errorf("refused reserve left utilization %g", u)
	}
	rr, err := srv.handleReserve(req)
	if err != nil {
		t.Fatalf("retry after the disk recovered: %v", err)
	}
	if len(rr.Slivers) != 1 {
		t.Fatalf("retry placed %d slivers, want 1", len(rr.Slivers))
	}
	if n := counterValue(srv.obsreg, "fedshare_sfa_dedup_replays_total", MethodReserve); n != 0 {
		t.Errorf("retry replayed the refused attempt (replays = %d)", n)
	}

	failing.failOp = OpCreateSlice
	before := srv.auth.Utilization()
	slice := SliceRequest{Credential: userCred(), Name: "x", Owner: "tester", MinSites: 1, SliversPerSite: 1}
	if _, err := srv.handleCreateSlice(slice); err == nil {
		t.Fatal("slice creation whose append failed was acknowledged")
	}
	if hasSlice(srv, "x") {
		t.Error("refused slice creation left the slice")
	}
	if u := srv.auth.Utilization(); u != before {
		t.Errorf("refused slice creation left utilization %g, want %g", u, before)
	}
	if _, err := srv.handleCreateSlice(slice); err != nil {
		t.Fatalf("slice creation retry: %v", err)
	}

	want := srv.snapshotState()
	if wantDedup := []DedupState{{Key: "reserve:k", Slivers: rr.Slivers}}; !reflect.DeepEqual(want.Dedup, wantDedup) {
		t.Errorf("dedup window = %+v, want only the retry's outcome %+v", want.Dedup, wantDedup)
	}
	_ = store.log.Close() // crash: no final snapshot
	store2, rst, err := OpenDurableStore(DurableOptions{Dir: dir, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	rec := newServer(store2)
	defer rec.Close()
	if err := rec.Restore(rst); err != nil {
		t.Fatal(err)
	}
	if got := rec.snapshotState(); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered state differs from live state:\n got %+v\nwant %+v", got, want)
	}
}

// TestDurableSnapshotVersion: a snapshot in a format version this build
// cannot read is refused, naming both versions, with no state returned; an
// unversioned snapshot predates versioning and reads as the current format.
func TestDurableSnapshotVersion(t *testing.T) {
	writeSnapshot := func(payload string) string {
		t.Helper()
		dir := t.TempDir()
		l, _, err := wal.Open(wal.Options{Dir: dir, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Snapshot([]byte(payload)); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	next := SnapshotVersion + 1
	dir := writeSnapshot(fmt.Sprintf(`{"version":%d,"seq":7,"slices":{"renamed":true}}`, next))
	store, st, err := OpenDurableStore(DurableOptions{Dir: dir, Registry: obs.NewRegistry()})
	if err == nil {
		store.Close()
		t.Fatalf("opened a version %d snapshot as state %+v", next, st)
	}
	if st != nil {
		t.Errorf("refused snapshot still returned state %+v", st)
	}
	for _, want := range []string{fmt.Sprintf("version %d", next), fmt.Sprintf("version %d", SnapshotVersion)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}

	dir = writeSnapshot(`{"seq":7}`)
	store, st, err = OpenDurableStore(DurableOptions{Dir: dir, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("unversioned snapshot refused: %v", err)
	}
	defer store.Close()
	if st == nil || st.Seq != 7 {
		t.Errorf("unversioned snapshot recovered as %+v, want seq 7", st)
	}
}

// TestRecoveryEquivalenceUnderChaos exercises recovery against state built
// by genuinely concurrent, fault-injected traffic: the log order — not the
// request arrival order — defines the durable state, and replaying it must
// reproduce the live server's final state exactly. Seeds follow the chaos
// suite's convention (override with FEDSHARE_CHAOS_SEED).
func TestRecoveryEquivalenceUnderChaos(t *testing.T) {
	seed := chaosSeed(t)
	const clients, calls = 4, 6
	clock := newFakeClock()
	dir := t.TempDir()
	store, st, err := OpenDurableStore(DurableOptions{
		Dir: dir, SnapshotEvery: 5, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st != nil {
		t.Fatalf("fresh dir returned state %+v", st)
	}
	reg := obs.NewRegistry()
	srv := startServer(t, buildAuthority(t, "DUR", 8, 2, 8),
		WithStore(store),
		WithMetrics(reg),
		WithConfig(ServerConfig{
			IdleReadDeadline:  500 * time.Millisecond,
			LeaseReapInterval: 2 * time.Millisecond,
			Now:               clock.Now,
		}))

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		dialer := faultnet.NewDialer(faultnet.Config{
			Seed:  seed*1_000_003 + uint64(i)*7919,
			PDrop: 0.06, PPartial: 0.05, PCorrupt: 0.05, PDropResponse: 0.10,
			PLatency: 0.10, MaxLatency: 2 * time.Millisecond,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient(ClientConfig{
				Addr: srv.Addr(), DialFunc: dialer.Dial,
				CallTimeout: 2 * time.Second, MaxAttempts: 30,
				RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond,
				BreakerThreshold: -1, Seed: seed + uint64(i), Registry: reg,
			})
			defer c.Close()
			for k := 0; k < calls; k++ {
				slice := fmt.Sprintf("dur-c%d-s%d", i, k)
				var rr ReserveResponse
				if err := c.Call(MethodReserve, ReserveRequest{
					Credential: userCred(), SliceName: slice, Sites: 1, PerSite: 1,
					IdempotencyKey: slice + "/reserve", TTLSeconds: 30,
				}, &rr); err != nil {
					t.Errorf("client %d reserve %d: %v", i, k, err)
					continue
				}
				if k%2 != 0 {
					continue
				}
				if err := c.Call(MethodRelease, ReleaseRequest{
					Credential: userCred(), SliceName: slice, Slivers: rr.Slivers,
					IdempotencyKey: slice + "/release",
				}, nil); err != nil {
					t.Errorf("client %d release %d: %v", i, k, err)
				}
			}
		}()
	}
	wg.Wait()

	want := srv.snapshotState()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	_ = store.log.Close() // crash: no final snapshot

	store2, rst, err := OpenDurableStore(DurableOptions{
		Dir: dir, SnapshotEvery: 5, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer store2.Close()
	rec := NewServer(buildAuthority(t, "DUR", 8, 2, 8), testSecret,
		WithLogger(quietLog), WithStore(store2),
		WithMetrics(obs.NewRegistry()),
		WithConfig(ServerConfig{Now: clock.Now}))
	defer rec.Close()
	if err := rec.Restore(rst); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := rec.snapshotState(); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered state differs from live state at seed %d:\n got %+v\nwant %+v", seed, got, want)
	}

	// Every key from the crashed run must replay, not re-execute: counter
	// identity dispatched == replayed on the recovered server.
	if err := rec.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c := dialServer(t, rec)
	for i := 0; i < clients; i++ {
		for k := 0; k < calls; k++ {
			slice := fmt.Sprintf("dur-c%d-s%d", i, k)
			var rr ReserveResponse
			if err := c.Call(MethodReserve, ReserveRequest{
				Credential: userCred(), SliceName: slice, Sites: 1, PerSite: 1,
				IdempotencyKey: slice + "/reserve", TTLSeconds: 30,
			}, &rr); err != nil {
				t.Fatalf("post-recovery reserve %s: %v", slice, err)
			}
		}
	}
	dispatched := counterValue(rec.obsreg, "fedshare_sfa_requests_total", MethodReserve)
	replayed := counterValue(rec.obsreg, "fedshare_sfa_dedup_replays_total", MethodReserve)
	if dispatched != int64(clients*calls) || replayed != dispatched {
		t.Errorf("post-recovery: dispatched %d, replayed %d — want every request to replay (%d)",
			dispatched, replayed, clients*calls)
	}
	// Utilization must converge once the recovered leases expire.
	clock.Advance(time.Minute)
	rec.reapExpiredLeases()
	if u := rec.auth.Utilization(); u != 0 {
		t.Errorf("utilization after lease expiry = %g, want 0", u)
	}
}

// TestDurableFsyncAlways covers the strictest policy end to end: every
// append fsyncs before the response is acknowledged.
func TestDurableFsyncAlways(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	store, _, err := OpenDurableStore(DurableOptions{
		Dir: dir, Fsync: wal.FsyncAlways, SnapshotEvery: -1, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(buildAuthority(t, "DUR", 2, 1, 2), testSecret,
		WithLogger(quietLog), WithStore(store),
		WithMetrics(obs.NewRegistry()), WithConfig(ServerConfig{Now: clock.Now}))
	defer srv.Close()
	if _, err := srv.handleReserve(ReserveRequest{
		Credential: userCred(), SliceName: "s", Sites: 1, PerSite: 1, IdempotencyKey: "k",
	}); err != nil {
		t.Fatal(err)
	}
	want := srv.snapshotState()
	_ = store.log.Close()
	store2, rst, err := OpenDurableStore(DurableOptions{Dir: dir, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	rec := NewServer(buildAuthority(t, "DUR", 2, 1, 2), testSecret,
		WithLogger(quietLog), WithStore(store2),
		WithMetrics(obs.NewRegistry()), WithConfig(ServerConfig{Now: clock.Now}))
	defer rec.Close()
	if err := rec.Restore(rst); err != nil {
		t.Fatal(err)
	}
	if got := rec.snapshotState(); !reflect.DeepEqual(got, want) {
		t.Errorf("fsync=always recovery mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestDurableCloseSnapshotsCleanly: a graceful Close cuts a final snapshot,
// so the next open recovers purely from it (no suffix replay) and the state
// still matches.
func TestDurableCloseSnapshotsCleanly(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	srv, store, _ := durableServer(t, dir, -1, clock)
	driveLifecycle(t, srv, clock)
	want := srv.snapshotState()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("graceful close: %v", err)
	}
	store2, rst, err := OpenDurableStore(DurableOptions{Dir: dir, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if rst == nil {
		t.Fatal("nil state after graceful close")
	}
	rec := NewServer(buildAuthority(t, "DUR", 4, 2, 4), testSecret,
		WithLogger(quietLog), WithStore(store2),
		WithMetrics(obs.NewRegistry()), WithConfig(ServerConfig{Now: clock.Now}))
	defer rec.Close()
	if err := rec.Restore(rst); err != nil {
		t.Fatal(err)
	}
	if got := rec.snapshotState(); !reflect.DeepEqual(got, want) {
		t.Errorf("post-graceful-close recovery mismatch:\n got %+v\nwant %+v", got, want)
	}
}
