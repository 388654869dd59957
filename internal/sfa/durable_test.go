package sfa

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
// one — the newest dedupWindow outcomes, in log order — whether recovery
// replays the whole log or loads a snapshot and replays the suffix, so a
// retry of the newest key replays after a crash. The run pushes a few keys
// past the window, so its oldest keys are forgotten on both sides.
func TestRecoveryDedupWindow(t *testing.T) {
	const keys = dedupWindow + 4
	for _, every := range []int{-1, 3} {
		t.Run(fmt.Sprintf("snapshotEvery=%d", every), func(t *testing.T) {
			clock := newFakeClock()
			dir := t.TempDir()
			srv, store, _ := durableServer(t, dir, every, clock)
			for i := keys - 1; i >= 0; i-- {
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
			var got, newest []string
			for _, d := range want.Dedup {
				got = append(got, d.Key)
			}
			for i := dedupWindow - 1; i >= 0; i-- {
				newest = append(newest, fmt.Sprintf("reserve:s%d", i))
			}
			if !reflect.DeepEqual(got, newest) {
				t.Fatalf("live window holds %d keys from %v to %v, want the newest %d",
					len(got), got[0], got[len(got)-1], dedupWindow)
			}

			_ = store.log.Close() // crash: no final snapshot
			rec, store2, rst := durableServer(t, dir, every, clock)
			defer store2.Close()
			if every > 0 && (len(rst.log) == 0 || len(rst.log) >= every) {
				t.Fatalf("recovery replays %d records, want the suffix after a snapshot", len(rst.log))
			}
			if err := rec.Restore(rst); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if got := rec.snapshotState(); !reflect.DeepEqual(got, want) {
				t.Errorf("recovered state differs from live state (%d and %d window keys)", len(got.Dedup), len(want.Dedup))
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

// TestDedupWindowRing: the window is a ring of capacity keys. After it
// wraps, snapshot lists the newest keys oldest first; a key remembered
// again keeps its place and takes the new outcome; load keeps the newest
// keys of a longer window.
func TestDedupWindowRing(t *testing.T) {
	keys := func(st *state) []string {
		var out []string
		for _, d := range st.snapshot().Dedup {
			out = append(out, d.Key)
		}
		return out
	}
	st := newState(nil, 3, func(int) {})
	for i := 0; i < 8; i++ {
		st.remember(fmt.Sprintf("k%d", i), nil)
	}
	st.remember("", nil)
	if got, want := keys(st), []string{"k5", "k6", "k7"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("window after 8 keys = %v, want %v", got, want)
	}
	st.remember("k6", []SliverRecord{{Authority: "PLC"}})
	if got, want := keys(st), []string{"k5", "k6", "k7"}; !reflect.DeepEqual(got, want) {
		t.Errorf("window after remembering k6 again = %v, want %v", got, want)
	}
	if slivers, ok := st.outcome("k6"); !ok || len(slivers) != 1 {
		t.Errorf("k6's outcome = %v, %v; want the new one", slivers, ok)
	}
	st.remember("k8", nil)
	if got, want := keys(st), []string{"k6", "k7", "k8"}; !reflect.DeepEqual(got, want) {
		t.Errorf("window after k8 = %v, want %v", got, want)
	}
	if _, ok := st.outcome("k5"); ok {
		t.Error("evicted k5 still has an outcome")
	}

	loaded := newState(nil, 3, func(int) {})
	want := st.snapshot()
	loaded.load(&want)
	if !reflect.DeepEqual(loaded.snapshot(), want) {
		t.Errorf("reloaded window = %v, want %v", keys(loaded), keys(st))
	}
	longer := State{}
	for i := 0; i < 5; i++ {
		longer.Dedup = append(longer.Dedup, DedupState{Key: fmt.Sprintf("j%d", i)})
	}
	loaded = newState(nil, 3, func(int) {})
	loaded.load(&longer)
	if got, want := keys(loaded), []string{"j2", "j3", "j4"}; !reflect.DeepEqual(got, want) {
		t.Errorf("window loaded from 5 keys = %v, want %v", got, want)
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
// cannot read, JSON or binary, is refused, naming both versions, with no
// state returned; an unversioned JSON snapshot predates versioning and
// still reads.
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

	dir = writeSnapshot(string(rune(next)) + string(encodeBody(State{Seq: 7})))
	binStore, st, err := OpenDurableStore(DurableOptions{Dir: dir, Registry: obs.NewRegistry()})
	if err == nil {
		binStore.Close()
		t.Fatalf("opened a binary version %d snapshot as state %+v", next, st)
	}
	if st != nil {
		t.Errorf("refused binary snapshot still returned state %+v", st)
	}
	for _, want := range []string{fmt.Sprintf("version %d", next), fmt.Sprintf("version %d", SnapshotVersion)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// jsonRecordsDir copies testdata/json-records/<name>, a data directory
// left by a build that wrote WAL records as JSON, into a fresh directory:
// "clean" after driveLifecycle and a graceful close (a JSON snapshot and an
// empty log), "crashed" after driveLifecycle and a kill before any
// snapshot (a log of JSON records).
func jsonRecordsDir(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	copyDataDir(t, filepath.Join("testdata", "json-records", name), dir)
	return dir
}

// copyDataDir copies the files of data directory src into dst.
func copyDataDir(tb testing.TB, src, dst string) {
	tb.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestDurableRefusesJSONRecords: a log of JSON records is refused with an
// error naming both formats, and nothing is restored.
func TestDurableRefusesJSONRecords(t *testing.T) {
	store, st, err := OpenDurableStore(DurableOptions{Dir: jsonRecordsDir(t, "crashed"), Registry: obs.NewRegistry()})
	if err == nil {
		store.Close()
		t.Fatalf("opened a log of JSON records as state %+v", st)
	}
	if st != nil {
		t.Errorf("refused log still returned state %+v", st)
	}
	for _, want := range []string{"JSON", fmt.Sprintf("binary records of format version %d", recordVersion)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestDurableOpensCleanJSONShutdown: the data directory a clean shutdown
// of a JSON-record build leaves restores the state its memory-only twin
// reaches on the same workload, and goes on logging binary records that a
// later recovery replays.
func TestDurableOpensCleanJSONShutdown(t *testing.T) {
	clock := newFakeClock()
	mem := NewServer(buildAuthority(t, "DUR", 4, 2, 4), testSecret,
		WithLogger(quietLog), WithMetrics(obs.NewRegistry()), WithConfig(ServerConfig{Now: clock.Now}))
	defer mem.Close()
	driveLifecycle(t, mem, clock)

	dir := jsonRecordsDir(t, "clean")
	srv, store, st := durableServer(t, dir, -1, clock)
	if err := srv.Restore(st); err != nil {
		t.Fatal(err)
	}
	if got, want := srv.snapshotState(), mem.snapshotState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored state differs from the twin's:\n got %+v\nwant %+v", got, want)
	}
	for _, s := range []*Server{srv, mem} {
		if _, err := s.handleReserve(ReserveRequest{Credential: userCred(), SliceName: "after", Sites: 1, PerSite: 1, IdempotencyKey: "k5"}); err != nil {
			t.Fatal(err)
		}
	}
	_ = store.log.Close() // crash
	rec, store2, rst := durableServer(t, dir, -1, clock)
	defer store2.Close()
	if err := rec.Restore(rst); err != nil {
		t.Fatal(err)
	}
	if got, want := rec.snapshotState(), mem.snapshotState(); !reflect.DeepEqual(got, want) {
		t.Errorf("state recovered after the upgrade differs from the twin's:\n got %+v\nwant %+v", got, want)
	}
}

// TestDurableUpgradesJSONSnapshot: a clean shutdown of a build with binary
// snapshots over testdata/json-records/clean, the data directory a clean
// shutdown of a JSON-snapshot build leaves, replaces its JSON snapshot with
// a binary one that reopens to the same State.
func TestDurableUpgradesJSONSnapshot(t *testing.T) {
	clock := newFakeClock()
	dir := jsonRecordsDir(t, "clean")
	srv, store, st := durableServer(t, dir, -1, clock)
	if err := srv.Restore(st); err != nil {
		t.Fatal(err)
	}
	want := srv.snapshotState()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	l, rec, err := wal.Open(wal.Options{Dir: dir, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Snapshot, encodeSnapshot(&want)) || len(rec.Records) != 0 {
		t.Fatalf("clean shutdown left a snapshot of %d bytes and %d records, want the binary snapshot of the restored state and none",
			len(rec.Snapshot), len(rec.Records))
	}

	store2, got, err := OpenDurableStore(DurableOptions{Dir: dir, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if len(got.log) != 0 {
		t.Fatalf("reopened with %d records to replay, want none", len(got.log))
	}
	got.log = nil
	if !reflect.DeepEqual(*got, want) {
		t.Errorf("binary snapshot reopened as\n%+v\nwant\n%+v", *got, want)
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
				Seed: seed + uint64(i), Registry: reg,
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

// crashImage leaves in dir the data directory of a coordinator that
// crashed after 4,048 keyed reserve/release pairs under the default
// snapshot cadence, as fedbench's plane setup prepares it: a snapshot at
// seq 4,096 holding a full dedup window and a log suffix of 4,000 records.
func crashImage(tb testing.TB, dir string) {
	tb.Helper()
	const pairs = 4048
	store, _, err := OpenDurableStore(DurableOptions{Dir: dir, Registry: obs.NewRegistry()})
	if err != nil {
		tb.Fatal(err)
	}
	srv := NewServer(buildAuthority(tb, "PLC", 40, 2, 10), testSecret,
		WithLogger(quietLog), WithStore(store), WithMetrics(obs.NewRegistry()))
	defer srv.Close()
	cred := userCred()
	for i := 0; i < pairs; i++ {
		name := fmt.Sprintf("prep-%d", i)
		rr, err := srv.handleReserve(ReserveRequest{
			Credential: cred, SliceName: name, Sites: 1, PerSite: 1, IdempotencyKey: name + "/r",
		})
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := srv.handleRelease(ReleaseRequest{
			Credential: cred, SliceName: name, Slivers: rr.Slivers, IdempotencyKey: name + "/rel",
		}); err != nil {
			tb.Fatal(err)
		}
	}
	_ = store.log.Close() // crash: no final snapshot
}

// BenchmarkRecover times a durable coordinator's crash recovery as
// fedbench's plane setup_s does: OpenDurableStore, NewServer and Restore
// on a fresh copy, made outside the timer, of crashImage's data directory.
func BenchmarkRecover(b *testing.B) {
	image := b.TempDir()
	crashImage(b, image)
	dir := filepath.Join(b.TempDir(), "data")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		if err := os.Mkdir(dir, 0o755); err != nil {
			b.Fatal(err)
		}
		copyDataDir(b, image, dir)
		auth := buildAuthority(b, "PLC", 40, 2, 10)
		b.StartTimer()

		store, st, err := OpenDurableStore(DurableOptions{Dir: dir, Registry: obs.NewRegistry()})
		if err != nil {
			b.Fatal(err)
		}
		srv := NewServer(auth, testSecret, WithLogger(quietLog), WithStore(store), WithMetrics(obs.NewRegistry()))
		if err := srv.Restore(st); err != nil {
			b.Fatal(err)
		}

		b.StopTimer()
		if window := dedupWindow; len(st.Dedup) != window || len(st.log) != 4000 {
			b.Fatalf("recovered a snapshot of %d dedup keys and %d records, want %d and 4000",
				len(st.Dedup), len(st.log), window)
		}
		_ = srv.Close()
		_ = store.log.Close()
		b.StartTimer()
	}
}
