package main

import (
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fedshare/internal/faultnet"
	"fedshare/internal/obs"
	"fedshare/internal/planetlab"
	"fedshare/internal/sfa"
	"fedshare/internal/stats"
	"fedshare/internal/wal"
)

// The plane workloads run a three-authority federation in-process on
// loopback TCP — coordinator PLC, peers PLE and PLJ, each 40 sites × 2
// nodes × capacity 10 as fedd builds them — with the coordinator durable
// under fedd's defaults (fsync every 100 ms, snapshot every 4096 appends).
// The load is a closed loop of two workers, each holding one sfa.Client:
// a slice lifecycle is a chain of dependent calls, so each caller waits
// for every reply.

const (
	planeSecret    = "fedbench-federation-secret"
	planeWorkers   = 2
	passLifecycles = 64 // lifecycles per plane pass
	prepPairs      = 4048
	userName       = "fedbench"
)

var discardLog = sfa.WithLogger(func(string, ...interface{}) {})

// buildAuthority builds one authority the way fedd does.
func buildAuthority(name string) *planetlab.Authority {
	a := planetlab.NewAuthority(name)
	for s := 0; s < 40; s++ {
		site := &planetlab.Site{ID: fmt.Sprintf("%s-site%03d", name, s), Name: fmt.Sprintf("%s site %d", name, s)}
		for n := 0; n < 2; n++ {
			site.Nodes = append(site.Nodes, planetlab.Node{
				ID: fmt.Sprintf("node%d", n), HostName: fmt.Sprintf("node%d.site%03d.%s.example.net", n, s, name), Capacity: 10,
			})
		}
		if err := a.AddSite(site); err != nil {
			panic(err) // site ids are unique by construction
		}
	}
	return a
}

func durableOptions(dir string, reg *obs.Registry) sfa.DurableOptions {
	return sfa.DurableOptions{
		Dir: dir, Fsync: wal.FsyncInterval, FsyncInterval: 100 * time.Millisecond,
		SnapshotEvery: 4096, Registry: reg,
	}
}

// prepDataDir leaves in image the data directory of a coordinator that
// crashed after serving pairs keyed reserve/release pairs: a snapshot, a
// log suffix of up to 4095 records after it (4000 at the benchmark size),
// a full dedup table, and no live holdings.
func prepDataDir(dir, image string, pairs int) error {
	reg := obs.NewRegistry()
	store, _, err := sfa.OpenDurableStore(durableOptions(dir, reg))
	if err != nil {
		return err
	}
	defer store.Close()
	srv := sfa.NewServer(buildAuthority("PLC"), []byte(planeSecret), discardLog, sfa.WithMetrics(reg), sfa.WithStore(store))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer srv.Close()
	c := sfa.NewClient(sfa.ClientConfig{Addr: srv.Addr(), Registry: reg})
	defer c.Close()
	cred := sfa.IssueCredential([]byte(planeSecret), userName, userName, time.Hour)
	for i := 0; i < pairs; i++ {
		name := fmt.Sprintf("prep-%d", i)
		var rr sfa.ReserveResponse
		if err := c.Call(sfa.MethodReserve, sfa.ReserveRequest{
			Credential: cred, SliceName: name, Sites: 1, PerSite: 1, IdempotencyKey: name + "/r",
		}, &rr); err != nil {
			return err
		}
		if err := c.Call(sfa.MethodRelease, sfa.ReleaseRequest{
			Credential: cred, SliceName: name, Slivers: rr.Slivers, IdempotencyKey: name + "/rel",
		}, nil); err != nil {
			return err
		}
	}
	// Copy before closing: Close cuts a final snapshot, which a crash does
	// not.
	return copyDir(dir, image)
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// federation is one running three-authority federation.
type federation struct {
	coord, ple, plj  *sfa.Server
	store            *sfa.DurableStore
	regC, regE, regJ *obs.Registry
	gate             *faultnet.Partition // churn: the coordinator's PLJ link
	timed            *timedStore         // traced runs: the coordinator's store
}

func (f *federation) close() {
	if f == nil {
		return
	}
	for _, s := range []*sfa.Server{f.coord, f.ple, f.plj} {
		if s != nil {
			_ = s.Close()
		}
	}
	if f.store != nil {
		_ = f.store.Close()
	}
}

// setupTimes is one bring-up's cost and its recovery parts.
type setupTimes struct {
	total, recover, restore time.Duration
	replayed                int64
	slowdown                float64 // the host's, measured just before
}

// bringUp is crash recovery plus federation bring-up: open the durable
// store on dir and restore the coordinator from it, start the three
// registries, peer the coordinator with both peers, and wait for a first
// Ping. churn builds the coordinator with a one-request admission bound, a
// partition gate on its PLJ link with short peer timeouts, and fast
// probes, so cut/heal cycles play out within a run.
func bringUp(dir string, churn bool, storeOn *atomic.Bool) (*federation, setupTimes, error) {
	var st setupTimes
	f := &federation{regC: obs.NewRegistry(), regE: obs.NewRegistry(), regJ: obs.NewRegistry()}
	secret := []byte(planeSecret)
	t0 := time.Now()
	store, recovered, err := sfa.OpenDurableStore(durableOptions(dir, f.regC))
	if err != nil {
		return f, st, err
	}
	f.store = store
	st.recover = time.Since(t0)
	st.replayed = f.regC.Counter("fedshare_wal_replayed_records_total", "").Value()
	var durable sfa.Store = store
	if storeOn != nil {
		f.timed = &timedStore{DurableStore: store, on: storeOn}
		durable = f.timed
	}
	cfg := sfa.ServerConfig{MaxInFlight: 1024}
	if churn {
		f.gate = faultnet.NewPartition()
		cfg = sfa.ServerConfig{
			MaxInFlight: 1, LeaseReapInterval: 50 * time.Millisecond, ProbeInterval: 200 * time.Millisecond,
			PeerClient: func(addr string) sfa.ClientConfig {
				cc := sfa.ClientConfig{
					DialTimeout: 250 * time.Millisecond, CallTimeout: 250 * time.Millisecond,
					MaxAttempts: 1, BreakerThreshold: -1,
				}
				if f.plj != nil && addr == f.plj.Addr() {
					cc.DialFunc = f.gate.Dial
				}
				return cc
			},
		}
	}
	t1 := time.Now()
	f.coord = sfa.NewServer(buildAuthority("PLC"), secret, discardLog, sfa.WithMetrics(f.regC),
		sfa.WithConfig(cfg), sfa.WithStore(durable))
	if err := f.coord.Restore(recovered); err != nil {
		return f, st, err
	}
	st.restore = time.Since(t1)
	peerCfg := sfa.WithConfig(sfa.ServerConfig{MaxInFlight: 1024})
	f.ple = sfa.NewServer(buildAuthority("PLE"), secret, discardLog, sfa.WithMetrics(f.regE), peerCfg)
	f.plj = sfa.NewServer(buildAuthority("PLJ"), secret, discardLog, sfa.WithMetrics(f.regJ), peerCfg)
	for _, s := range []*sfa.Server{f.ple, f.plj, f.coord} {
		if err := s.Start("127.0.0.1:0"); err != nil {
			return f, st, err
		}
	}
	for _, p := range []*sfa.Server{f.ple, f.plj} {
		if err := f.coord.PeerWith(p.Addr()); err != nil {
			return f, st, err
		}
	}
	c, err := sfa.Dial(f.coord.Addr(), 5*time.Second)
	if err != nil {
		return f, st, err
	}
	defer c.Close()
	if err := c.Call(sfa.MethodPing, nil, nil); err != nil {
		return f, st, err
	}
	st.total = time.Since(t0)
	return f, st, nil
}

// tally is what lifecycles did: call counts and latencies, and the keys
// and placements the exactly-once gates compare with the servers'
// counters.
type tally struct {
	latMS                 map[string][]float64 // by method
	passMS                []float64            // every call of the pass in progress
	attempted, failed     int64
	tracedCalls           int64
	creates               int
	withPLE, withPLJ      int // slices placed at the peer
	needPLJ               int // slices large enough to need PLJ
	reserveKeys, releases int // keyed coordinator calls acknowledged
	shares, partial       int
	gates                 []string
}

func (t *tally) add(o *tally) {
	if t.latMS == nil {
		t.latMS = map[string][]float64{}
	}
	for m, xs := range o.latMS {
		t.latMS[m] = append(t.latMS[m], xs...)
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.tracedCalls += o.tracedCalls
	t.creates += o.creates
	t.withPLE += o.withPLE
	t.withPLJ += o.withPLJ
	t.needPLJ += o.needPLJ
	t.reserveKeys += o.reserveKeys
	t.releases += o.releases
	t.shares += o.shares
	t.partial += o.partial
	t.gates = append(t.gates, o.gates...)
}

// worker is one closed-loop client of the coordinator.
type worker struct {
	tally
	client *sfa.Client
	cred   sfa.Credential
	churn  bool
	trace  *tracer
	root   spanRef // the traced lifecycle in progress
	wire   *wireTap
}

// call performs one timed call.
func (w *worker) call(method string, params, result interface{}, traced bool) error {
	w.attempted++
	t0 := time.Now()
	err := w.client.Call(method, params, result)
	t1 := time.Now()
	if err != nil {
		w.failed++
		return fmt.Errorf("%s: %w", method, err)
	}
	ms := float64(t1.Sub(t0)) / 1e6
	w.latMS[method] = append(w.latMS[method], ms)
	w.passMS = append(w.passMS, ms)
	if traced {
		w.tracedCalls++
		w.trace.add(w.root, method, t0, t1, 0)
	}
	return nil
}

func (w *worker) gatef(format string, args ...any) {
	w.gates = append(w.gates, fmt.Sprintf(format, args...))
}

// runLifecycle drives one slice lifecycle: federated CreateSlice, a keyed
// Reserve at the coordinator, its renewal under the same key (a dedup
// replay), keyed Release, DeleteSlice, and every eighth lifecycle a
// Shapley share query.
func (w *worker) runLifecycle(lc lifecycle, traced bool) error {
	var sr sfa.SliceResponse
	if err := w.call(sfa.MethodCreateSlice, sfa.SliceRequest{
		Credential: w.cred, Name: lc.Name, Owner: userName,
		MaxSites: lc.MaxSites, SliversPerSite: 1, TTLSeconds: lc.TTLSeconds,
	}, &sr, traced); err != nil {
		return err
	}
	w.creates++
	at := map[string]int{}
	for _, sv := range sr.Slivers {
		at[sv.Authority]++
	}
	if at["PLE"] > 0 {
		w.withPLE++
	}
	if at["PLJ"] > 0 {
		w.withPLJ++
	}
	if lc.MaxSites > 80 {
		w.needPLJ++
	}
	// Without PLJ the federation still offers 80 sites.
	want := lc.MaxSites
	if w.churn && at["PLJ"] == 0 && want > 80 {
		want = 80
	}
	if sr.Sites != want || len(sr.Slivers) != want {
		w.gatef("%s: slice spans %d sites with %d slivers, want %d", lc.Name, sr.Sites, len(sr.Slivers), want)
	}

	res := lc.Name + "-res"
	req := sfa.ReserveRequest{
		Credential: w.cred, SliceName: res, Sites: lc.ReserveSites, PerSite: 1,
		IdempotencyKey: res + "/key", TTLSeconds: lc.TTLSeconds,
	}
	var rr, renewed sfa.ReserveResponse
	if err := w.call(sfa.MethodReserve, req, &rr, traced); err != nil {
		return err
	}
	w.reserveKeys++
	if len(rr.Slivers) != lc.ReserveSites {
		w.gatef("%s: reserved %d slivers, want %d", res, len(rr.Slivers), lc.ReserveSites)
	}
	if err := w.call(sfa.MethodReserve, req, &renewed, traced); err != nil {
		return err
	}
	if fmt.Sprint(renewed.Slivers) != fmt.Sprint(rr.Slivers) {
		w.gatef("%s: renewal placed %v, want the replayed %v", res, renewed.Slivers, rr.Slivers)
	}
	if err := w.call(sfa.MethodRelease, sfa.ReleaseRequest{
		Credential: w.cred, SliceName: res, Slivers: rr.Slivers, IdempotencyKey: res + "/rel",
	}, nil, traced); err != nil {
		return err
	}
	w.releases++
	if err := w.call(sfa.MethodDeleteSlice, sfa.DeleteRequest{Credential: w.cred, Name: lc.Name}, nil, traced); err != nil {
		return err
	}
	if lc.Shares {
		var shares sfa.SharesResponse
		if err := w.call(sfa.MethodGetShares, sfa.SharesRequest{Policy: "shapley"}, &shares, traced); err != nil {
			return err
		}
		w.shares++
		if shares.Partial {
			w.partial++
		}
		sum := 0.0
		for _, s := range shares.Shares {
			sum += s
		}
		if math.Abs(sum-1) > 1e-9 || (!w.churn && (shares.Partial || len(shares.Shares) != 3)) {
			w.gatef("shares %v (partial %t) are not a full distribution", shares.Shares, shares.Partial)
		}
	}
	return nil
}

// planeCounters snapshots the registry counters the gates and layer
// metrics difference.
type planeCounters struct {
	c, e, j  serverCounters
	snapshot hist
	fsync    hist
	appendW  hist
	mem      runtime.MemStats
}

type serverCounters struct {
	reqs, replays map[string]int64
	lat           map[string]hist
	shed          int64
	embed, shares hist
	transitions   int64
	reconcileRuns int64
	replayed      int64 // reconcile replays
	retired       int64
}

type hist struct {
	n   uint64
	sum float64
}

func (h hist) minus(o hist) hist { return hist{h.n - o.n, h.sum - o.sum} }

// meanMS is the mean observation in milliseconds.
func (h hist) meanMS() float64 { return ratio(h.sum*1e3, float64(h.n)) }

var sfaMethods = []string{
	sfa.MethodPing, sfa.MethodGetRecord, sfa.MethodListResources, sfa.MethodPeer,
	sfa.MethodCreateSlice, sfa.MethodDeleteSlice, sfa.MethodReserve, sfa.MethodRelease,
	sfa.MethodGetShares, sfa.MethodGetUsage, sfa.MethodListHoldings,
}

func readServer(reg *obs.Registry) serverCounters {
	sc := serverCounters{reqs: map[string]int64{}, replays: map[string]int64{}, lat: map[string]hist{}}
	reqs := reg.CounterVec("fedshare_sfa_requests_total", "", "method")
	replays := reg.CounterVec("fedshare_sfa_dedup_replays_total", "", "method")
	lat := reg.HistogramVec("fedshare_sfa_request_seconds", "", nil, "method")
	for _, m := range sfaMethods {
		sc.reqs[m] = reqs.With(m).Value()
		sc.replays[m] = replays.With(m).Value()
		h := lat.With(m)
		sc.lat[m] = hist{h.Count(), h.Sum()}
	}
	sc.shed = reg.Counter("fedshare_sfa_shed_total", "").Value()
	spans := reg.HistogramVec("fedshare_span_seconds", "", nil, "span")
	e, s := spans.With("sfa.embed"), spans.With("sfa.shares")
	sc.embed, sc.shares = hist{e.Count(), e.Sum()}, hist{s.Count(), s.Sum()}
	tr := reg.CounterVec("fedshare_sfa_peer_transitions_total", "", "peer", "to")
	for _, peer := range []string{"PLE", "PLJ"} {
		for _, to := range []sfa.PeerState{sfa.PeerHealthy, sfa.PeerSuspect, sfa.PeerDown, sfa.PeerRecovering} {
			sc.transitions += tr.With(peer, to.String()).Value()
		}
	}
	runs := reg.CounterVec("fedshare_sfa_reconcile_runs_total", "", "outcome")
	sc.reconcileRuns = runs.With("converged").Value() + runs.With("failed").Value()
	sc.replayed = reg.Counter("fedshare_sfa_reconcile_replays_total", "").Value()
	sc.retired = reg.Counter("fedshare_sfa_reconcile_retired_total", "").Value()
	return sc
}

func readPlane(f *federation) planeCounters {
	pc := planeCounters{c: readServer(f.regC), e: readServer(f.regE), j: readServer(f.regJ)}
	h := func(name string) hist {
		x := f.regC.Histogram(name, "", nil)
		return hist{x.Count(), x.Sum()}
	}
	pc.snapshot = h("fedshare_wal_snapshot_seconds")
	pc.fsync = h("fedshare_wal_fsync_seconds")
	pc.appendW = h("fedshare_wal_append_seconds")
	runtime.ReadMemStats(&pc.mem)
	return pc
}

// exec is executions of method: dispatched minus dedup replays.
func (sc serverCounters) exec(method string) int64 { return sc.reqs[method] - sc.replays[method] }

func (sc serverCounters) minus(o serverCounters) serverCounters {
	d := serverCounters{reqs: map[string]int64{}, replays: map[string]int64{}, lat: map[string]hist{}}
	for _, m := range sfaMethods {
		d.reqs[m] = sc.reqs[m] - o.reqs[m]
		d.replays[m] = sc.replays[m] - o.replays[m]
		d.lat[m] = sc.lat[m].minus(o.lat[m])
	}
	d.shed = sc.shed - o.shed
	d.embed, d.shares = sc.embed.minus(o.embed), sc.shares.minus(o.shares)
	d.transitions = sc.transitions - o.transitions
	d.reconcileRuns = sc.reconcileRuns - o.reconcileRuns
	d.replayed = sc.replayed - o.replayed
	d.retired = sc.retired - o.retired
	return d
}

func (sc serverCounters) totalReqs() int64 {
	n := int64(0)
	for _, v := range sc.reqs {
		n += v
	}
	return n
}

// healthWatch polls the coordinator's view of PLJ during a traced run.
type healthWatch struct {
	down       time.Duration
	backlogMax int
}

func watchHealth(coord *sfa.Server, stop <-chan struct{}) *healthWatch {
	hw := &healthWatch{}
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	last := time.Now()
	for {
		select {
		case <-stop:
			return hw
		case <-t.C:
		}
		now := time.Now()
		for _, info := range coord.PeerHealth() {
			if info.Peer != "PLJ" {
				continue
			}
			if info.State == sfa.PeerDown.String() || info.State == sfa.PeerRecovering.String() {
				hw.down += now.Sub(last)
			}
			if info.Backlog > hw.backlogMax {
				hw.backlogMax = info.Backlog
			}
		}
		last = now
	}
}

// planeRun is one plane workload run: the federation it measures and what
// its workers and watchers observed.
type planeRun struct {
	env     *runEnv
	churn   bool
	fed     *federation
	setups  []setupTimes
	storeOn *atomic.Bool // traced runs: the store wrapper is timing
	workers []*worker

	before, after planeCounters
	all           tally
	passes        []planePass
	ops           timings // untraced passes' call latencies, in ms
	window        time.Duration
	cuts          int
	health        *healthWatch
}

// planePass is one pass: passLifecycles lifecycles shared by the workers.
type planePass struct {
	wall     time.Duration
	slowdown float64 // the host's, measured just before the pass
	rssMB    float64 // resident set at the end of the pass
	traced   bool
}

func runPlane(env *runEnv, churn bool) *report {
	rep := newReport()
	work, err := os.MkdirTemp(env.workDir, "plane-")
	if err != nil {
		rep.check(err)
		return rep
	}
	defer os.RemoveAll(work)
	r := &planeRun{env: env, churn: churn}
	if env.trace != nil {
		r.storeOn = new(atomic.Bool)
	}
	if err := r.setUp(work); err != nil {
		r.fed.close()
		rep.check(err)
		return rep
	}
	defer r.fed.close()
	r.startWorkers()
	defer func() {
		for _, w := range r.workers {
			w.client.Close()
		}
	}()
	rep.check(r.drive())
	if churn {
		r.fed.gate.Heal()
		rep.check(awaitReadmission(r.fed.coord, 30*time.Second))
	}
	r.after = readPlane(r.fed)
	rep.check(checkConverged(r.fed))
	for _, w := range r.workers {
		r.all.add(&w.tally)
	}
	rep.attempted, rep.failed = r.all.attempted, r.all.failed
	rep.gates = append(rep.gates, r.all.gates...)
	dc, de, dj := r.after.c.minus(r.before.c), r.after.e.minus(r.before.e), r.after.j.minus(r.before.j)
	checkExactlyOnce(rep, &r.all, dc, de, dj, churn)
	if env.trace == nil {
		r.reportEndToEnd(rep)
	} else {
		r.reportLayers(rep, dc, de, dj)
	}
	return rep
}

// setUp prepares the crash image once, then recovers and brings up a
// federation from a fresh copy of it setupRepeats times, keeping the last.
func (r *planeRun) setUp(work string) error {
	image := filepath.Join(work, "image")
	if err := prepDataDir(filepath.Join(work, "prep"), image, scaled(prepPairs, r.env.size, 16)); err != nil {
		return fmt.Errorf("prepare data dir: %w", err)
	}
	for i := 0; i < setupRepeats; i++ {
		if r.fed != nil {
			r.fed.close()
		}
		dir := filepath.Join(work, fmt.Sprintf("data%d", i))
		if err := copyDir(image, dir); err != nil {
			return err
		}
		// Recover from a collected heap, as a restarted fedd does.
		runtime.GC()
		slow, err := r.env.cal.slowdown()
		if err != nil {
			return err
		}
		fed, st, err := bringUp(dir, r.churn, r.storeOn)
		r.fed = fed
		if err != nil {
			return fmt.Errorf("bring-up: %w", err)
		}
		st.slowdown = slow
		r.setups = append(r.setups, st)
	}
	return nil
}

func (r *planeRun) startWorkers() {
	for i := 0; i < planeWorkers; i++ {
		w := &worker{
			tally: tally{latMS: map[string][]float64{}}, churn: r.churn, trace: r.env.trace,
			cred: sfa.IssueCredential([]byte(planeSecret), userName, userName, time.Hour),
		}
		// Short, many shed retries: a worker starved by the admission gate
		// for long would let the other push its renewal key out of the
		// coordinator's 1024-key dedup window, and the renewal would then
		// execute again.
		cc := sfa.ClientConfig{
			Addr: r.fed.coord.Addr(), CallTimeout: 5 * time.Second, MaxAttempts: 100,
			RetryBase: time.Millisecond, RetryMax: 10 * time.Millisecond,
			BreakerThreshold: -1, Seed: r.env.seed + uint64(i), Registry: obs.NewRegistry(),
		}
		if r.env.trace != nil {
			w.wire = &wireTap{}
			cc.DialFunc = w.wire.dial
		}
		w.client = sfa.NewClient(cc)
		r.workers = append(r.workers, w)
	}
}

// drive runs passes until the measurement time is up and the minimum
// passes are done, with the partition schedule (churn) and the health
// watch (traced runs) alongside. Each pass starts with a host calibration
// while no lifecycle is in flight. In a traced run every other pass is
// traced.
func (r *planeRun) drive() error {
	env := r.env
	r.before = readPlane(r.fed)
	var completed atomic.Int64
	stop := make(chan struct{})
	var bg sync.WaitGroup
	if r.churn {
		bg.Add(1)
		go func() {
			defer bg.Done()
			r.cuts = drivePartitions(r.fed.gate, partitionPlan(env.seed), &completed, stop)
		}()
	}
	if env.trace != nil {
		bg.Add(1)
		go func() {
			defer bg.Done()
			r.health = watchHealth(r.fed.coord, stop)
		}()
	}
	defer func() {
		close(stop)
		bg.Wait()
	}()
	start := time.Now()
	for pass := 0; pass < env.minPasses || time.Since(start) < env.seconds; pass++ {
		slow, err := env.cal.slowdown()
		if err != nil {
			return err
		}
		traced := env.trace != nil && pass%2 == 1
		if env.trace != nil {
			r.storeOn.Store(traced)
			for _, w := range r.workers {
				w.wire.on.Store(traced)
			}
		}
		t0 := time.Now()
		ok := r.runPass(pass, traced, &completed)
		p := planePass{wall: time.Since(t0), slowdown: slow, traced: traced}
		r.window += p.wall
		if p.rssMB, err = residentMB(); err != nil {
			return err
		}
		r.passes = append(r.passes, p)
		for _, w := range r.workers {
			if !traced {
				for _, ms := range w.passMS {
					r.ops.add(ms, slow)
				}
			}
			w.passMS = w.passMS[:0]
		}
		if !ok {
			return nil // the failed lifecycle's worker recorded why
		}
	}
	return nil
}

// runPass runs lifecycles pass·passLifecycles up to the next pass's first
// on every worker, each worker taking the next lifecycle when it finishes
// one. It reports whether every lifecycle succeeded.
func (r *planeRun) runPass(pass int, traced bool, completed *atomic.Int64) bool {
	env := r.env
	var next atomic.Int64
	next.Store(int64(pass * passLifecycles))
	end := int64((pass + 1) * passLifecycles)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for _, w := range r.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for !failed.Load() {
				i := next.Add(1) - 1
				if i >= end {
					return
				}
				var t0 time.Time
				if traced {
					w.root = env.trace.root()
					t0 = time.Now()
				}
				if err := w.runLifecycle(planLifecycle(env.seed, int(i)), traced); err != nil {
					w.gatef("lifecycle %d: %v", i, err)
					failed.Store(true)
					return
				}
				if traced {
					env.trace.record(w.root, 0, "lifecycle", t0, time.Now(), 0)
				}
				completed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	return !failed.Load()
}

// allOps returns every acknowledged call's latency in milliseconds.
func (r *planeRun) allOps() []float64 {
	var ops []float64
	for _, xs := range r.all.latMS {
		ops = append(ops, xs...)
	}
	return ops
}

func (r *planeRun) reportEndToEnd(rep *report) {
	var setup, passes timings
	for _, st := range r.setups {
		setup.add(st.total.Seconds(), st.slowdown)
	}
	var rss []float64
	for _, p := range r.passes {
		passes.add(p.wall.Seconds(), p.slowdown)
		rss = append(rss, p.rssMB)
	}
	rep.setTimed("setup_s", setup)
	rep.setTimed("pass_s", passes)
	rep.setTimed("op_ms_p50", r.ops)
	rep.set("rss_mb", median(rss), len(rss))
}

// reportLayers reports the traced run's layer metrics. dc, de and dj are
// the coordinator's and the peers' counter deltas over the measurement.
func (r *planeRun) reportLayers(rep *report, dc, de, dj serverCounters) {
	all := &r.all
	lat := func(name, method string, p float64) {
		v, _ := percentile(all.latMS[method], p)
		rep.set(name, v, len(all.latMS[method]))
	}
	lat("sfa.client.create_ms_p50", sfa.MethodCreateSlice, 50)
	lat("sfa.client.create_ms_p99", sfa.MethodCreateSlice, 99)
	lat("sfa.client.reserve_ms_p50", sfa.MethodReserve, 50)
	lat("sfa.client.reserve_ms_p99", sfa.MethodReserve, 99)
	lat("sfa.client.release_ms_p50", sfa.MethodRelease, 50)
	lat("sfa.client.delete_ms_p50", sfa.MethodDeleteSlice, 50)
	lat("sfa.client.shares_ms_p50", sfa.MethodGetShares, 50)
	lat("sfa.client.shares_ms_p99", sfa.MethodGetShares, 99)
	ops := r.allOps()
	rep.set("sfa.client.calls_per_s", float64(len(ops))/r.window.Seconds(), len(ops))
	var retries, redials, wireBytes int64
	var taps []*wireTap
	for _, w := range r.workers {
		st := w.client.Stats()
		retries += st.Retries
		redials += st.Redials
		taps = append(taps, w.wire)
		wireBytes += w.wire.bytes.Load()
	}
	rep.set("sfa.client.retries", float64(retries), 1)
	rep.set("sfa.client.redials", float64(redials), 1)

	server := func(name, method string) {
		h := dc.lat[method]
		rep.set(name, h.meanMS(), int(h.n))
	}
	server("sfa.server.create_ms", sfa.MethodCreateSlice)
	server("sfa.server.reserve_ms", sfa.MethodReserve)
	server("sfa.server.release_ms", sfa.MethodRelease)
	server("sfa.server.delete_ms", sfa.MethodDeleteSlice)
	server("sfa.server.shares_ms", sfa.MethodGetShares)
	reserves := all.latMS[sfa.MethodReserve]
	rep.set("sfa.transport_ms", stats.Mean(reserves)-dc.lat[sfa.MethodReserve].meanMS(), len(reserves))
	enc, dec, frames := frameCosts(taps)
	rep.set("sfa.wire.bytes_per_call", ratio(float64(wireBytes), float64(all.tracedCalls)), int(all.tracedCalls))
	rep.set("sfa.wire.encode_us", float64(enc)/1e3, frames)
	rep.set("sfa.wire.decode_us", float64(dec)/1e3, frames)
	rep.set("sfa.embed_ms", dc.embed.meanMS(), int(dc.embed.n))
	rep.set("sfa.shares_ms", dc.shares.meanMS(), int(dc.shares.n))
	peer := func(name, method string) {
		h := hist{de.lat[method].n + dj.lat[method].n, de.lat[method].sum + dj.lat[method].sum}
		rep.set(name, h.meanMS(), int(h.n))
	}
	peer("sfa.peer.reserve_ms", sfa.MethodReserve)
	peer("sfa.peer.list_resources_ms", sfa.MethodListResources)
	rep.set("sfa.peer.calls_per_create",
		ratio(float64(de.reqs[sfa.MethodReserve]+dj.reqs[sfa.MethodReserve]), float64(all.creates)), all.creates)
	offered := dc.shed + dc.totalReqs()
	rep.set("sfa.admission.shed_ratio", ratio(float64(dc.shed), float64(offered)), int(offered))
	rep.set("sfa.dedup.replay_ratio", ratio(float64(dc.replays[sfa.MethodReserve]), float64(dc.reqs[sfa.MethodReserve])),
		int(dc.reqs[sfa.MethodReserve]))

	timed := r.fed.timed
	rep.set("wal.appends_per_call", ratio(float64(timed.n.Load()), float64(all.tracedCalls)), int(all.tracedCalls))
	rep.set("wal.append_us", ratio(float64(timed.nsec.Load())/1e3, float64(timed.n.Load())), int(timed.n.Load()))
	logAppend := r.after.appendW.minus(r.before.appendW)
	fsync := r.after.fsync.minus(r.before.fsync)
	snap := r.after.snapshot.minus(r.before.snapshot)
	rep.set("wal.log_append_us", logAppend.meanMS()*1e3, int(logAppend.n))
	rep.set("wal.fsync_ms", fsync.meanMS(), int(fsync.n))
	rep.set("wal.snapshot_ms", snap.meanMS(), int(snap.n))
	var recov, restore, replayed []float64
	for _, st := range r.setups {
		recov = append(recov, float64(st.recover)/1e6)
		restore = append(restore, float64(st.restore)/1e6)
		replayed = append(replayed, float64(st.replayed))
	}
	rep.set("wal.recover_ms", median(recov), len(recov))
	rep.set("wal.replayed_records", median(replayed), len(replayed))
	rep.set("sfa.restore_ms", median(restore), len(restore))

	rep.set("sfa.health.transitions", float64(dc.transitions), 1)
	rep.set("sfa.health.down_s", r.health.down.Seconds(), 1)
	rep.set("sfa.reconcile.runs", float64(dc.reconcileRuns), 1)
	rep.set("sfa.reconcile.replays", float64(dc.replayed), 1)
	rep.set("sfa.reconcile.retired", float64(dc.retired), 1)
	rep.set("sfa.reconcile.backlog_max", float64(r.health.backlogMax), 1)
	rep.set("sfa.shares.partial_ratio", ratio(float64(all.partial), float64(all.shares)), all.shares)
	rep.set("faultnet.cuts", float64(r.cuts), 1)

	var walls, tracedWalls []float64
	for _, p := range r.passes {
		if p.traced {
			tracedWalls = append(tracedWalls, p.wall.Seconds())
		} else {
			walls = append(walls, p.wall.Seconds())
		}
	}
	n := len(r.passes)
	rep.set("runtime.gc_pause_ms", ratio(float64(r.after.mem.PauseTotalNs-r.before.mem.PauseTotalNs)/1e6, float64(n)), n)
	rep.set("runtime.alloc_bytes_per_op", ratio(float64(r.after.mem.TotalAlloc-r.before.mem.TotalAlloc), float64(len(ops))), len(ops))
	rep.set("trace_overhead", median(tracedWalls)/median(walls)-1, len(tracedWalls))
}

// drivePartitions cuts and heals the coordinator's PLJ link on the seeded
// schedule, counted in completed lifecycles, until stop. It returns the
// number of cuts.
func drivePartitions(gate *faultnet.Partition, plan []faultnet.PartitionWindow, completed *atomic.Int64, stop <-chan struct{}) int {
	cuts := 0
	mark := int64(0)
	wait := func(n int64) bool {
		for completed.Load() < n {
			select {
			case <-stop:
				return false
			case <-time.After(time.Millisecond):
			}
		}
		return true
	}
	for w := 0; ; w++ {
		win := plan[w%len(plan)]
		mark += int64(win.UpOps)
		if !wait(mark) {
			return cuts
		}
		gate.Cut()
		cuts++
		mark += int64(win.DownOps)
		ok := wait(mark)
		gate.Heal()
		if !ok {
			return cuts
		}
	}
}

// awaitReadmission waits until the coordinator has reconciled with every
// peer and readmitted it.
func awaitReadmission(coord *sfa.Server, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		settled := true
		var last []sfa.PeerHealthInfo
		for _, info := range coord.PeerHealth() {
			last = append(last, info)
			if info.State != sfa.PeerHealthy.String() || info.Backlog != 0 {
				settled = false
			}
		}
		if settled {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("peers not readmitted with an empty backlog after %s: %+v", limit, last)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// checkConverged gates the federation's end state: no authority holds
// anything for the benchmark or for the coordinator — peer holdings equal
// the coordinator's intent, which is empty once every slice is deleted —
// and every site is back to full capacity.
func checkConverged(f *federation) error {
	secret := []byte(planeSecret)
	for _, s := range []struct {
		srv    *sfa.Server
		holder string
	}{{f.coord, userName}, {f.ple, "PLC"}, {f.plj, "PLC"}} {
		c, err := sfa.Dial(s.srv.Addr(), 5*time.Second)
		if err != nil {
			return err
		}
		var hr sfa.HoldingsResponse
		err = c.Call(sfa.MethodListHoldings, sfa.HoldingsRequest{
			Credential: sfa.IssueCredential(secret, s.holder, s.holder, time.Minute), Holder: s.holder,
		}, &hr)
		var rl sfa.ResourceList
		if err == nil {
			err = c.Call(sfa.MethodListResources, sfa.Empty{}, &rl)
		}
		c.Close()
		if err != nil {
			return err
		}
		if len(hr.Holdings) > 0 {
			return fmt.Errorf("%s still holds %d slices for %s", hr.Authority, len(hr.Holdings), s.holder)
		}
		held := 0
		for _, site := range rl.Sites {
			held += site.Capacity - site.Free
		}
		if held != 0 {
			return fmt.Errorf("%s: %d slivers still held", rl.Authority, held)
		}
	}
	return nil
}

// checkExactlyOnce gates every authority's execution counts against the
// keys the workload drew: executions (dispatched − dedup replays) equal
// keys, at the coordinator and at each peer.
func checkExactlyOnce(rep *report, all *tally, dc, de, dj serverCounters, churn bool) {
	rep.checkf(dc.exec(sfa.MethodReserve) == int64(all.reserveKeys),
		"PLC executed %d reserves for %d keys", dc.exec(sfa.MethodReserve), all.reserveKeys)
	rep.checkf(dc.exec(sfa.MethodRelease) == int64(all.releases),
		"PLC executed %d releases for %d keys", dc.exec(sfa.MethodRelease), all.releases)
	// Every slice reaches PLE (it needs more than the coordinator's 40
	// sites), which is never partitioned: one reserve and one release each.
	rep.checkf(de.exec(sfa.MethodReserve) == int64(all.withPLE) && all.withPLE == all.creates,
		"PLE executed %d reserves for %d slices (%d created)", de.exec(sfa.MethodReserve), all.withPLE, all.creates)
	rep.checkf(de.exec(sfa.MethodRelease) == int64(all.withPLE),
		"PLE executed %d releases for %d slices", de.exec(sfa.MethodRelease), all.withPLE)
	// PLJ sees one reserve key per slice that reached it, and under churn
	// also one per reserve that failed in transit (replayed by
	// reconciliation, then retired), but none while it is down: executions
	// lie between the slices placed there and the slices that needed it.
	// Each slice placed there is released at least once, by its delete or
	// by a retire.
	jr, jl := dj.exec(sfa.MethodReserve), dj.exec(sfa.MethodRelease)
	if churn {
		rep.checkf(int64(all.withPLJ) <= jr && jr <= int64(all.needPLJ) && jl >= int64(all.withPLJ),
			"PLJ executed %d reserves and %d releases for %d slices placed there (%d needed it)", jr, jl, all.withPLJ, all.needPLJ)
		return
	}
	rep.checkf(jr == int64(all.withPLJ) && jl == jr && all.withPLJ == all.needPLJ,
		"PLJ executed %d reserves and %d releases for %d slices placed there (%d needed it)", jr, jl, all.withPLJ, all.needPLJ)
}
