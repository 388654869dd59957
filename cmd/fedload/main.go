// Command fedload drives concurrent slice lifecycles against a fedd
// registry and reports throughput and latency, benchmarking the durable
// federation plane end to end.
//
// Each lifecycle is reserve → renew×N → release, all keyed and idempotent:
// renewals re-issue the original reserve key (exercising the server's
// dedup replay path, the protocol's lease-extension idiom), and every call
// goes through the resilient retrying client, so fedload rides through a
// fedd kill -9 + restart mid-run — the recovery path the write-ahead log
// exists for.
//
// Usage:
//
//	fedload -addr 127.0.0.1:7001 -secret fed-secret \
//	    -lifecycles 2000 -workers 32 -renews 1 -ttl 60 \
//	    -label fsync-interval -out BENCH_8.json
//
// With -fault the client dials through a fault-injecting network (dropped
// connections, partial writes, corrupted frames, lost responses) seeded by
// -seed. With -metrics and -expect-executions the run asserts the
// exactly-once identity on the server's counters:
//
//	Δrequests_total{sfa.Reserve} − Δdedup_replays_total{sfa.Reserve} == expected
//
// (run against one daemon incarnation: counters reset on restart, so a
// run that spans a kill -9 verifies instead by re-issuing its keys in a
// second run with -expect-executions 0 — every key must replay, none may
// re-execute). Responses shed by the daemon's -max-inflight admission gate
// are reported separately from transport failures ("shed" in the result
// JSON): shed requests are rejected unexecuted and retried with backoff,
// so an overloaded run still satisfies the exactly-once identity. With
// -verify the run additionally waits for the substrate to return to full
// capacity after the releases and lease expiries.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fedshare/internal/faultnet"
	"fedshare/internal/obs"
	"fedshare/internal/sfa"
)

type result struct {
	Label      string `json:"label"`
	Addr       string `json:"addr"`
	Lifecycles int    `json:"lifecycles"`
	Workers    int    `json:"workers"`
	Renews     int    `json:"renews"`
	Release    bool   `json:"release"`
	Fault      bool   `json:"fault"`
	Seed       uint64 `json:"seed,omitempty"`
	Reserves   int64  `json:"reserves"` // successful reserve calls (incl. renews)
	Releases   int64  `json:"releases"` // successful release calls
	// Failures are calls that failed after all retries for transport or
	// remote reasons; Shed counts responses the server's admission gate
	// rejected unexecuted (each retried with backoff); ShedFailures are
	// calls ultimately rejected as overloaded — unexecuted by contract, so
	// they are never lost executions.
	Failures     int64   `json:"failures"`
	Shed         int64   `json:"shed"`
	ShedFailures int64   `json:"shed_failures,omitempty"`
	Retries      int64   `json:"retries"`     // client-level retry attempts
	Redials      int64   `json:"redials"`     // client reconnects
	Seconds      float64 `json:"seconds"`     // wall-clock run time
	ReservesPS   float64 `json:"reserves_ps"` // successful reserves per second
	P50Millis    float64 `json:"p50_ms"`      // reserve-call latency
	P99Millis    float64 `json:"p99_ms"`
	Executions   int64   `json:"executions,omitempty"` // from -metrics: Δdispatched − Δreplayed
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7001", "registry address")
	secret := flag.String("secret", "", "federation secret (required)")
	lifecycles := flag.Int("lifecycles", 1000, "slice lifecycles to run")
	workers := flag.Int("workers", 32, "concurrent workers")
	renews := flag.Int("renews", 1, "idempotent renewals (re-reserves) per lifecycle")
	sites := flag.Int("sites", 1, "sites per reservation")
	perSite := flag.Int("per-site", 1, "slivers per site")
	ttl := flag.Float64("ttl", 60, "reservation TTL seconds (0 = held until release)")
	release := flag.Bool("release", true, "explicitly release each lifecycle's slivers")
	prefix := flag.String("prefix", "load", "slice-name prefix (reuse to replay a previous run's keys)")
	callTimeout := flag.Duration("call-timeout", 5*time.Second, "per-call timeout")
	maxAttempts := flag.Int("max-attempts", 30, "retry budget per call (generous, to ride through a daemon restart)")
	fault := flag.Bool("fault", false, "dial through a fault-injecting network")
	seed := flag.Uint64("seed", 1, "fault-injection seed")
	metricsAddr := flag.String("metrics", "", "daemon metrics address for the exactly-once counter check")
	expectExec := flag.Int64("expect-executions", -1, "with -metrics: assert Δdispatched−Δreplayed reserves equals this (-1 = report only)")
	verify := flag.Bool("verify", false, "after the run, wait for the substrate to return to full capacity")
	verifyWait := flag.Duration("verify-wait", 2*time.Minute, "how long -verify polls before failing")
	label := flag.String("label", "", "label recorded in the JSON result")
	out := flag.String("out", "", "append the JSON result to this file (default stdout)")
	flag.Parse()

	if *secret == "" {
		fmt.Fprintln(os.Stderr, "fedload: -secret is required")
		os.Exit(2)
	}
	if *lifecycles <= 0 || *workers <= 0 || *renews < 0 {
		fmt.Fprintln(os.Stderr, "fedload: need positive lifecycles/workers and non-negative renews")
		os.Exit(2)
	}

	before, err := reserveCounters(*metricsAddr)
	if err != nil {
		fail(err)
	}

	res := run(runConfig{
		addr: *addr, secret: *secret,
		lifecycles: *lifecycles, workers: *workers, renews: *renews,
		sites: *sites, perSite: *perSite, ttl: *ttl, release: *release,
		prefix: *prefix, callTimeout: *callTimeout, maxAttempts: *maxAttempts,
		fault: *fault, seed: *seed,
	})
	res.Label = *label

	if *metricsAddr != "" {
		after, err := reserveCounters(*metricsAddr)
		if err != nil {
			fail(err)
		}
		res.Executions = (after.dispatched - before.dispatched) - (after.replayed - before.replayed)
		if *expectExec >= 0 && res.Executions != *expectExec {
			fail(fmt.Errorf("exactly-once violated: %d reserve executions (Δdispatched %d − Δreplayed %d), want %d",
				res.Executions, after.dispatched-before.dispatched, after.replayed-before.replayed, *expectExec))
		}
	}

	if err := emit(res, *out); err != nil {
		fail(err)
	}
	if res.Failures > 0 {
		fail(fmt.Errorf("%d calls failed after exhausting retries", res.Failures))
	}
	if res.ShedFailures > 0 {
		// Shed calls never executed (the admission gate rejects before any
		// work), so these are refusals, not lost executions — but a run that
		// could not push its load through still fails.
		fail(fmt.Errorf("%d calls still shed after exhausting retries", res.ShedFailures))
	}
	if *verify {
		if err := verifyIdle(*addr, *verifyWait); err != nil {
			fail(err)
		}
	}
}

type runConfig struct {
	addr, secret, prefix        string
	lifecycles, workers, renews int
	sites, perSite              int
	ttl                         float64
	release, fault              bool
	seed                        uint64
	callTimeout                 time.Duration
	maxAttempts                 int
}

func run(cfg runConfig) result {
	var (
		reserves, releases, failures atomic.Int64
		shed, shedFailures           atomic.Int64
		retries, redials             atomic.Int64
		latMu                        sync.Mutex
		latencies                    []float64 // reserve-call millis
	)
	next := atomic.Int64{}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			ccfg := sfa.ClientConfig{
				Addr: cfg.addr, CallTimeout: cfg.callTimeout,
				MaxAttempts: cfg.maxAttempts,
				RetryBase:   5 * time.Millisecond, RetryMax: 250 * time.Millisecond,
				Seed: cfg.seed + uint64(w),
			}
			if cfg.fault {
				d := faultnet.NewDialer(faultnet.Config{
					Seed:  cfg.seed*1_000_003 + uint64(w)*7919,
					PDrop: 0.03, PPartial: 0.03, PCorrupt: 0.02, PDropResponse: 0.05,
					PLatency: 0.05, MaxLatency: 2 * time.Millisecond,
				})
				ccfg.DialFunc = d.Dial
			}
			c := sfa.NewClient(ccfg)
			defer func() {
				st := c.Stats()
				retries.Add(st.Retries)
				redials.Add(st.Redials)
				shed.Add(st.Shed)
				c.Close()
			}()
			cred := sfa.IssueCredential([]byte(cfg.secret), "fedload", "fedload", time.Hour)
			var local []float64
			for {
				i := next.Add(1) - 1
				if i >= int64(cfg.lifecycles) {
					break
				}
				slice := fmt.Sprintf("%s-%d", cfg.prefix, i)
				var rr sfa.ReserveResponse
				ok := true
				// Reserve, then renew by re-issuing the same key: the
				// server must replay, not double-book.
				for attempt := 0; attempt <= cfg.renews; attempt++ {
					t0 := time.Now()
					err := c.Call(sfa.MethodReserve, sfa.ReserveRequest{
						Credential: cred, SliceName: slice,
						Sites: cfg.sites, PerSite: cfg.perSite,
						IdempotencyKey: slice + "/r", TTLSeconds: cfg.ttl,
					}, &rr)
					if err != nil {
						if sfa.IsOverloaded(err) {
							shedFailures.Add(1)
						} else {
							failures.Add(1)
						}
						ok = false
						break
					}
					local = append(local, float64(time.Since(t0).Microseconds())/1000)
					reserves.Add(1)
				}
				if !ok || !cfg.release {
					continue
				}
				if err := c.Call(sfa.MethodRelease, sfa.ReleaseRequest{
					Credential: cred, SliceName: slice, Slivers: rr.Slivers,
					IdempotencyKey: slice + "/rel",
				}, nil); err != nil {
					if sfa.IsOverloaded(err) {
						shedFailures.Add(1)
					} else {
						failures.Add(1)
					}
					continue
				}
				releases.Add(1)
			}
			latMu.Lock()
			latencies = append(latencies, local...)
			latMu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := result{
		Addr: cfg.addr, Lifecycles: cfg.lifecycles, Workers: cfg.workers,
		Renews: cfg.renews, Release: cfg.release, Fault: cfg.fault,
		Reserves: reserves.Load(), Releases: releases.Load(),
		Failures: failures.Load(), Shed: shed.Load(), ShedFailures: shedFailures.Load(),
		Retries: retries.Load(), Redials: redials.Load(),
		Seconds: elapsed.Seconds(),
	}
	if cfg.fault {
		res.Seed = cfg.seed
	}
	if res.Seconds > 0 {
		res.ReservesPS = float64(res.Reserves) / res.Seconds
	}
	res.P50Millis = percentile(latencies, 50)
	res.P99Millis = percentile(latencies, 99)
	return res
}

// percentile returns the p-th percentile of values in place (nearest-rank).
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sort.Float64s(values)
	rank := int(math.Ceil(p / 100 * float64(len(values))))
	if rank < 1 {
		rank = 1
	}
	return values[rank-1]
}

// counters holds the two sides of the exactly-once identity.
type counters struct {
	dispatched, replayed int64
}

// reserveCounters reads the daemon's reserve dispatch and replay counters
// from its metrics endpoint. A zero value is returned when addr is empty.
func reserveCounters(addr string) (counters, error) {
	var c counters
	if addr == "" {
		return c, nil
	}
	httpc := &http.Client{Timeout: 10 * time.Second}
	var resp *http.Response
	var err error
	delay := 100 * time.Millisecond
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			time.Sleep(delay)
			delay *= 2
		}
		resp, err = httpc.Get("http://" + addr + "/metrics.json")
		if err == nil {
			break
		}
	}
	if err != nil {
		return c, fmt.Errorf("metrics fetch: %w", err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return c, fmt.Errorf("metrics decode: %w", err)
	}
	for _, f := range snap.Families {
		for _, m := range f.Metrics {
			if m.Labels["method"] != sfa.MethodReserve {
				continue
			}
			switch f.Name {
			case "fedshare_sfa_requests_total":
				c.dispatched = int64(m.Value)
			case "fedshare_sfa_dedup_replays_total":
				c.replayed = int64(m.Value)
			}
		}
	}
	return c, nil
}

// verifyIdle polls the registry until every site reports free == capacity —
// all load released (explicitly or via lease expiry) — or the wait elapses.
func verifyIdle(addr string, wait time.Duration) error {
	c, err := sfa.Dial(addr, 10*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	deadline := time.Now().Add(wait)
	for {
		var rl sfa.ResourceList
		if err := c.Call(sfa.MethodListResources, sfa.Empty{}, &rl); err != nil {
			return err
		}
		held := 0
		for _, s := range rl.Sites {
			held += s.Capacity - s.Free
		}
		if held == 0 {
			fmt.Fprintf(os.Stderr, "fedload: verify ok — substrate back to full capacity\n")
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("verify: %d slivers still held after %s", held, wait)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// emit appends the result as one JSON line to path (stdout when empty).
func emit(res result, path string) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if path == "" {
		fmt.Println(string(b))
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(append(b, '\n'))
	fmt.Println(string(b))
	return err
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fedload:", err)
	os.Exit(1)
}
