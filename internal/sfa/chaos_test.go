package sfa

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fedshare/internal/faultnet"
	"fedshare/internal/obs"
)

// The chaos suite drives a federation registry with concurrent clients over
// fault-injected connections (drops, partial writes, corrupted frames, lost
// responses, latency) and asserts the federation-plane safety invariants:
//
//   - no reservation is double-booked: every idempotency key executes exactly
//     once, however many times the request is retried (counter identity
//     dispatched - replayed == distinct keys);
//   - no release is double-counted, so capacity accounting stays exact;
//   - every lease is either explicitly released or reaped at expiry, driving
//     utilization back to zero;
//   - the whole run is reproducible: the same seed yields byte-identical
//     per-client transcripts and fault-event logs across runs.
//
// Override the seed with FEDSHARE_CHAOS_SEED=<n> to explore other schedules.

const (
	chaosClients = 6
	chaosCalls   = 8 // reserves per client; every even one is released explicitly
)

func chaosSeed(t *testing.T) uint64 {
	v := os.Getenv("FEDSHARE_CHAOS_SEED")
	if v == "" {
		return 1
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		t.Fatalf("FEDSHARE_CHAOS_SEED=%q: %v", v, err)
	}
	return n
}

type chaosRun struct {
	transcript    string
	reserveReplay int64
	releaseReplay int64
	dropResponses int
}

func runChaos(t *testing.T, seed uint64) chaosRun {
	t.Helper()
	clock := newFakeClock()
	reg := obs.NewRegistry()
	srv := startServer(t, buildAuthority(t, "CHAOS", 8, 2, 8),
		WithMetrics(reg),
		WithConfig(ServerConfig{
			IdleReadDeadline:  500 * time.Millisecond,
			LeaseReapInterval: 2 * time.Millisecond,
			Now:               clock.Now,
		}))

	transcripts := make([][]string, chaosClients)
	dialers := make([]*faultnet.Dialer, chaosClients)
	var wg sync.WaitGroup
	for i := 0; i < chaosClients; i++ {
		i := i
		// Fault plans are drawn client-side so concurrency cannot perturb
		// them: each client dials serially, and the SFA client issues exactly
		// one buffered write per request, so write indices — and therefore
		// the injected fault schedule — depend only on the seed.
		dialers[i] = faultnet.NewDialer(faultnet.Config{
			Seed:  seed*1_000_003 + uint64(i)*7919,
			PDrop: 0.06, PPartial: 0.05, PCorrupt: 0.05, PDropResponse: 0.10,
			PLatency: 0.10, MaxLatency: 2 * time.Millisecond,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient(ClientConfig{
				Addr: srv.Addr(), DialFunc: dialers[i].Dial,
				CallTimeout: 2 * time.Second, MaxAttempts: 30,
				RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond,
				Seed:     seed + uint64(i),
				Registry: reg,
			})
			defer c.Close()
			for k := 0; k < chaosCalls; k++ {
				slice := fmt.Sprintf("chaos-c%d-s%d", i, k)
				before := c.Stats().Retries
				var rr ReserveResponse
				err := c.Call(MethodReserve, ReserveRequest{
					Credential: userCred(), SliceName: slice, Sites: 1, PerSite: 1,
					IdempotencyKey: slice + "/reserve", TTLSeconds: 30,
				}, &rr)
				attempts := c.Stats().Retries - before + 1
				if err != nil {
					t.Errorf("client %d reserve %d failed despite retry budget: %v", i, k, err)
					transcripts[i] = append(transcripts[i],
						fmt.Sprintf("c%d.reserve%d attempts=%d err", i, k, attempts))
					continue
				}
				transcripts[i] = append(transcripts[i],
					fmt.Sprintf("c%d.reserve%d attempts=%d slivers=%d", i, k, attempts, len(rr.Slivers)))
				if k%2 != 0 {
					continue // odd reservations are left to expire via TTL
				}
				before = c.Stats().Retries
				err = c.Call(MethodRelease, ReleaseRequest{
					Credential: userCred(), SliceName: slice, Slivers: rr.Slivers,
					IdempotencyKey: slice + "/release",
				}, nil)
				attempts = c.Stats().Retries - before + 1
				if err != nil {
					t.Errorf("client %d release %d failed despite retry budget: %v", i, k, err)
				}
				transcripts[i] = append(transcripts[i],
					fmt.Sprintf("c%d.release%d attempts=%d ok=%v", i, k, attempts, err == nil))
			}
		}()
	}
	wg.Wait()

	run := chaosRun{
		reserveReplay: counterValue(reg, "fedshare_sfa_dedup_replays_total", MethodReserve),
		releaseReplay: counterValue(reg, "fedshare_sfa_dedup_replays_total", MethodRelease),
	}

	// Exactly-once execution, by counter identity: every dispatched keyed
	// request either executed (once per distinct key) or replayed.
	const totalReserves = chaosClients * chaosCalls
	const totalReleases = totalReserves / 2
	if n := counterValue(reg, "fedshare_sfa_errors_total", MethodReserve); n != 0 {
		t.Errorf("reserve errors = %d, want 0 (capacity is ample)", n)
	}
	if n := counterValue(reg, "fedshare_sfa_errors_total", MethodRelease); n != 0 {
		t.Errorf("release errors = %d, want 0", n)
	}
	dispatched := counterValue(reg, "fedshare_sfa_requests_total", MethodReserve)
	if executed := dispatched - run.reserveReplay; executed != totalReserves {
		t.Errorf("reserve executions = %d (dispatched %d - replayed %d), want %d: double-booking or lost execution",
			executed, dispatched, run.reserveReplay, totalReserves)
	}
	relDispatched := counterValue(reg, "fedshare_sfa_requests_total", MethodRelease)
	if executed := relDispatched - run.releaseReplay; executed != totalReleases {
		t.Errorf("release executions = %d (dispatched %d - replayed %d), want %d: capacity accounting corrupted",
			executed, relDispatched, run.releaseReplay, totalReleases)
	}

	// Lease lifecycle: the unreleased half is still leased, then the reaper
	// returns the authority to empty once the TTLs elapse.
	active := reg.Gauge("fedshare_sfa_leases_active", "")
	if got := active.Value(); got != float64(totalReserves-totalReleases) {
		t.Errorf("leases_active after run = %g, want %d", got, totalReserves-totalReleases)
	}
	clock.Advance(time.Minute)
	expired := reg.Counter("fedshare_sfa_leases_expired_total", "")
	waitFor(t, "chaos leases to expire", func() bool {
		return active.Value() == 0 &&
			expired.Value() == int64(totalReserves-totalReleases) &&
			srv.auth.Utilization() == 0
	})

	var lines []string
	for i := range transcripts {
		lines = append(lines, transcripts[i]...)
	}
	for i, d := range dialers {
		for _, ev := range d.Events() {
			if strings.Contains(ev, "drop-response") {
				run.dropResponses++
			}
			lines = append(lines, fmt.Sprintf("c%d.%s", i, ev))
		}
	}
	run.transcript = strings.Join(lines, "\n")
	return run
}

func TestChaosFederationUnderFaults(t *testing.T) {
	seed := chaosSeed(t)
	a := runChaos(t, seed)
	// A lost response forces a retry of an already-executed request, which
	// the dedup table must answer by replay — the scenario idempotency keys
	// exist for. At the default fault rates this occurs many times per run.
	if a.dropResponses > 0 && a.reserveReplay+a.releaseReplay == 0 {
		t.Errorf("%d responses dropped but no dedup replays recorded", a.dropResponses)
	}
	// Reproducibility: a second run at the same seed must produce the same
	// per-client call transcripts and the same fault-event schedule.
	b := runChaos(t, seed)
	if a.transcript != b.transcript {
		t.Errorf("chaos run not reproducible at seed %d:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			seed, a.transcript, b.transcript)
	}
}
