package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fedshare/internal/coalition"
	"fedshare/internal/core"
	"fedshare/internal/scenario"
	"fedshare/internal/scenario/engine"
	"fedshare/internal/sfa"
	"fedshare/internal/stats"
)

// runJob runs one job through an engine as a pass does.
func runJob(t *testing.T, j computeJob) *scenario.Result {
	t.Helper()
	eng := engine.New(engine.Options{MaxConcurrent: 1})
	defer eng.Close()
	r, err := submitJob(context.Background(), eng, j, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r.Result
}

// corrupted returns a deep copy of res with one point of series s nudged.
func corrupted(res *scenario.Result, s int) *scenario.Result {
	c := *res
	c.Series = make([]stats.Series, len(res.Series))
	for i, ser := range res.Series {
		c.Series[i] = stats.Series{Name: ser.Name, Points: append([]stats.Point(nil), ser.Points...)}
	}
	c.Series[s].Points[0].Y += 1e-3
	return &c
}

func wantGate(t *testing.T, what string, err error, contains string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), contains) {
		t.Errorf("%s: gate error %v, want one mentioning %q", what, err, contains)
	}
}

func TestCorruptedResultTripsGate(t *testing.T) {
	jobs, err := paperJobs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := attachGoldens(jobs, "../.."); err != nil {
		t.Fatal(err)
	}
	var fig4 computeJob
	for _, j := range jobs {
		if j.id() == "fig4" {
			fig4 = j
		}
	}
	res := runJob(t, fig4)
	if err := checkJob(fig4, res, map[string]string{}); err != nil {
		t.Fatalf("intact fig4: %v", err)
	}
	wantGate(t, "fig4 golden", checkJob(fig4, corrupted(res, 0), map[string]string{}), "golden")

	fed, err := parsed(federationSpecs(1, 0.1)[1])
	if err != nil {
		t.Fatal(err)
	}
	j := fed[0]
	res = runJob(t, j)
	if err := checkJob(j, res, map[string]string{}); err != nil {
		t.Fatalf("intact sampled job: %v", err)
	}
	wantGate(t, "efficiency", checkJob(j, corrupted(res, 0), map[string]string{}), "Σφ̂ = V(N)")
	wantGate(t, "determinism", checkJob(j, res, map[string]string{j.id(): "another table"}), "first pass")

	policy := func(m *core.Model) (*coalition.ValueResult, error) { return approxPolicy(j.spec).Result(m) }
	if _, err := verifyApprox(j.spec, res, policy); err != nil {
		t.Fatalf("intact sampled job against the policy: %v", err)
	}
	// Moving value between two templates keeps Σφ̂ = V(N) but changes the
	// shares the engine reported.
	shifted := func(m *core.Model) (*coalition.ValueResult, error) {
		vr, err := policy(m)
		if err == nil {
			vr.Phi[0] += 1e-6
			vr.Phi[len(vr.Phi)-1] -= 1e-6
		}
		return vr, err
	}
	wantGate(t, "policy identity", func() error { _, err := verifyApprox(j.spec, res, shifted); return err }(), "differs from the engine")
	unconverged := func(m *core.Model) (*coalition.ValueResult, error) {
		vr, err := policy(m)
		if err == nil {
			vr.Converged = false
		}
		return vr, err
	}
	wantGate(t, "convergence", func() error { _, err := verifyApprox(j.spec, res, unconverged); return err }(), "CI target")

	// One reserve executed twice: the coordinator's count exceeds its keys.
	counters := func(reserves, replays, releases int64) serverCounters {
		return serverCounters{
			reqs:    map[string]int64{sfa.MethodReserve: reserves, sfa.MethodRelease: releases},
			replays: map[string]int64{sfa.MethodReserve: replays},
		}
	}
	counts := &tally{creates: 10, withPLE: 10, reserveKeys: 10, releases: 10}
	rep := newReport()
	checkExactlyOnce(rep, counts, counters(20, 10, 10), counters(10, 0, 10), counters(0, 0, 0), false)
	if len(rep.gates) != 0 {
		t.Fatalf("exact counts tripped the gate: %v", rep.gates)
	}
	rep = newReport()
	checkExactlyOnce(rep, counts, counters(21, 10, 10), counters(10, 0, 10), counters(0, 0, 0), false)
	if len(rep.gates) != 1 || !strings.Contains(rep.gates[0], "PLC executed 11 reserves for 10 keys") {
		t.Errorf("double execution: gates %v", rep.gates)
	}
}

// TestCompareRejectsFailedRuns checks that a run that failed its checks,
// and so reports 0 for what it did not measure, neither counts as a win
// nor passes the comparison.
func TestCompareRejectsFailedRuns(t *testing.T) {
	bench, err := loadBenchmark("../..")
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, pass func(i int) float64, corrupt bool) string {
		f := runFile{Schema: runFileSchema}
		for i := 0; i < 10; i++ {
			r := runRecord{Workload: "walk", Seed: uint64(i), result: result{
				Correct: true, Attempted: 10, Metrics: map[string]metricValue{"pass_s": {Value: pass(i), Unit: "s"}},
			}}
			if corrupt && i == 3 {
				r.Correct, r.Failed, r.Metrics["pass_s"] = false, 1, metricValue{Unit: "s"}
			}
			f.Runs = append(f.Runs, r)
		}
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", func(i int) float64 { return 1 + float64(i)/100 }, false)
	for _, tc := range []struct {
		name          string
		pass          func(i int) float64
		corrupt       bool
		want          string
		wantRegressed bool
	}{
		{"same", func(i int) float64 { return 1 + float64(9-i)/100 }, false, "within bound", false},
		{"faster", func(i int) float64 { return 0.5 + float64(i)/200 }, false, "improved", false},
		{"slower", func(i int) float64 { return 2 + float64(i)/50 }, false, "regressed", true},
		{"corrupted", func(i int) float64 { return 1 + float64(i)/100 }, true, "failed", true},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, base, write(tc.name+".json", tc.pass, tc.corrupt), bench)
		if err != nil {
			t.Fatal(err)
		}
		var line string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "walk") && strings.Contains(l, "pass_s") {
				line = l
			}
		}
		if regressed != tc.wantRegressed || !strings.Contains(line, tc.want) {
			t.Errorf("%s: regressed %t, line %q; want %t and %q", tc.name, regressed, line, tc.wantRegressed, tc.want)
		}
	}
}
