package api

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fedshare/internal/scenario"
	"fedshare/internal/scenario/engine"
)

// BenchmarkInProcessRun is the baseline: the same spec executed directly by
// the scenario layer, no engine, no HTTP. The delta against
// BenchmarkServedRun is the service plane's overhead (BENCH_9.json).
func BenchmarkInProcessRun(b *testing.B) {
	spec, err := scenario.ParseSpec([]byte(testSpecJSON))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.RunContext(context.Background(), spec, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServedRun measures the full API round trip for one experiment:
// POST the spec, poll until done, GET the result bytes — submit→result
// latency as a dashboard or script client experiences it.
func BenchmarkServedRun(b *testing.B) {
	eng := engine.New(engine.Options{MaxConcurrent: 1, MaxRuns: 16})
	defer eng.Close()
	mux := http.NewServeMux()
	NewServer(eng).RegisterAPI(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(srv.URL+"/api/v1/runs", "application/json",
			strings.NewReader(testSpecJSON))
		if err != nil {
			b.Fatal(err)
		}
		var run RunJSON
		if err := json.NewDecoder(resp.Body).Decode(&run); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		for run.State != "done" {
			if run.State == "failed" || run.State == "cancelled" {
				b.Fatalf("run ended %s: %s", run.State, run.Error)
			}
			pr, err := http.Get(srv.URL + "/api/v1/runs/" + run.ID)
			if err != nil {
				b.Fatal(err)
			}
			if err := json.NewDecoder(pr.Body).Decode(&run); err != nil {
				b.Fatal(err)
			}
			pr.Body.Close()
		}
		rr, err := http.Get(srv.URL + "/api/v1/runs/" + run.ID + "/result")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, rr.Body); err != nil {
			b.Fatal(err)
		}
		rr.Body.Close()
	}
}
