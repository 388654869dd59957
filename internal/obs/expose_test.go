package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func buildTestRegistry() *Registry {
	r := NewRegistry()
	r.Counter("fedshare_test_total", "Total test events.").Add(3)
	r.CounterVec("fedshare_req_total", "Requests by method.", "method").With("sfa.Ping").Add(2)
	r.Gauge("fedshare_depth", "Queue depth.").Set(4)
	r.GaugeFunc("fedshare_cb", "Callback gauge.", func() float64 { return 1.5 })
	h := r.HistogramVec("fedshare_lat_seconds", "Latency.", []float64{0.01, 0.1}, "op")
	h.With("solve").Observe(0.005)
	h.With("solve").Observe(0.05)
	h.With("solve").Observe(5)
	return r
}

func TestPrometheusText(t *testing.T) {
	var sb strings.Builder
	if err := buildTestRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP fedshare_test_total Total test events.",
		"# TYPE fedshare_test_total counter",
		"fedshare_test_total 3",
		`fedshare_req_total{method="sfa.Ping"} 2`,
		"# TYPE fedshare_depth gauge",
		"fedshare_depth 4",
		"fedshare_cb 1.5",
		"# TYPE fedshare_lat_seconds histogram",
		`fedshare_lat_seconds_bucket{op="solve",le="0.01"} 1`,
		`fedshare_lat_seconds_bucket{op="solve",le="0.1"} 2`,
		`fedshare_lat_seconds_bucket{op="solve",le="+Inf"} 3`,
		`fedshare_lat_seconds_sum{op="solve"} 5.055`,
		`fedshare_lat_seconds_count{op="solve"} 3`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing line %q in output:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "", "x").With("a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{x="a\"b\\c\nd"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Errorf("escaped line missing; got:\n%s", sb.String())
	}
}

func TestHandlerEndpoints(t *testing.T) {
	srv := httptest.NewServer(buildTestRegistry().HandlerWithHealth(nil))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if !strings.Contains(sb.String(), "fedshare_test_total 3") {
		t.Errorf("/metrics missing counter:\n%s", sb.String())
	}

	jresp, err := srv.Client().Get(srv.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(jresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	byName := map[string]FamilySnapshot{}
	for _, f := range snap.Families {
		byName[f.Name] = f
	}
	if f, ok := byName["fedshare_test_total"]; !ok || f.Metrics[0].Value != 3 {
		t.Errorf("json counter = %+v", byName["fedshare_test_total"])
	}
	if f, ok := byName["fedshare_lat_seconds"]; !ok || f.Metrics[0].Count != 3 {
		t.Errorf("json histogram = %+v", byName["fedshare_lat_seconds"])
	}
	if f := byName["fedshare_req_total"]; f.Metrics[0].Labels["method"] != "sfa.Ping" {
		t.Errorf("json labels = %+v", byName["fedshare_req_total"])
	}
}

func TestHealthEndpoints(t *testing.T) {
	ready := true
	var mu sync.Mutex
	srv := httptest.NewServer(NewRegistry().HandlerWithHealth(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return ready
	}))
	defer srv.Close()

	status := func(path string) int {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/healthz"); got != 200 {
		t.Errorf("/healthz = %d, want 200", got)
	}
	if got := status("/readyz"); got != 200 {
		t.Errorf("/readyz = %d, want 200 while ready", got)
	}
	mu.Lock()
	ready = false
	mu.Unlock()
	// A draining daemon stays alive but stops being ready.
	if got := status("/healthz"); got != 200 {
		t.Errorf("/healthz while draining = %d, want 200", got)
	}
	if got := status("/readyz"); got != 503 {
		t.Errorf("/readyz while draining = %d, want 503", got)
	}
	// A nil readiness hook means always ready.
	plain := httptest.NewServer(NewRegistry().HandlerWithHealth(nil))
	defer plain.Close()
	resp, err := plain.Client().Get(plain.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("plain /readyz = %d, want 200", resp.StatusCode)
	}
}

func TestSnapshotRoundTripsThroughJSON(t *testing.T) {
	// Every value in a snapshot must be JSON-encodable (no NaN/Inf):
	// histograms keep +Inf implicit as Count for exactly this reason.
	b, err := json.Marshal(buildTestRegistry().Snapshot())
	if err != nil {
		t.Fatalf("snapshot not JSON-encodable: %v", err)
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
}

func TestVersionEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewRegistry().HandlerWithHealth(nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/version = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/version Content-Type = %q", ct)
	}
	var v BuildInfo
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("/version body not JSON: %v", err)
	}
	// A test binary always knows the Go toolchain that built it; module and
	// version may degrade to placeholders outside `go build` but stay set.
	if v.Go == "" {
		t.Error("/version reports empty Go version")
	}
	if v.Module == "" || v.Version == "" {
		t.Errorf("/version missing module/version: %+v", v)
	}
}
