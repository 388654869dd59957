package api

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	// The scenarios endpoint serves the figure registry; registering it here
	// mirrors what fedd does.
	_ "fedshare/internal/figures"

	"fedshare/internal/obs"
	"fedshare/internal/scenario"
	"fedshare/internal/scenario/engine"
)

// newTestServer wires an engine + API + health/version routes into an
// httptest server, the same mux shape fedd serves.
func newTestServer(t *testing.T, opts engine.Options) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng := engine.New(opts)
	t.Cleanup(eng.Close)
	mux := obs.HandlerWithHealth(nil)
	NewServer(eng).Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, eng
}

const testSpecJSON = `{
  "id": "api-test",
  "title": "API test scenario",
  "xlabel": "l",
  "facilities": [
    {"name": "A", "locations": 20, "resources": 8},
    {"name": "B", "locations": 40, "resources": 4}
  ],
  "demand": [{"name": "batch", "count": 10}],
  "policies": ["proportional"],
  "axis": {"variable": "threshold", "from": 0, "to": 100, "step": 25}
}`

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func pollDone(t *testing.T, base, id string) RunJSON {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var r RunJSON
		resp := getJSON(t, base+"/api/v1/runs/"+id, &r)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: %s", id, resp.Status)
		}
		switch r.State {
		case "done":
			return r
		case "failed", "cancelled":
			t.Fatalf("run %s ended %s: %s", id, r.State, r.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s never finished", id)
	return RunJSON{}
}

func TestSubmitPollResultLifecycle(t *testing.T) {
	srv, _ := newTestServer(t, engine.Options{})
	resp, err := http.Post(srv.URL+"/api/v1/runs", "application/json",
		strings.NewReader(testSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %s, want 202", resp.Status)
	}
	var run RunJSON
	if err := json.NewDecoder(resp.Body).Decode(&run); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if run.ID == "" || run.Scenario != "api-test" {
		t.Fatalf("submit returned %+v", run)
	}

	final := pollDone(t, srv.URL, run.ID)
	if final.Progress.Done != final.Progress.Total || final.Progress.Total == 0 {
		t.Fatalf("final progress %+v", final.Progress)
	}
	if final.Started == nil || final.Finished == nil {
		t.Fatalf("final run missing timestamps: %+v", final)
	}

	// The result endpoint must serve byte-for-byte what the in-process
	// executor produces for the same spec — the CI api-smoke diff contract.
	res, err := http.Get(srv.URL + "/api/v1/runs/" + run.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("result status = %s", res.Status)
	}
	spec, err := scenario.ParseSpec([]byte(testSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := scenario.RunContext(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := direct.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("API result differs from scenario.RunContext output:\n%s\nvs\n%s", gotBytes, wantBytes)
	}

	// The run list includes the finished run.
	var list struct {
		Runs []RunJSON `json:"runs"`
	}
	getJSON(t, srv.URL+"/api/v1/runs", &list)
	if len(list.Runs) != 1 || list.Runs[0].ID != run.ID {
		t.Fatalf("run list %+v", list.Runs)
	}
}

// TestSubmitCapacityPastIntRange submits a spec whose facility A
// (4 locations of 1e300 resources) hosts 1e300 experiments a location, a
// count past the int range: with 5 requests and any threshold up to 4,
// V(A) = 20, V(B) = 12 and V(AB) = 32, so the Shapley shares are
// 0.625/0.375 on the exact path and on the sampler, whose permutation
// walks see exactly those three values.
func TestSubmitCapacityPastIntRange(t *testing.T) {
	srv, _ := newTestServer(t, engine.Options{})
	for _, method := range []string{"exact", "approx"} {
		spec := `{
  "id": "capacity-past-int-range",
  "facilities": [
    {"name": "A", "locations": 4, "resources": 1e300},
    {"name": "B", "locations": 6, "resources": 2}
  ],
  "demand": [{"name": "batch", "count": 5}],
  "policies": ["shapley"],
  "method": "` + method + `",
  "axis": {"variable": "threshold", "from": 0, "to": 4, "step": 1}
}`
		resp, err := http.Post(srv.URL+"/api/v1/runs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		var run RunJSON
		err = json.NewDecoder(resp.Body).Decode(&run)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: submit %s, %v", method, resp.Status, err)
		}
		pollDone(t, srv.URL, run.ID)
		var res scenario.Result
		getJSON(t, srv.URL+"/api/v1/runs/"+run.ID+"/result", &res)
		if len(res.Series) != 2 {
			t.Fatalf("%s: %d series, want 2", method, len(res.Series))
		}
		for i, want := range []float64{0.625, 0.375} {
			s := res.Series[i]
			if len(s.Points) != 5 {
				t.Fatalf("%s: series %s has %d points, want 5", method, s.Name, len(s.Points))
			}
			for _, p := range s.Points {
				if math.Abs(p.Y-want) > 1e-12 {
					t.Errorf("%s: %s at l = %g is %g, want %g", method, s.Name, p.X, p.Y, want)
				}
			}
		}
	}
}

func TestSubmitRegisteredScenario(t *testing.T) {
	srv, _ := newTestServer(t, engine.Options{})
	resp, err := http.Post(srv.URL+"/api/v1/runs?scenario=fig2", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var run RunJSON
	if err := json.NewDecoder(resp.Body).Decode(&run); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %s", resp.Status)
	}
	final := pollDone(t, srv.URL, run.ID)
	if final.Scenario != "fig2" {
		t.Fatalf("scenario = %s", final.Scenario)
	}

	// Identical to the registry's own run — the acceptance gate that every
	// registered figure is API-reproducible.
	res, err := http.Get(srv.URL + "/api/v1/runs/" + run.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, _ := io.ReadAll(res.Body)
	res.Body.Close()
	entry, err := scenario.ByID("fig2")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := scenario.RunContext(context.Background(), entry.Spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, _ := direct.JSON()
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatal("API result for fig2 differs from registry run")
	}
}

func TestEveryRegisteredSpecSubmittable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered figure; skip in -short mode")
	}
	srv, _ := newTestServer(t, engine.Options{MaxConcurrent: 2})
	for _, e := range scenario.Entries() {
		resp, err := http.Post(srv.URL+"/api/v1/runs?scenario="+e.ID, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var run RunJSON
		if err := json.NewDecoder(resp.Body).Decode(&run); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: %s", e.ID, resp.Status)
		}
		final := pollDone(t, srv.URL, run.ID)
		if final.State != "done" {
			t.Fatalf("scenario %s ended %s", e.ID, final.State)
		}
		if p := final.Progress; p.Total == 0 || p.Done != p.Total {
			t.Errorf("scenario %s ended at progress %d/%d, want every point done", e.ID, p.Done, p.Total)
		}
	}
}

func TestErrorsAreStructuredJSON(t *testing.T) {
	srv, _ := newTestServer(t, engine.Options{})
	cases := []struct {
		name   string
		do     func() (*http.Response, error)
		status int
	}{
		{"invalid spec", func() (*http.Response, error) {
			return http.Post(srv.URL+"/api/v1/runs", "application/json",
				strings.NewReader(`{"id": "bad", "facilties": []}`))
		}, http.StatusBadRequest},
		{"empty body", func() (*http.Response, error) {
			return http.Post(srv.URL+"/api/v1/runs", "application/json", nil)
		}, http.StatusBadRequest},
		{"unknown scenario", func() (*http.Response, error) {
			return http.Post(srv.URL+"/api/v1/runs?scenario=nope", "application/json", nil)
		}, http.StatusNotFound},
		{"unknown run", func() (*http.Response, error) {
			return http.Get(srv.URL + "/api/v1/runs/run-999999")
		}, http.StatusNotFound},
		{"unknown result", func() (*http.Response, error) {
			return http.Get(srv.URL + "/api/v1/runs/run-999999/result")
		}, http.StatusNotFound},
		{"cancel unknown", func() (*http.Response, error) {
			req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/v1/runs/run-999999", nil)
			return http.DefaultClient.Do(req)
		}, http.StatusNotFound},
	}
	for _, tc := range cases {
		resp, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %s, want %d", tc.name, resp.Status, tc.status)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: body %q is not structured error JSON", tc.name, body)
		}
	}
}

// TestSubmitRejectsMalformedSpecBodies posts spec bodies ParseSpec must
// refuse — a valid spec followed by stray closing delimiters, a spec whose
// facility replicas exceed the federation bound, and one whose last axis
// value is out of range — and checks that each gets a structured 400 and
// that nothing is queued.
func TestSubmitRejectsMalformedSpecBodies(t *testing.T) {
	srv, eng := newTestServer(t, engine.Options{})
	// One facility past the bound is enough: the API must refuse it before
	// queueing, not let the run fail (or, for a huge count, exhaust memory)
	// while expanding replicas.
	huge := strings.Replace(testSpecJSON, `"resources": 8}`, `"resources": 8, "count": 4096}`, 1)
	if huge == testSpecJSON {
		t.Fatal("test spec has no facility to replicate")
	}
	for name, body := range map[string]string{
		"trailing brace":    testSpecJSON + "}",
		"trailing bracket":  testSpecJSON + "]",
		"trailing braces":   testSpecJSON + "}}",
		"count past bound":  huge,
		"trailing document": testSpecJSON + "{}",
		"later axis value out of range": strings.Replace(testSpecJSON, `"axis": {"variable": "threshold", "from": 0, "to": 100, "step": 25}`,
			`"axis": {"variable": "locations", "target": "A", "values": [10, 5, -5]}`, 1),
	} {
		resp, err := http.Post(srv.URL+"/api/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &e) != nil || e.Error == "" {
			t.Errorf("%s: %s %s, want a structured 400", name, resp.Status, raw)
		}
	}
	if runs := eng.List(); len(runs) != 0 {
		t.Errorf("rejected bodies queued %d runs", len(runs))
	}
}

func TestResultBeforeDoneConflicts(t *testing.T) {
	srv, eng := newTestServer(t, engine.Options{MaxConcurrent: 1})
	// Occupy the only slot so an API-submitted run stays queued.
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	if _, err := eng.SubmitJob("blocker", func(ctx context.Context, progress scenario.ProgressFunc) (*scenario.Result, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &scenario.Result{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started

	resp, err := http.Post(srv.URL+"/api/v1/runs", "application/json",
		strings.NewReader(testSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	var run RunJSON
	_ = json.NewDecoder(resp.Body).Decode(&run)
	resp.Body.Close()

	res, err := http.Get(srv.URL + "/api/v1/runs/" + run.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusConflict {
		t.Fatalf("result of queued run: %s, want 409", res.Status)
	}

	// DELETE cancels the queued run.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/v1/runs/"+run.ID, nil)
	dres, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cancelled RunJSON
	_ = json.NewDecoder(dres.Body).Decode(&cancelled)
	dres.Body.Close()
	if dres.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %s", dres.Status)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var r RunJSON
		getJSON(t, srv.URL+"/api/v1/runs/"+run.ID, &r)
		if r.State == "cancelled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run state %s, want cancelled", r.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Cancelling again conflicts.
	req2, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/v1/runs/"+run.ID, nil)
	dres2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	dres2.Body.Close()
	if dres2.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel: %s, want 409", dres2.Status)
	}
}

func TestScenariosListing(t *testing.T) {
	srv, _ := newTestServer(t, engine.Options{})
	var list struct {
		Scenarios []scenarioJSON `json:"scenarios"`
	}
	resp := getJSON(t, srv.URL+"/api/v1/scenarios", &list)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scenarios: %s", resp.Status)
	}
	ids := map[string]scenarioJSON{}
	for _, s := range list.Scenarios {
		ids[s.ID] = s
	}
	for _, want := range []string{"fig2", "fig4", "fig9", "fig-market"} {
		if _, ok := ids[want]; !ok {
			t.Errorf("scenarios listing missing %s", want)
		}
	}
}

func TestDashboardServedFromEmbeddedFS(t *testing.T) {
	srv, _ := newTestServer(t, engine.Options{})
	for path, marker := range map[string]string{
		"/":          "fedshare",
		"/app.js":    "api/v1/runs",
		"/style.css": "--series-1",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		if !strings.Contains(string(body), marker) {
			t.Fatalf("GET %s: missing marker %q", path, marker)
		}
	}
	// Zero external dependencies: no asset may reference a CDN or any
	// absolute http(s) URL.
	for _, path := range []string{"/", "/app.js", "/style.css"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, bad := range []string{"https://", "cdn.", "unpkg", "jsdelivr"} {
			if strings.Contains(string(body), bad) {
				t.Errorf("%s references external resource %q", path, bad)
			}
		}
	}
}

func TestMetricsAndVersionStillServedBesideAPI(t *testing.T) {
	srv, _ := newTestServer(t, engine.Options{})
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "fedshare_") {
		t.Fatalf("/metrics broken beside the API: %s", resp.Status)
	}
	var v obs.BuildInfo
	vres := getJSON(t, srv.URL+"/version", &v)
	if vres.StatusCode != http.StatusOK || v.Go == "" {
		t.Fatalf("/version broken: %s %+v", vres.Status, v)
	}
}

func TestMain(m *testing.M) {
	os.Exit(m.Run())
}
