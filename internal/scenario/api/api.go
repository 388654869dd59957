// Package api serves scenario experiments over HTTP/JSON. It is the
// service layer on top of the async engine (internal/scenario/engine):
// clients submit declarative specs or registered scenario ids, poll run
// state and per-point progress, fetch full result JSON, and cancel runs.
// The package also carries the embedded zero-dependency dashboard
// (dashboard.go) that renders the same endpoints in a browser.
//
// The API mounts onto fedd's existing metrics mux, so one listener serves
// /metrics, the health probes, /version, the dashboard, and:
//
//	GET    /api/v1/scenarios        registry listing
//	POST   /api/v1/runs             submit a spec (body) or ?scenario=<id>
//	GET    /api/v1/runs             run table
//	GET    /api/v1/runs/{id}        one run's state and progress
//	GET    /api/v1/runs/{id}/result completed run's result JSON
//	DELETE /api/v1/runs/{id}        cancel a queued or running run
//
// Errors are structured JSON ({"error": "..."}) with conventional status
// codes: 400 invalid spec, 404 unknown run/scenario, 409 conflicting run
// state, 503 engine shut down.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"fedshare/internal/obs"
	"fedshare/internal/scenario"
	"fedshare/internal/scenario/engine"
)

// maxSpecBytes bounds a submitted spec document; real specs are a few KB.
const maxSpecBytes = 1 << 20

// API-plane instrumentation.
var (
	requestsTotal = obs.Default.CounterVec("fedshare_api_requests_total",
		"Scenario API requests served, by route and status class.", "route", "status")
	requestSeconds = obs.Default.HistogramVec("fedshare_api_request_seconds",
		"Scenario API request latency by route.", nil, "route")
)

// Server exposes an engine over HTTP/JSON.
type Server struct {
	eng *engine.Engine
}

// NewServer returns a Server backed by the given engine.
func NewServer(eng *engine.Engine) *Server {
	return &Server{eng: eng}
}

// Register mounts the API routes and the embedded dashboard on mux. The
// dashboard takes the mux root; metrics/health routes registered elsewhere
// on the same mux keep their more-specific patterns.
func (s *Server) Register(mux *http.ServeMux) {
	s.RegisterAPI(mux)
	RegisterDashboard(mux)
}

// RegisterAPI mounts only the /api/v1 routes (no dashboard).
func (s *Server) RegisterAPI(mux *http.ServeMux) {
	mux.HandleFunc("GET /api/v1/scenarios", s.instrument("scenarios", s.handleScenarios))
	mux.HandleFunc("POST /api/v1/runs", s.instrument("submit", s.handleSubmit))
	mux.HandleFunc("GET /api/v1/runs", s.instrument("runs", s.handleList))
	mux.HandleFunc("GET /api/v1/runs/{id}", s.instrument("run", s.handleGet))
	mux.HandleFunc("GET /api/v1/runs/{id}/result", s.instrument("result", s.handleResult))
	mux.HandleFunc("DELETE /api/v1/runs/{id}", s.instrument("cancel", s.handleCancel))
}

// statusRecorder captures the status code a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the per-route request counter and
// latency histogram.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(rec, req)
		requestSeconds.With(route).ObserveDuration(time.Since(start))
		requestsTotal.With(route, fmt.Sprintf("%dxx", rec.status/100)).Inc()
	}
}

// errorJSON is the structured error document every failing route returns.
type errorJSON struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(errorJSON{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// scenarioJSON is one registry entry in the listing.
type scenarioJSON struct {
	ID        string `json:"id"`
	Title     string `json:"title"`
	Variant   bool   `json:"variant,omitempty"`
	Extension bool   `json:"extension,omitempty"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, req *http.Request) {
	entries := scenario.Entries()
	out := make([]scenarioJSON, 0, len(entries))
	for _, e := range entries {
		out = append(out, scenarioJSON{
			ID: e.ID, Title: e.Title,
			Variant: e.Variant, Extension: e.Extension,
		})
	}
	writeJSON(w, http.StatusOK, struct {
		Scenarios []scenarioJSON `json:"scenarios"`
	}{out})
}

// RunJSON is the wire view of one engine run. Timestamps are RFC 3339;
// Started/Finished are omitted until the run reaches those states.
type RunJSON struct {
	ID       string          `json:"id"`
	Scenario string          `json:"scenario"`
	State    string          `json:"state"`
	Progress engine.Progress `json:"progress"`
	Error    string          `json:"error,omitempty"`

	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// ElapsedSeconds is queue-exit to finish (or to now for a running run).
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
}

func runView(r engine.Run) RunJSON {
	v := RunJSON{
		ID:       r.ID,
		Scenario: r.ScenarioID,
		State:    string(r.State),
		Progress: r.Progress,
		Error:    r.Error,

		Submitted: r.Submitted,
	}
	if !r.Started.IsZero() {
		t := r.Started
		v.Started = &t
		end := time.Now()
		if !r.Finished.IsZero() {
			end = r.Finished
		}
		v.ElapsedSeconds = end.Sub(r.Started).Seconds()
	}
	if !r.Finished.IsZero() {
		t := r.Finished
		v.Finished = &t
	}
	return v
}

func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var (
		id  string
		err error
	)
	if name := req.URL.Query().Get("scenario"); name != "" {
		entry, lookupErr := scenario.ByID(name)
		if lookupErr != nil {
			writeError(w, http.StatusNotFound, "%v", lookupErr)
			return
		}
		id, err = s.eng.SubmitEntry(entry)
	} else {
		body, readErr := io.ReadAll(io.LimitReader(req.Body, maxSpecBytes+1))
		if readErr != nil {
			writeError(w, http.StatusBadRequest, "read spec: %v", readErr)
			return
		}
		if len(body) > maxSpecBytes {
			writeError(w, http.StatusRequestEntityTooLarge, "spec exceeds %d bytes", maxSpecBytes)
			return
		}
		if len(body) == 0 {
			writeError(w, http.StatusBadRequest, "empty body: POST a scenario spec document, or use ?scenario=<id> for a registered one")
			return
		}
		var spec *scenario.Spec
		spec, err = scenario.ParseSpec(body)
		if err == nil {
			id, err = s.eng.Submit(spec)
		}
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, engine.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return
	}
	r, getErr := s.eng.Get(id)
	if getErr != nil {
		writeError(w, http.StatusInternalServerError, "%v", getErr)
		return
	}
	writeJSON(w, http.StatusAccepted, runView(r))
}

func (s *Server) handleList(w http.ResponseWriter, req *http.Request) {
	runs := s.eng.List()
	out := make([]RunJSON, 0, len(runs))
	for _, r := range runs {
		out = append(out, runView(r))
	}
	writeJSON(w, http.StatusOK, struct {
		Runs []RunJSON `json:"runs"`
	}{out})
}

func (s *Server) handleGet(w http.ResponseWriter, req *http.Request) {
	r, err := s.eng.Get(req.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, runView(r))
}

func (s *Server) handleResult(w http.ResponseWriter, req *http.Request) {
	r, err := s.eng.Get(req.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	if r.State != engine.StateDone {
		status := http.StatusConflict
		msg := fmt.Sprintf("run %s is %s, not done", r.ID, r.State)
		if r.Error != "" {
			msg += ": " + r.Error
		}
		writeError(w, status, "%s", msg)
		return
	}
	// Exactly scenario.Result.JSON() bytes, so the result a client fetches
	// from the API diffs clean against fedsim -result-json for the same
	// spec (the CI api-smoke gate).
	out, err := r.Result.JSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(out)
}

func (s *Server) handleCancel(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	switch err := s.eng.Cancel(id); {
	case err == nil:
		r, getErr := s.eng.Get(id)
		if getErr != nil {
			writeError(w, http.StatusInternalServerError, "%v", getErr)
			return
		}
		writeJSON(w, http.StatusOK, runView(r))
	case errors.Is(err, engine.ErrNotFound):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, engine.ErrFinished):
		writeError(w, http.StatusConflict, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}
