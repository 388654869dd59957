// Integration tests for the command-line tools: build the real binaries and
// drive a two-authority federation end to end over loopback TCP.
package fedshare_test

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildTools compiles the three binaries once into a temp dir.
func buildTools(t *testing.T) (fedd, fedctl, fedsim string) {
	t.Helper()
	dir := t.TempDir()
	for _, tool := range []string{"fedd", "fedctl", "fedsim"} {
		out := filepath.Join(dir, tool)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+tool)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, msg)
		}
	}
	return filepath.Join(dir, "fedd"), filepath.Join(dir, "fedctl"), filepath.Join(dir, "fedsim")
}

// freePort reserves an ephemeral TCP port and returns the address.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

func waitReachable(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			_ = conn.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("daemon at %s never came up", addr)
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIFederationEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skip in -short mode")
	}
	fedd, fedctl, _ := buildTools(t)
	addrA, addrB := freePort(t), freePort(t)

	// Two daemons: PLC (4 sites), PLE (8 sites) peering with PLC.
	dA := exec.Command(fedd, "-name", "PLC", "-listen", addrA,
		"-sites", "4", "-nodes", "1", "-capacity", "2", "-secret", "it")
	if err := dA.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dA.Process.Kill(); _, _ = dA.Process.Wait() }()
	waitReachable(t, addrA)

	dB := exec.Command(fedd, "-name", "PLE", "-listen", addrB,
		"-sites", "8", "-nodes", "1", "-capacity", "2", "-secret", "it",
		"-peer", addrA)
	if err := dB.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dB.Process.Kill(); _, _ = dB.Process.Wait() }()
	waitReachable(t, addrB)
	// Give the peering handshake a moment to complete on both sides.
	time.Sleep(300 * time.Millisecond)

	// fedctl ping / record / resources.
	if out := run(t, fedctl, "-addr", addrA, "ping"); !strings.Contains(out, "pong") {
		t.Errorf("ping: %q", out)
	}
	if out := run(t, fedctl, "-addr", addrA, "record"); !strings.Contains(out, "PLC") {
		t.Errorf("record: %q", out)
	}
	out := run(t, fedctl, "-addr", addrA, "resources")
	if !strings.Contains(out, "4 sites") {
		t.Errorf("resources: %q", out)
	}
	// XML RSpec export.
	out = run(t, fedctl, "-addr", addrA, "resources", "-xml")
	if !strings.Contains(out, `<rspec type="advertisement" authority="PLC">`) {
		t.Errorf("rspec: %q", out)
	}

	// Federated slice: 10 sites needs both authorities (4 + 8).
	out = run(t, fedctl, "-addr", addrA, "-secret", "it",
		"slice", "create", "global", "-min-sites", "10")
	if !strings.Contains(out, "slice global:") {
		t.Errorf("slice create: %q", out)
	}

	// Usage accounting reflects both contributors.
	out = run(t, fedctl, "-addr", addrA, "usage")
	if !strings.Contains(out, "PLC") || !strings.Contains(out, "PLE") {
		t.Errorf("usage: %q", out)
	}

	// Shares over the wire.
	out = run(t, fedctl, "-addr", addrB, "shares", "-policy", "shapley")
	if !strings.Contains(out, "PLC") || !strings.Contains(out, "PLE") || !strings.Contains(out, "%") {
		t.Errorf("shares: %q", out)
	}

	// Cleanup via the protocol.
	out = run(t, fedctl, "-addr", addrA, "-secret", "it", "slice", "delete", "global")
	if !strings.Contains(out, "deleted") {
		t.Errorf("slice delete: %q", out)
	}
}

// TestCLIFeddLogLevel checks -log-level: an unknown level exits 2 naming
// it, and warn, which slog's level names add, starts a daemon that serves.
func TestCLIFeddLogLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skip in -short mode")
	}
	fedd, fedctl, _ := buildTools(t)
	out, err := exec.Command(fedd, "-secret", "it", "-log-level", "chatty").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("-log-level chatty: %v, want exit status 2", err)
	}
	if !strings.Contains(string(out), `"chatty"`) {
		t.Errorf("-log-level chatty error does not name the value: %q", out)
	}

	addr := freePort(t)
	d := exec.Command(fedd, "-name", "PLC", "-listen", addr, "-sites", "1", "-secret", "it", "-log-level", "warn")
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Process.Kill(); _, _ = d.Process.Wait() }()
	waitReachable(t, addr)
	if out := run(t, fedctl, "-addr", addr, "ping"); !strings.Contains(out, "pong") {
		t.Errorf("ping at -log-level warn: %q", out)
	}
}

// TestCLIGracefulDrain covers the daemon's shutdown path: SIGTERM flips
// /readyz to 503 during the lame-duck grace period, the daemon drains its
// connections, and the process exits cleanly.
func TestCLIGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skip in -short mode")
	}
	fedd, _, _ := buildTools(t)
	addrA, addrB, maddr := freePort(t), freePort(t), freePort(t)

	dA := exec.Command(fedd, "-name", "PLC", "-listen", addrA,
		"-sites", "2", "-nodes", "1", "-capacity", "2", "-secret", "it")
	if err := dA.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dA.Process.Kill(); _, _ = dA.Process.Wait() }()
	waitReachable(t, addrA)

	var logB strings.Builder
	dB := exec.Command(fedd, "-name", "PLE", "-listen", addrB,
		"-sites", "2", "-nodes", "1", "-capacity", "2", "-secret", "it",
		"-peer", addrA, "-metrics-addr", maddr, "-drain-grace", "3s")
	dB.Stderr = &logB
	if err := dB.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dB.Process.Kill(); _, _ = dB.Process.Wait() }()
	waitReachable(t, addrB)
	waitReachable(t, maddr)

	httpc := &http.Client{Timeout: 2 * time.Second}
	get := func(path string) (int, string) {
		resp, err := httpc.Get("http://" + maddr + path)
		if err != nil {
			return 0, err.Error()
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("/healthz = %d, want 200", code)
	}
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("/readyz = %d, want 200 before drain", code)
	}
	// The daemon exposes the fault-tolerance metric families: the server's
	// lease/dedup instrumentation and (because -peer created an SFA client)
	// the client retry/breaker families.
	_, metrics := get("/metrics")
	for _, family := range []string{
		"fedshare_sfa_leases_active",
		"fedshare_sfa_leases_expired_total",
		"fedshare_sfa_dedup_replays_total",
		"fedshare_sfa_client_retries_total",
		"fedshare_sfa_client_redials_total",
		"fedshare_sfa_client_breaker_state",
	} {
		if !strings.Contains(metrics, family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}

	if err := dB.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Within the 3s lame-duck window the process is still alive and
	// readiness reports 503.
	flipped := false
	for i := 0; i < 100; i++ {
		if code, _ := get("/readyz"); code == 503 {
			flipped = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !flipped {
		t.Error("/readyz never flipped to 503 after SIGTERM")
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Error("/healthz should stay 200 while draining")
	}

	done := make(chan error, 1)
	go func() { done <- dB.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("fedd exited uncleanly: %v\n%s", err, logB.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("fedd did not exit after SIGTERM")
	}
	if out := logB.String(); !strings.Contains(out, "draining") {
		t.Errorf("daemon log missing drain notice:\n%s", out)
	}
}

func TestCLIFedsim(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skip in -short mode")
	}
	_, _, fedsim := buildTools(t)
	out := run(t, fedsim, "-fig", "fig2")
	if !strings.Contains(out, "fig2") || !strings.Contains(out, "d=1.0") {
		t.Errorf("fig2 output: %q", out)
	}
	out = run(t, fedsim, "-diagram")
	if !strings.Contains(out, "federation model") {
		t.Errorf("diagram output: %q", out)
	}
	out = run(t, fedsim, "-fig", "fig4", "-chart")
	if !strings.Contains(out, "legend:") {
		t.Errorf("chart output missing legend")
	}
	// The offline weight table prints the committed bytes.
	want, err := os.ReadFile(filepath.Join("testdata", "fedsim-weights.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out := run(t, fedsim, "-weights"); out != string(want) {
		t.Errorf("-weights output differs from testdata/fedsim-weights.golden:\n%s", out)
	}
	// -weights refuses an output flag it would otherwise ignore.
	if out, err := exec.Command(fedsim, "-weights", "-json").CombinedOutput(); err == nil {
		t.Errorf("-weights -json should exit non-zero; printed:\n%s", out)
	} else if !strings.Contains(string(out), "-json") {
		t.Errorf("-weights -json error does not name the flag: %q", out)
	}
	// The sampled paths print the committed fixed-seed result documents:
	// the collapsed game's walks (hetero200), the member-list walker's
	// batched walks (hetero5 forced to sample) and walks whose every step
	// falls back to the greedy engine (mixed-workload).
	for _, g := range []struct {
		golden string
		args   []string
	}{
		{"fedsim-hetero200.golden", []string{"-scenario", "examples/scenarios/hetero200.json"}},
		{"fedsim-hetero5-approx.golden", []string{"-scenario", "examples/scenarios/hetero5.json", "-approx", "-samples", "200", "-seed", "7"}},
		{"fedsim-mixed-workload-approx.golden", []string{"-scenario", "examples/scenarios/mixed-workload.json", "-approx", "-samples", "12", "-seed", "7"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", g.golden))
		if err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(fedsim, append(g.args, "-result-json")...).Output()
		if err != nil {
			t.Fatalf("fedsim %v -result-json: %v", g.args, err)
		}
		if string(out) != string(want) {
			t.Errorf("fedsim %v -result-json differs from testdata/%s", g.args, g.golden)
		}
	}
	// An unknown figure exits 2, and still writes both profiles.
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var exit *exec.ExitError
	if err := exec.Command(fedsim, "-cpuprofile", cpu, "-memprofile", mem, "-fig", "nope").Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("unknown figure: %v, want exit status 2", err)
	}
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Error(err)
		} else if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s after a failed run: %d bytes, want a gzip-framed profile", filepath.Base(path), len(b))
		}
	}
}

// TestCLIServedExperiments drives the scenario service plane end to end:
// fedd -api serves the engine over HTTP, fedctl submits a spec file and
// streams back the result, and the bytes match what fedsim produces for the
// same spec in-process — the contract the CI api-smoke job also enforces.
func TestCLIServedExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skip in -short mode")
	}
	fedd, fedctl, fedsim := buildTools(t)
	addr, maddr := freePort(t), freePort(t)

	d := exec.Command(fedd, "-name", "PLC", "-listen", addr,
		"-sites", "2", "-nodes", "1", "-capacity", "2", "-secret", "it",
		"-metrics-addr", maddr, "-api")
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Process.Kill(); _, _ = d.Process.Wait() }()
	waitReachable(t, addr)
	waitReachable(t, maddr)

	// fedctl status against the API address succeeds and reports a version.
	out := run(t, fedctl, "status", maddr)
	if !strings.Contains(out, "ready") || !strings.Contains(out, "version:") {
		t.Errorf("status: %q", out)
	}

	spec := "examples/scenarios/hetero5.json"
	// Submit and wait; stdout carries the bare run id (progress goes to
	// stderr), so scripts can pipe it straight into result/cancel.
	stdout := func(bin string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bin, args...)
		var sb, eb strings.Builder
		cmd.Stdout, cmd.Stderr = &sb, &eb
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, eb.String())
		}
		return sb.String()
	}
	id := strings.TrimSpace(stdout(fedctl, "submit", "-wait", maddr, spec))
	if id == "" {
		t.Fatal("fedctl submit printed no run id")
	}

	// The run table lists it as done.
	out = run(t, fedctl, "runs", maddr)
	if !strings.Contains(out, id) || !strings.Contains(out, "done") {
		t.Errorf("runs: %q", out)
	}

	apiJSON := stdout(fedctl, "result", maddr, id)
	cliJSON := stdout(fedsim, "-scenario", spec, "-result-json")
	if apiJSON != cliJSON {
		t.Errorf("API result differs from fedsim -result-json (%d vs %d bytes)",
			len(apiJSON), len(cliJSON))
	}

	// The dashboard is served from the same listener.
	httpc := &http.Client{Timeout: 2 * time.Second}
	resp, err := httpc.Get("http://" + maddr + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "fedshare") {
		t.Errorf("dashboard: %d %q", resp.StatusCode, body)
	}

	// Cancelling a finished run exits non-zero (409 from the API).
	cancel := exec.Command(fedctl, "cancel", maddr, id)
	if err := cancel.Run(); err == nil {
		t.Error("cancelling a finished run should exit non-zero")
	}
}
