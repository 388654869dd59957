// Command fedctl is the client for fedd registries.
//
// Usage:
//
//	fedctl -addr 127.0.0.1:7001 ping
//	fedctl -addr 127.0.0.1:7001 resources
//	fedctl -addr 127.0.0.1:7001 -secret fed-secret slice create myexp -min-sites 15
//	fedctl -addr 127.0.0.1:7001 -secret fed-secret slice delete myexp
//	fedctl -addr 127.0.0.1:7001 shares -policy shapley
//	fedctl metrics 127.0.0.1:9090
//	fedctl status 127.0.0.1:9090
//	fedctl scenarios
//	fedctl submit -wait 127.0.0.1:9090 examples/scenarios/hetero5.json
//	fedctl submit -fig fig4 127.0.0.1:9090
//	fedctl runs 127.0.0.1:9090
//	fedctl result 127.0.0.1:9090 run-000001
//	fedctl cancel 127.0.0.1:9090 run-000001
//
// The submit/runs/result/cancel commands drive a fedd started with -api:
// experiments execute inside the daemon's scenario engine, and fedctl is a
// thin client of the same HTTP/JSON API the dashboard uses. submit prints
// the run id on stdout (status goes to stderr), so scripts can capture it;
// status and runs exit nonzero when the daemon is unreachable or not
// ready, so CI can gate on them instead of grepping output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	// Imported for its init-time registration of the paper-figure scenarios,
	// so "fedctl scenarios" lists the same registry fedsim runs.
	_ "fedshare/internal/figures"

	"fedshare/internal/core"
	"fedshare/internal/obs"
	"fedshare/internal/rspec"
	"fedshare/internal/scenario"
	"fedshare/internal/scenario/api"
	"fedshare/internal/scenario/engine"
	"fedshare/internal/sfa"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7001", "registry address")
	secret := flag.String("secret", "", "federation secret (for slice operations)")
	user := flag.String("user", "fedctl", "credential subject")
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	// The metrics and status commands talk HTTP to a daemon's -metrics-addr
	// endpoint, not the SFA wire protocol, so they are handled before
	// dialing.
	if args[0] == "metrics" {
		if len(args) != 2 {
			usage()
		}
		if err := printMetrics(args[1]); err != nil {
			fail(err)
		}
		return
	}
	if args[0] == "status" {
		if len(args) != 2 {
			usage()
		}
		if err := printStatus(args[1]); err != nil {
			fail(err)
		}
		return
	}

	// The scenario-API commands are HTTP clients of a fedd -api daemon:
	// experiments execute in the daemon's engine, not in this process.
	switch args[0] {
	case "submit":
		cmdSubmit(args[1:])
		return
	case "runs":
		cmdRuns(args[1:])
		return
	case "result":
		cmdResult(args[1:])
		return
	case "cancel":
		cmdCancel(args[1:])
		return
	}

	// The scenarios command reads the in-process scenario registry — the
	// same one fedsim runs — so it too is handled before dialing.
	if args[0] == "scenarios" {
		fmt.Println("registered scenarios (run with fedsim -fig <id>):")
		for _, e := range scenario.Entries() {
			kind := "paper"
			switch {
			case e.Variant:
				kind = "variant"
			case e.Extension:
				kind = "extension"
			}
			fmt.Printf("  %-12s %-10s %s\n", e.ID, kind, e.Title)
		}
		return
	}

	client, err := sfa.Dial(*addr, 10*time.Second)
	if err != nil {
		fail(err)
	}
	defer client.Close()

	cred := func() sfa.Credential {
		if *secret == "" {
			fmt.Fprintln(os.Stderr, "fedctl: -secret required for this operation")
			os.Exit(2)
		}
		return sfa.IssueCredential([]byte(*secret), *user, *user, time.Minute)
	}

	switch args[0] {
	case "ping":
		if err := client.Call(sfa.MethodPing, nil, nil); err != nil {
			fail(err)
		}
		fmt.Println("pong")
	case "record":
		var rec sfa.AuthorityRecord
		if err := client.Call(sfa.MethodGetRecord, nil, &rec); err != nil {
			fail(err)
		}
		fmt.Printf("%s at %s: %d sites\n", rec.Name, rec.Addr, rec.Sites)
	case "resources":
		fs := flag.NewFlagSet("resources", flag.ExitOnError)
		asXML := fs.Bool("xml", false, "emit a GENI-style advertisement RSpec")
		_ = fs.Parse(args[1:])
		var rl sfa.ResourceList
		if err := client.Call(sfa.MethodListResources, sfa.Empty{}, &rl); err != nil {
			fail(err)
		}
		if *asXML {
			if err := rspec.FromResourceList(rl).Encode(os.Stdout); err != nil {
				fail(err)
			}
			return
		}
		fmt.Printf("authority %s: %d sites\n", rl.Authority, len(rl.Sites))
		for _, s := range rl.Sites {
			fmt.Printf("  %-24s nodes=%d capacity=%d free=%d\n", s.SiteID, s.Nodes, s.Capacity, s.Free)
		}
	case "slice":
		if len(args) < 3 {
			usage()
		}
		switch args[1] {
		case "create":
			fs := flag.NewFlagSet("slice create", flag.ExitOnError)
			minSites := fs.Int("min-sites", 1, "diversity threshold")
			maxSites := fs.Int("max-sites", 0, "site cap (0 = unbounded)")
			per := fs.Int("per-site", 1, "slivers per site")
			_ = fs.Parse(args[3:])
			var resp sfa.SliceResponse
			if err := client.Call(sfa.MethodCreateSlice, sfa.SliceRequest{
				Credential: cred(), Name: args[2], Owner: *user,
				MinSites: *minSites, MaxSites: *maxSites, SliversPerSite: *per,
			}, &resp); err != nil {
				fail(err)
			}
			fmt.Printf("slice %s: %d sites, %d slivers\n", resp.Name, resp.Sites, len(resp.Slivers))
		case "delete":
			if err := client.Call(sfa.MethodDeleteSlice, sfa.DeleteRequest{
				Credential: cred(), Name: args[2],
			}, nil); err != nil {
				fail(err)
			}
			fmt.Printf("slice %s deleted\n", args[2])
		default:
			usage()
		}
	case "shares":
		fs := flag.NewFlagSet("shares", flag.ExitOnError)
		policy := fs.String("policy", "shapley", "sharing policy")
		_ = fs.Parse(args[1:])
		var resp sfa.SharesResponse
		if err := client.Call(sfa.MethodGetShares, sfa.SharesRequest{Policy: *policy}, &resp); err != nil {
			fail(err)
		}
		fmt.Printf("policy %s, federation value %.4g\n", resp.Policy, resp.GrandValue)
		if resp.Partial {
			fmt.Printf("PARTIAL: computed over the live sub-federation; down: %s\n",
				strings.Join(resp.Down, ", "))
		}
		names := make([]string, 0, len(resp.Shares))
		for n := range resp.Shares {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-12s %6.2f%%\n", n, resp.Shares[n]*100)
		}
	case "usage":
		var resp sfa.UsageResponse
		if err := client.Call(sfa.MethodGetUsage, sfa.Empty{}, &resp); err != nil {
			fail(err)
		}
		fmt.Printf("authority %s: %d slices embedded\n", resp.Authority, resp.SlicesEmbedded)
		names := make([]string, 0, len(resp.CumulativeSlivers))
		for n := range resp.CumulativeSlivers {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-12s %6d slivers  measured share %6.2f%%\n",
				n, resp.CumulativeSlivers[n], resp.MeasuredShares[n]*100)
		}
	default:
		usage()
	}
}

// printStatus probes a daemon's liveness and readiness endpoints with the
// same transient retry as the metrics command and reports both, plus the
// daemon's build identification from /version. It fails (non-zero exit)
// when the daemon is unreachable or not ready, so scripts can gate on
// `fedctl status`.
func printStatus(addr string) error {
	probe := func(path string) (string, bool, error) {
		resp, err := fetchWithRetry(addr, path)
		if err != nil {
			return "", false, err
		}
		defer resp.Body.Close()
		return resp.Status, resp.StatusCode == http.StatusOK, nil
	}
	health, alive, err := probe("/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	ready, isReady, err := probe("/readyz")
	if err != nil {
		return fmt.Errorf("readyz: %w", err)
	}
	fmt.Printf("healthz: %s\nreadyz:  %s\nversion: %s\n", health, ready, versionLine(addr))
	printPeerTable(addr)
	if !alive || !isReady {
		return fmt.Errorf("daemon at %s is not ready", addr)
	}
	return nil
}

// printPeerTable renders the daemon's /peersz per-peer health snapshot:
// lifecycle state, last successful contact, and reconcile backlog. Probe
// failure or a 404 (a daemon predating the endpoint) degrades to silence —
// status's exit code reflects health, not peering.
func printPeerTable(addr string) {
	resp, err := fetchWithRetry(addr, "/peersz")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var peers []sfa.PeerHealthInfo
	if json.NewDecoder(resp.Body).Decode(&peers) != nil {
		return
	}
	if len(peers) == 0 {
		fmt.Println("peers:   none")
		return
	}
	fmt.Printf("peers:\n  %-12s %-12s %-12s %s\n", "peer", "state", "last-seen", "backlog")
	for _, p := range peers {
		lastSeen := "never"
		if p.LastSeenSeconds >= 0 {
			lastSeen = fmt.Sprintf("%.1fs ago", p.LastSeenSeconds)
		}
		fmt.Printf("  %-12s %-12s %-12s %d\n", p.Peer, p.State, lastSeen, p.Backlog)
	}
}

// versionLine renders a daemon's /version document on one line. Probe
// failure degrades to "unknown" — status's exit code reflects health, not
// whether the daemon predates the version endpoint.
func versionLine(addr string) string {
	resp, err := fetchWithRetry(addr, "/version")
	if err != nil {
		return "unknown"
	}
	defer resp.Body.Close()
	var v obs.BuildInfo
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&v) != nil {
		return "unknown"
	}
	parts := []string{v.Module, v.Version, v.Go}
	if v.Revision != "" {
		rev := v.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		if v.Dirty {
			rev += "+dirty"
		}
		parts = append(parts, rev)
	}
	var kept []string
	for _, p := range parts {
		if p != "" {
			kept = append(kept, p)
		}
	}
	if len(kept) == 0 {
		return "unknown"
	}
	return strings.Join(kept, " ")
}

// apiError decodes a non-200 scenario-API response's structured error
// document into a Go error.
func apiError(resp *http.Response) error {
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("%s", resp.Status)
}

// getRun fetches one run's state.
func getRun(addr, id string) (api.RunJSON, error) {
	resp, err := fetchWithRetry(addr, "/api/v1/runs/"+id)
	if err != nil {
		return api.RunJSON{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return api.RunJSON{}, apiError(resp)
	}
	defer resp.Body.Close()
	var r api.RunJSON
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return api.RunJSON{}, fmt.Errorf("decode run: %w", err)
	}
	return r, nil
}

// cmdSubmit posts a spec file (or a registered scenario id with -fig) to a
// fedd -api daemon. The run id is printed on stdout — and nothing else —
// so scripts can capture it; with -wait the command polls the run to a
// terminal state and exits nonzero unless it completed.
func cmdSubmit(args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	fig := fs.String("fig", "", "submit a registered scenario id instead of a spec file")
	wait := fs.Bool("wait", false, "poll until the run finishes; exit nonzero unless it completes")
	timeout := fs.Duration("timeout", 15*time.Minute, "polling deadline for -wait")
	_ = fs.Parse(args)
	rest := fs.Args()
	if len(rest) < 1 || (*fig == "") == (len(rest) < 2) {
		fmt.Fprintln(os.Stderr, "usage: fedctl submit [-fig id | spec.json after addr] [-wait] <metrics-addr> [spec.json]")
		os.Exit(2)
	}
	addr := rest[0]

	url := "http://" + addr + "/api/v1/runs"
	var body io.Reader
	if *fig != "" {
		url += "?scenario=" + *fig
	} else {
		data, err := os.ReadFile(rest[1])
		if err != nil {
			fail(err)
		}
		body = strings.NewReader(string(data))
	}
	httpc := &http.Client{Timeout: 30 * time.Second}
	resp, err := httpc.Post(url, "application/json", body)
	if err != nil {
		fail(fmt.Errorf("submit: %w", err))
	}
	if resp.StatusCode != http.StatusAccepted {
		fail(apiError(resp))
	}
	var r api.RunJSON
	err = json.NewDecoder(resp.Body).Decode(&r)
	resp.Body.Close()
	if err != nil {
		fail(fmt.Errorf("decode run: %w", err))
	}
	fmt.Fprintf(os.Stderr, "submitted %s as %s\n", r.Scenario, r.ID)
	fmt.Println(r.ID)
	if !*wait {
		return
	}
	deadline := time.Now().Add(*timeout)
	for {
		if time.Now().After(deadline) {
			fail(fmt.Errorf("run %s still %s after %s", r.ID, r.State, *timeout))
		}
		r, err = getRun(addr, r.ID)
		if err != nil {
			fail(err)
		}
		if engine.State(r.State).Terminal() {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	if engine.State(r.State) != engine.StateDone {
		fail(fmt.Errorf("run %s %s: %s", r.ID, r.State, r.Error))
	}
	fmt.Fprintf(os.Stderr, "run %s done in %.2fs\n", r.ID, r.ElapsedSeconds)
}

// cmdRuns lists a daemon's run table. Like status it gates: unreachable or
// not-ready daemons exit nonzero before the table is even fetched.
func cmdRuns(args []string) {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: fedctl runs <metrics-addr>")
		os.Exit(2)
	}
	addr := args[0]
	ready, err := fetchWithRetry(addr, "/readyz")
	if err != nil {
		fail(fmt.Errorf("readyz: %w", err))
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusOK {
		fail(fmt.Errorf("daemon at %s is not ready (%s)", addr, ready.Status))
	}
	resp, err := fetchWithRetry(addr, "/api/v1/runs")
	if err != nil {
		fail(err)
	}
	if resp.StatusCode != http.StatusOK {
		fail(apiError(resp))
	}
	defer resp.Body.Close()
	var list struct {
		Runs []api.RunJSON `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		fail(fmt.Errorf("decode runs: %w", err))
	}
	if len(list.Runs) == 0 {
		fmt.Println("no runs")
		return
	}
	fmt.Printf("%-12s %-14s %-10s %-12s %s\n", "id", "scenario", "state", "progress", "elapsed")
	for _, r := range list.Runs {
		progress := "-"
		if r.Progress.Total > 0 {
			progress = fmt.Sprintf("%d/%d", r.Progress.Done, r.Progress.Total)
		}
		elapsed := ""
		if r.ElapsedSeconds > 0 {
			elapsed = fmt.Sprintf("%.2fs", r.ElapsedSeconds)
		}
		fmt.Printf("%-12s %-14s %-10s %-12s %s\n", r.ID, r.Scenario, r.State, progress, elapsed)
	}
}

// cmdResult streams a completed run's result JSON to stdout — the exact
// bytes the API serves, so output diffs clean against fedsim -result-json.
func cmdResult(args []string) {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: fedctl result <metrics-addr> <run-id>")
		os.Exit(2)
	}
	resp, err := fetchWithRetry(args[0], "/api/v1/runs/"+args[1]+"/result")
	if err != nil {
		fail(err)
	}
	if resp.StatusCode != http.StatusOK {
		fail(apiError(resp))
	}
	defer resp.Body.Close()
	if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
		fail(err)
	}
}

// cmdCancel cancels a queued or running run.
func cmdCancel(args []string) {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: fedctl cancel <metrics-addr> <run-id>")
		os.Exit(2)
	}
	req, err := http.NewRequest(http.MethodDelete,
		"http://"+args[0]+"/api/v1/runs/"+args[1], nil)
	if err != nil {
		fail(err)
	}
	httpc := &http.Client{Timeout: 10 * time.Second}
	resp, err := httpc.Do(req)
	if err != nil {
		fail(err)
	}
	if resp.StatusCode != http.StatusOK {
		fail(apiError(resp))
	}
	defer resp.Body.Close()
	var r api.RunJSON
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		fail(fmt.Errorf("decode run: %w", err))
	}
	fmt.Printf("run %s %s\n", r.ID, r.State)
}

// printMetrics fetches a daemon's JSON metrics snapshot and renders it as
// a table: counters and gauges one line each, histograms as
// count/mean/max-bucket summaries.
func printMetrics(addr string) error {
	resp, err := fetchWithRetry(addr, "/metrics.json")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("metrics fetch: %s", resp.Status)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("metrics decode: %w", err)
	}
	return renderMetrics(snap)
}

// fetchWithRetry GETs a path off a daemon's metrics endpoint, retrying
// transient connection failures (a daemon still coming up, or a metrics
// listener mid-restart) with doubling backoff. Non-200 responses are NOT
// retried: the daemon answered, so asking again changes nothing.
func fetchWithRetry(addr, path string) (*http.Response, error) {
	httpc := &http.Client{Timeout: 10 * time.Second}
	var lastErr error
	delay := 100 * time.Millisecond
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			time.Sleep(delay)
			delay *= 2
		}
		resp, err := httpc.Get("http://" + addr + path)
		if err == nil {
			return resp, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("fetch %s (after retries): %w", path, lastErr)
}

func renderMetrics(snap obs.Snapshot) error {
	for _, f := range snap.Families {
		fmt.Printf("%s (%s)", f.Name, f.Type)
		if f.Help != "" {
			fmt.Printf("  %s", f.Help)
		}
		fmt.Println()
		for _, m := range f.Metrics {
			label := "-"
			if len(m.Labels) > 0 {
				keys := make([]string, 0, len(m.Labels))
				for k := range m.Labels {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				label = ""
				for i, k := range keys {
					if i > 0 {
						label += ","
					}
					label += k + "=" + m.Labels[k]
				}
			}
			if f.Type == "histogram" {
				mean := 0.0
				if m.Count > 0 {
					mean = m.Sum / float64(m.Count)
				}
				fmt.Printf("  %-40s count=%d sum=%.6gs mean=%.6gs\n", label, m.Count, m.Sum, mean)
				continue
			}
			fmt.Printf("  %-40s %g\n", label, m.Value)
		}
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: fedctl [-addr A] [-secret S] <command>
commands:
  ping
  record
  resources [-xml]
  slice create <name> [-min-sites N] [-max-sites N] [-per-site N]
  slice delete <name>
  shares [-policy `+strings.Join(core.PolicyNames(), "|")+`]
  usage
  metrics <metrics-addr>    fetch and render a daemon's /metrics.json snapshot
  status <metrics-addr>     probe /healthz, /readyz, /version and the /peersz peer
                            health table (non-zero exit if not ready)
  scenarios                 list the registered scenario specs (run with fedsim)
  submit [-fig id] [-wait] <metrics-addr> [spec.json]
                            submit an experiment to a fedd -api daemon (prints the run id)
  runs <metrics-addr>       list the daemon's run table (non-zero exit if not ready)
  result <metrics-addr> <run-id>
                            print a completed run's result JSON
  cancel <metrics-addr> <run-id>
                            cancel a queued or running run`)
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fedctl:", err)
	os.Exit(1)
}
