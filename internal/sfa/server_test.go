package sfa

import (
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"fedshare/internal/economics"
	"fedshare/internal/obs"
	"fedshare/internal/planetlab"
)

var testSecret = []byte("test-federation-root")

func quietLog(string, ...interface{}) {}

// buildAuthority creates an authority with the given number of sites, each
// with nodes*capacity sliver slots.
func buildAuthority(t testing.TB, name string, sites, nodes, capacity int) *planetlab.Authority {
	t.Helper()
	a := planetlab.NewAuthority(name)
	for s := 0; s < sites; s++ {
		site := &planetlab.Site{
			ID:   fmt.Sprintf("%s-site%d", name, s),
			Name: fmt.Sprintf("%s site %d", name, s),
		}
		for n := 0; n < nodes; n++ {
			site.Nodes = append(site.Nodes, planetlab.Node{
				ID: fmt.Sprintf("node%d", n), Capacity: capacity,
			})
		}
		if err := a.AddSite(site); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func startServer(t *testing.T, auth *planetlab.Authority, opts ...Option) *Server {
	t.Helper()
	opts = append([]Option{WithLogger(quietLog)}, opts...) // default quiet; caller opts win
	srv := NewServer(auth, testSecret, opts...)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

func dialServer(t *testing.T, srv *Server) *Client {
	t.Helper()
	c, err := Dial(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func userCred() Credential {
	return IssueCredential(testSecret, "tester", "test", time.Minute)
}

func TestPingAndRecord(t *testing.T) {
	srv := startServer(t, buildAuthority(t, "PLC", 3, 2, 2))
	c := dialServer(t, srv)
	if err := c.Call(MethodPing, nil, nil); err != nil {
		t.Fatalf("ping: %v", err)
	}
	var rec AuthorityRecord
	if err := c.Call(MethodGetRecord, nil, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Name != "PLC" || rec.Sites != 3 {
		t.Errorf("record = %+v", rec)
	}
}

func TestUnknownMethod(t *testing.T) {
	srv := startServer(t, buildAuthority(t, "PLC", 1, 1, 1))
	c := dialServer(t, srv)
	err := c.Call("sfa.Nope", nil, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("err = %v", err)
	}
	// The connection stays usable after a method error.
	if err := c.Call(MethodPing, nil, nil); err != nil {
		t.Errorf("ping after error: %v", err)
	}
}

// TestListResourcesFiftyThousandSites: an authority of 50,000 sites of
// fedd's shape (sites named as fedd names them, 2 nodes of 10 slots)
// lists within one frame. Its listing took 4,277,944 bytes as JSON, past
// the 4,194,304-byte frame limit.
func TestListResourcesFiftyThousandSites(t *testing.T) {
	const sites = 50000
	a := planetlab.NewAuthority("PLE")
	for s := 0; s < sites; s++ {
		site := &planetlab.Site{ID: fmt.Sprintf("PLE-site%03d", s), Name: fmt.Sprintf("PLE site %d", s),
			Nodes: []planetlab.Node{{ID: "node0", Capacity: 10}, {ID: "node1", Capacity: 10}}}
		if err := a.AddSite(site); err != nil {
			t.Fatal(err)
		}
	}
	c := dialServer(t, startServer(t, a))
	var rl ResourceList
	if err := c.Call(MethodListResources, Empty{}, &rl); err != nil {
		t.Fatal(err)
	}
	if len(rl.Sites) != sites || rl.Sites[sites-1].Free != 20 {
		t.Fatalf("listed %d sites, want %d", len(rl.Sites), sites)
	}
}

func TestListResources(t *testing.T) {
	srv := startServer(t, buildAuthority(t, "PLE", 2, 3, 4))
	c := dialServer(t, srv)
	var rl ResourceList
	if err := c.Call(MethodListResources, Empty{}, &rl); err != nil {
		t.Fatal(err)
	}
	if rl.Authority != "PLE" || len(rl.Sites) != 2 {
		t.Fatalf("resource list = %+v", rl)
	}
	for _, s := range rl.Sites {
		if s.Capacity != 12 || s.Free != 12 || s.Nodes != 3 {
			t.Errorf("site = %+v", s)
		}
	}
}

func TestLocalSliceLifecycle(t *testing.T) {
	auth := buildAuthority(t, "PLC", 4, 1, 2)
	srv := startServer(t, auth)
	c := dialServer(t, srv)
	var resp SliceResponse
	err := c.Call(MethodCreateSlice, SliceRequest{
		Credential: userCred(), Name: "exp1", Owner: "alice", MinSites: 3,
	}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Sites != 4 {
		t.Errorf("slice spans %d sites, want all 4", resp.Sites)
	}
	// Credential is required.
	err = c.Call(MethodCreateSlice, SliceRequest{Name: "exp2", MinSites: 1}, nil)
	if err == nil {
		t.Error("missing credential must fail")
	}
	// Duplicate name.
	err = c.Call(MethodCreateSlice, SliceRequest{
		Credential: userCred(), Name: "exp1", MinSites: 1,
	}, nil)
	if err == nil {
		t.Error("duplicate slice must fail")
	}
	// Delete frees capacity.
	if err := c.Call(MethodDeleteSlice, DeleteRequest{Credential: userCred(), Name: "exp1"}, nil); err != nil {
		t.Fatal(err)
	}
	if auth.Utilization() != 0 {
		t.Errorf("utilization %g after delete", auth.Utilization())
	}
}

// federate starts n authorities and fully peers them.
func federate(t *testing.T, specs map[string][3]int, opts ...Option) map[string]*Server {
	t.Helper()
	servers := map[string]*Server{}
	for name, dim := range specs {
		servers[name] = startServer(t, buildAuthority(t, name, dim[0], dim[1], dim[2]), opts...)
	}
	names := make([]string, 0, len(servers))
	for n := range servers {
		names = append(names, n)
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if err := servers[names[i]].PeerWith(servers[names[j]].Addr()); err != nil {
				t.Fatalf("peer %s->%s: %v", names[i], names[j], err)
			}
		}
	}
	return servers
}

func TestPeering(t *testing.T) {
	servers := federate(t, map[string][3]int{
		"PLC": {3, 2, 2}, "PLE": {2, 2, 2}, "PLJ": {1, 2, 2},
	})
	for name, srv := range servers {
		peers := srv.health.snapshot()
		if len(peers) != 2 {
			t.Errorf("%s tracks peers %+v, want 2", name, peers)
		}
	}
}

func TestFederatedSliceEmbedding(t *testing.T) {
	// PLC alone has 3 sites; a slice needing 5 must span the federation.
	servers := federate(t, map[string][3]int{
		"PLC": {3, 1, 1}, "PLE": {2, 1, 1}, "PLJ": {2, 1, 1},
	})
	c := dialServer(t, servers["PLC"])
	var resp SliceResponse
	err := c.Call(MethodCreateSlice, SliceRequest{
		Credential: userCred(), Name: "global", Owner: "alice", MinSites: 5,
	}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Sites < 5 {
		t.Fatalf("federated slice spans %d sites, want >= 5", resp.Sites)
	}
	authSeen := map[string]bool{}
	for _, sv := range resp.Slivers {
		authSeen[sv.Authority] = true
	}
	if len(authSeen) < 2 {
		t.Errorf("slice should span multiple authorities: %v", authSeen)
	}
	// Deleting releases remote slivers too.
	if err := c.Call(MethodDeleteSlice, DeleteRequest{Credential: userCred(), Name: "global"}, nil); err != nil {
		t.Fatal(err)
	}
	var rl ResourceList
	c2 := dialServer(t, servers["PLE"])
	if err := c2.Call(MethodListResources, Empty{}, &rl); err != nil {
		t.Fatal(err)
	}
	for _, s := range rl.Sites {
		if s.Free != s.Capacity {
			t.Errorf("PLE site %s not fully released: free %d of %d", s.SiteID, s.Free, s.Capacity)
		}
	}
}

func TestFederatedSliceInfeasible(t *testing.T) {
	servers := federate(t, map[string][3]int{
		"PLC": {2, 1, 1}, "PLE": {2, 1, 1},
	})
	c := dialServer(t, servers["PLC"])
	err := c.Call(MethodCreateSlice, SliceRequest{
		Credential: userCred(), Name: "huge", MinSites: 10,
	}, nil)
	if err == nil {
		t.Fatal("infeasible diversity must fail")
	}
	// Everything rolled back.
	for name, srv := range servers {
		c := dialServer(t, srv)
		var rl ResourceList
		if err := c.Call(MethodListResources, Empty{}, &rl); err != nil {
			t.Fatal(err)
		}
		for _, s := range rl.Sites {
			if s.Free != s.Capacity {
				t.Errorf("%s site %s leaked slivers after rollback", name, s.SiteID)
			}
		}
	}
}

func TestGetSharesOverNetwork(t *testing.T) {
	// Three authorities mirroring the paper's L = (100, 400, 800) at small
	// scale: sites 1, 4, 8 with equal per-site capacity, and a demand
	// profile of one experiment needing 5 sites.
	wl, err := economics.NewWorkload(economics.DemandClass{
		Type: economics.ExperimentType{
			Name: "probe", MinLocations: 5, MaxLocations: math.Inf(1),
			Resources: 1, HoldingTime: 1, Shape: 1,
		},
		Count: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	servers := federate(t, map[string][3]int{
		"PLC": {1, 1, 1}, "PLE": {4, 1, 1}, "PLJ": {8, 1, 1},
	}, WithDemand(wl))
	c := dialServer(t, servers["PLC"])
	var resp SharesResponse
	if err := c.Call(MethodGetShares, SharesRequest{Policy: "shapley"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Policy != "shapley" {
		t.Errorf("policy = %s", resp.Policy)
	}
	if resp.GrandValue != 13 {
		t.Errorf("grand value %g, want 13", resp.GrandValue)
	}
	sum := 0.0
	for _, s := range resp.Shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g", sum)
	}
	// Scaled Fig-4 logic: with l = 5 (analogous to l = 500 at 1:100), the
	// non-strict shares are (4/39, 17/78, 53/78).
	if math.Abs(resp.Shares["PLE"]-17.0/78) > 1e-9 {
		t.Errorf("PLE share %g, want %g", resp.Shares["PLE"], 17.0/78)
	}
	// All servers agree on the shares regardless of which one answers.
	c2 := dialServer(t, servers["PLJ"])
	var resp2 SharesResponse
	if err := c2.Call(MethodGetShares, SharesRequest{Policy: "shapley"}, &resp2); err != nil {
		t.Fatal(err)
	}
	for name, s := range resp.Shares {
		if math.Abs(resp2.Shares[name]-s) > 1e-9 {
			t.Errorf("share disagreement for %s: %g vs %g", name, s, resp2.Shares[name])
		}
	}
}

// TestSharesFromRecordsPriceOversizedPeer: a peer whose resource listing
// overflows a frame (five 1 MiB site names, as in
// TestOversizedResponseIsFinal) is priced from its authority record, to
// the same shares as a peer whose sites have short names.
func TestSharesFromRecordsPriceOversizedPeer(t *testing.T) {
	shares := func(siteName string) SharesResponse {
		big := planetlab.NewAuthority("BIG")
		for s := 0; s < 5; s++ {
			site := &planetlab.Site{ID: fmt.Sprintf("s%d", s), Name: siteName, Nodes: []planetlab.Node{{ID: "n", Capacity: 3}}}
			if err := big.AddSite(site); err != nil {
				t.Fatal(err)
			}
		}
		peer := startServer(t, big)
		srv := startServer(t, buildAuthority(t, "PLC", 3, 1, 2))
		if err := srv.PeerWith(peer.Addr()); err != nil {
			t.Fatal(err)
		}
		var resp SharesResponse
		if err := dialServer(t, srv).Call(MethodGetShares, SharesRequest{Policy: "shapley"}, &resp); err != nil {
			t.Fatalf("GetShares beside a peer with %d-byte site names: %v", len(siteName), err)
		}
		return resp
	}
	got, want := shares(strings.Repeat("x", MaxFrameSize/4)), shares("short")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("shares beside the oversized peer = %+v, want %+v", got, want)
	}
	if got.Partial || got.Shares["BIG"] <= 0 {
		t.Errorf("shares = %+v, want BIG priced in a full federation", got)
	}
}

// TestSharesFromRecordsListNoResources: a healthy share query reads one
// authority record per peer and no resource listing. Once a peer is down
// its last record still shapes the model: with PLJ's 2 sites the default
// demand needs 4.5 of the 9 sites, which neither PLC (3) nor PLE (4)
// offers alone, so the live pair splits 50/50. Had PLJ never been read,
// the threshold would be 3.5 and PLE alone would meet it.
func TestSharesFromRecordsListNoResources(t *testing.T) {
	reg := obs.NewRegistry()
	servers := federate(t, map[string][3]int{
		"PLC": {3, 1, 2}, "PLE": {4, 1, 1}, "PLJ": {2, 2, 1},
	}, WithMetrics(reg))
	c := dialServer(t, servers["PLC"])
	var healthy SharesResponse
	if err := c.Call(MethodGetShares, SharesRequest{Policy: "shapley"}, &healthy); err != nil {
		t.Fatal(err)
	}
	if healthy.Partial || len(healthy.Shares) != 3 {
		t.Errorf("healthy shares = %+v, want all three members", healthy)
	}
	if n := counterValue(reg, "fedshare_sfa_requests_total", MethodListResources); n != 0 {
		t.Errorf("a healthy share query made %d ListResources calls, want 0", n)
	}
	if n := counterValue(reg, "fedshare_sfa_requests_total", MethodGetRecord); n != 2 {
		t.Errorf("a healthy share query made %d GetRecord calls, want one per peer", n)
	}

	if err := servers["PLJ"].Close(); err != nil {
		t.Fatal(err)
	}
	var degraded SharesResponse
	if err := c.Call(MethodGetShares, SharesRequest{Policy: "shapley"}, &degraded); err != nil {
		t.Fatalf("GetShares with PLJ down: %v", err)
	}
	if !degraded.Partial || !reflect.DeepEqual(degraded.Down, []string{"PLJ"}) {
		t.Errorf("degraded shares = partial=%t down=%v, want partial with [PLJ]", degraded.Partial, degraded.Down)
	}
	if len(degraded.Shares) != 2 || degraded.Shares["PLC"] != 0.5 || degraded.Shares["PLE"] != 0.5 {
		t.Errorf("degraded shares = %v, want PLC and PLE at 0.5", degraded.Shares)
	}
}

// TestCreateSliceValidation: a slice request needs a name and
// non-negative site bounds, refused with these texts before any placement.
func TestCreateSliceValidation(t *testing.T) {
	auth := buildAuthority(t, "PLC", 2, 1, 1)
	c := dialServer(t, startServer(t, auth))
	for _, tc := range []struct {
		req  SliceRequest
		want string
	}{
		{SliceRequest{}, "planetlab: slice needs a name"},
		{SliceRequest{Name: "s", MinSites: -1}, "negative min_sites"},
		{SliceRequest{Name: "s", MaxSites: -1}, "planetlab: slice s has negative MaxSites"},
		{SliceRequest{Name: "s", MinSites: -1, MaxSites: -1}, "planetlab: slice s has negative MaxSites"},
	} {
		tc.req.Credential = userCred()
		var remote *RemoteError
		if err := c.Call(MethodCreateSlice, tc.req, nil); !errors.As(err, &remote) || remote.Msg != tc.want {
			t.Errorf("CreateSlice(%+v) = %v, want %q", tc.req, err, tc.want)
		}
	}
	if auth.Utilization() != 0 {
		t.Errorf("refused slices hold %g of the capacity", auth.Utilization())
	}
	if err := c.Call(MethodCreateSlice, SliceRequest{Credential: userCred(), Name: "ok", MinSites: 2, MaxSites: 4}, nil); err != nil {
		t.Errorf("valid slice refused: %v", err)
	}
}

func TestGetSharesPolicies(t *testing.T) {
	servers := federate(t, map[string][3]int{
		"PLC": {2, 1, 1}, "PLE": {3, 1, 1},
	})
	c := dialServer(t, servers["PLC"])
	for _, pol := range []string{"shapley", "proportional", "consumption", "equal", "nucleolus", "banzhaf", ""} {
		var resp SharesResponse
		if err := c.Call(MethodGetShares, SharesRequest{Policy: pol}, &resp); err != nil {
			t.Errorf("policy %q: %v", pol, err)
		}
	}
	if err := c.Call(MethodGetShares, SharesRequest{Policy: "bogus"}, nil); err == nil {
		t.Error("unknown policy must fail")
	}
}

func TestPeerRequiresCredential(t *testing.T) {
	srv := startServer(t, buildAuthority(t, "PLC", 1, 1, 1))
	c := dialServer(t, srv)
	err := c.Call(MethodPeer, PeerRequest{
		Record: AuthorityRecord{Name: "evil", Addr: "127.0.0.1:1"},
	}, nil)
	if err == nil {
		t.Error("peering without credential must fail")
	}
	badCred := IssueCredential([]byte("wrong secret"), "evil", "evil", time.Minute)
	err = c.Call(MethodPeer, PeerRequest{
		Record:     AuthorityRecord{Name: "evil", Addr: "127.0.0.1:1"},
		Credential: badCred,
	}, nil)
	if err == nil {
		t.Error("peering with wrong secret must fail")
	}
}

func TestConcurrentClients(t *testing.T) {
	srv := startServer(t, buildAuthority(t, "PLC", 8, 2, 4))
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			c, err := Dial(srv.Addr(), 5*time.Second)
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			for k := 0; k < 10; k++ {
				var resp SliceResponse
				name := fmt.Sprintf("c%d-s%d", i, k)
				if err := c.Call(MethodCreateSlice, SliceRequest{
					Credential: userCred(), Name: name, MinSites: 1, MaxSites: 2,
				}, &resp); err != nil {
					done <- fmt.Errorf("create %s: %w", name, err)
					return
				}
				if err := c.Call(MethodDeleteSlice, DeleteRequest{
					Credential: userCred(), Name: name,
				}, nil); err != nil {
					done <- fmt.Errorf("delete %s: %w", name, err)
					return
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := startServer(t, buildAuthority(t, "PLC", 1, 1, 1))
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func BenchmarkPingRoundTrip(b *testing.B) {
	auth := planetlab.NewAuthority("bench")
	srv := NewServer(auth, testSecret, WithLogger(quietLog))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Call(MethodPing, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestUsageAccounting(t *testing.T) {
	servers := federate(t, map[string][3]int{
		"PLC": {3, 1, 2}, "PLE": {5, 1, 2},
	})
	c := dialServer(t, servers["PLC"])
	// Before any slices: empty usage.
	var usage UsageResponse
	if err := c.Call(MethodGetUsage, Empty{}, &usage); err != nil {
		t.Fatal(err)
	}
	if usage.SlicesEmbedded != 0 || len(usage.CumulativeSlivers) != 0 {
		t.Errorf("fresh registry has usage %+v", usage)
	}
	// Embed two federated slices.
	for i, min := range []int{5, 8} {
		var resp SliceResponse
		if err := c.Call(MethodCreateSlice, SliceRequest{
			Credential: userCred(), Name: fmt.Sprintf("s%d", i), MinSites: min,
		}, &resp); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Call(MethodGetUsage, Empty{}, &usage); err != nil {
		t.Fatal(err)
	}
	if usage.SlicesEmbedded != 2 {
		t.Errorf("embedded = %d, want 2", usage.SlicesEmbedded)
	}
	if usage.CumulativeSlivers["PLC"] == 0 || usage.CumulativeSlivers["PLE"] == 0 {
		t.Errorf("both authorities should have served slivers: %+v", usage.CumulativeSlivers)
	}
	sum := 0.0
	for _, s := range usage.MeasuredShares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("measured shares sum to %g", sum)
	}
	// Cumulative usage survives slice deletion.
	if err := c.Call(MethodDeleteSlice, DeleteRequest{Credential: userCred(), Name: "s0"}, nil); err != nil {
		t.Fatal(err)
	}
	var after UsageResponse
	if err := c.Call(MethodGetUsage, Empty{}, &after); err != nil {
		t.Fatal(err)
	}
	if after.CumulativeSlivers["PLE"] != usage.CumulativeSlivers["PLE"] {
		t.Error("cumulative usage must not shrink on delete")
	}
}

// netDial is a tiny helper for raw-connection tests.
func netDial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 2*time.Second)
}

func TestPeerFailureDegradesGracefully(t *testing.T) {
	servers := federate(t, map[string][3]int{
		"PLC": {3, 1, 1}, "PLE": {4, 1, 1},
	})
	// Kill PLE mid-federation.
	if err := servers["PLE"].Close(); err != nil {
		t.Fatal(err)
	}
	c := dialServer(t, servers["PLC"])

	// A slice feasible on local sites alone still embeds.
	var resp SliceResponse
	if err := c.Call(MethodCreateSlice, SliceRequest{
		Credential: userCred(), Name: "local-ok", MinSites: 2,
	}, &resp); err != nil {
		t.Fatalf("local slice should survive peer death: %v", err)
	}
	if resp.Sites < 2 {
		t.Errorf("sites = %d", resp.Sites)
	}
	if err := c.Call(MethodDeleteSlice, DeleteRequest{Credential: userCred(), Name: "local-ok"}, nil); err != nil {
		t.Fatal(err)
	}

	// A slice needing the dead peer fails cleanly and leaks nothing.
	err := c.Call(MethodCreateSlice, SliceRequest{
		Credential: userCred(), Name: "needs-peer", MinSites: 6,
	}, nil)
	if err == nil {
		t.Fatal("slice requiring dead peer must fail")
	}
	var rl ResourceList
	if err := c.Call(MethodListResources, Empty{}, &rl); err != nil {
		t.Fatal(err)
	}
	for _, s := range rl.Sites {
		if s.Free != s.Capacity {
			t.Errorf("site %s leaked slivers after failed federation: %d/%d",
				s.SiteID, s.Free, s.Capacity)
		}
	}

	// Shares computation degrades instead of failing: it prices the live
	// sub-federation and flags the result as partial, naming the dead peer.
	var shares SharesResponse
	if err := c.Call(MethodGetShares, SharesRequest{Policy: "shapley"}, &shares); err != nil {
		t.Fatalf("GetShares with a dead peer should degrade, not fail: %v", err)
	}
	if !shares.Partial {
		t.Error("shares with a dead peer should carry the partial marker")
	}
	if len(shares.Down) != 1 || shares.Down[0] != "PLE" {
		t.Errorf("down = %v, want [PLE]", shares.Down)
	}
	if _, ok := shares.Shares["PLE"]; ok {
		t.Error("dead peer must not receive a share")
	}
	if sh, ok := shares.Shares["PLC"]; !ok || sh <= 0 {
		t.Errorf("live sub-federation share for PLC = %v, %v", sh, ok)
	}
}
