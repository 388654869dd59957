package sfa

import (
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"fedshare/internal/obs"
)

// startMetricServer starts a server against a private registry so counter
// assertions are isolated from other tests sharing obs.Default.
func startMetricServer(t *testing.T, auth string, sites int) (*Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	srv := startServer(t, buildAuthority(t, auth, sites, 1, 1), WithMetrics(reg))
	return srv, reg
}

func counterValue(reg *obs.Registry, name, method string) int64 {
	return reg.CounterVec(name, "", "method").With(method).Value()
}

// waitFor polls cond for up to a second.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestBadSecretIncrementsErrorCounter(t *testing.T) {
	srv, reg := startMetricServer(t, "PLC", 2)
	c := dialServer(t, srv)
	bad := IssueCredential([]byte("wrong secret"), "evil", "evil", time.Minute)
	err := c.Call(MethodCreateSlice, SliceRequest{Credential: bad, Name: "x", MinSites: 1}, nil)
	if err == nil {
		t.Fatal("bad secret must fail")
	}
	if got := counterValue(reg, "fedshare_sfa_errors_total", MethodCreateSlice); got != 1 {
		t.Errorf("CreateSlice error counter = %d, want 1", got)
	}
	if got := counterValue(reg, "fedshare_sfa_requests_total", MethodCreateSlice); got != 1 {
		t.Errorf("CreateSlice request counter = %d, want 1", got)
	}
	// A failed reserve with a bad secret counts too.
	if err := c.Call(MethodReserve, ReserveRequest{
		Credential: bad, SliceName: "x", Sites: 1, PerSite: 1,
	}, nil); err == nil {
		t.Fatal("bad secret reserve must fail")
	}
	if got := counterValue(reg, "fedshare_sfa_errors_total", MethodReserve); got != 1 {
		t.Errorf("Reserve error counter = %d, want 1", got)
	}
}

func TestUnknownMethodCountsUnderClampedLabel(t *testing.T) {
	srv, reg := startMetricServer(t, "PLC", 1)
	c := dialServer(t, srv)
	for _, m := range []string{"sfa.Nope", "sfa.AlsoNope", "totally.random"} {
		if err := c.Call(m, nil, nil); err == nil {
			t.Fatalf("method %q must fail", m)
		}
	}
	// All unknown names share one label value, so probing cannot grow the
	// registry without bound.
	if got := counterValue(reg, "fedshare_sfa_errors_total", "unknown"); got != 3 {
		t.Errorf("unknown-method error counter = %d, want 3", got)
	}
	snap := reg.Snapshot()
	for _, f := range snap.Families {
		if f.Name != "fedshare_sfa_errors_total" {
			continue
		}
		if len(f.Metrics) != 1 {
			t.Errorf("errors family has %d children, want 1: %+v", len(f.Metrics), f.Metrics)
		}
	}
}

func TestMalformedEnvelopeCountsProtocolError(t *testing.T) {
	srv, reg := startMetricServer(t, "PLC", 1)
	conn, err := netDial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Valid length prefix, garbage JSON payload.
	payload := []byte("this is not json{{{")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := conn.Write(append(hdr[:], payload...)); err != nil {
		t.Fatal(err)
	}
	proto := reg.Counter("fedshare_sfa_protocol_errors_total", "")
	waitFor(t, "protocol error counter", func() bool { return proto.Value() == 1 })
	// The server dropped the connection.
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("read after malformed frame = %v, want EOF", err)
	}
	// An oversized frame header counts as well.
	conn2, err := netDial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
	if _, err := conn2.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "oversized-frame counter", func() bool { return proto.Value() == 2 })
}

func TestReserveFailureRollbackCountsAndReleases(t *testing.T) {
	reg := obs.NewRegistry()
	servers := federate(t, map[string][3]int{
		"PLC": {2, 1, 1}, "PLE": {3, 1, 1},
	}, WithMetrics(reg))
	c := dialServer(t, servers["PLC"])
	// 5 local+remote sites exist but 9 are demanded: PLE's slivers are
	// reserved, then released through releaseRemote on abort.
	err := c.Call(MethodCreateSlice, SliceRequest{
		Credential: userCred(), Name: "toobig", MinSites: 9,
	}, nil)
	if err == nil {
		t.Fatal("infeasible slice must fail")
	}
	if got := counterValue(reg, "fedshare_sfa_errors_total", MethodCreateSlice); got != 1 {
		t.Errorf("CreateSlice error counter = %d, want 1", got)
	}
	// The rollback released every remote sliver.
	c2 := dialServer(t, servers["PLE"])
	var rl ResourceList
	if err := c2.Call(MethodListResources, Empty{}, &rl); err != nil {
		t.Fatal(err)
	}
	for _, s := range rl.Sites {
		if s.Free != s.Capacity {
			t.Errorf("PLE site %s leaked: free %d of %d", s.SiteID, s.Free, s.Capacity)
		}
	}
	// The remote Reserve and Release at PLE were successful requests, not
	// errors (both servers share reg).
	if got := counterValue(reg, "fedshare_sfa_errors_total", MethodReserve); got != 0 {
		t.Errorf("Reserve error counter = %d, want 0", got)
	}
	if got := counterValue(reg, "fedshare_sfa_requests_total", MethodRelease); got == 0 {
		t.Error("rollback should have issued sfa.Release requests")
	}
}

func TestConnectionAndPeerGauges(t *testing.T) {
	reg := obs.NewRegistry()
	servers := federate(t, map[string][3]int{
		"PLC": {1, 1, 1}, "PLE": {1, 1, 1},
	}, WithMetrics(reg))
	peers := reg.Gauge("fedshare_sfa_peers", "")
	if peers.Value() != 1 {
		t.Errorf("peers gauge = %g, want 1", peers.Value())
	}
	active := reg.Gauge("fedshare_sfa_active_connections", "")
	// The federation's own back-dials hold connections; a new client adds
	// one more.
	base := active.Value()
	c := dialServer(t, servers["PLC"])
	if err := c.Call(MethodPing, nil, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "active connections to rise", func() bool { return active.Value() >= base+1 })
	if err := servers["PLC"].Close(); err != nil {
		t.Fatal(err)
	}
	if got := peers.Value(); got != 0 {
		t.Errorf("peers gauge after close = %g, want 0", got)
	}
}

func TestRequestLatencyHistogram(t *testing.T) {
	srv, reg := startMetricServer(t, "PLC", 1)
	c := dialServer(t, srv)
	for i := 0; i < 3; i++ {
		if err := c.Call(MethodPing, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	h := reg.HistogramVec("fedshare_sfa_request_seconds", "", nil, "method").With(MethodPing)
	if h.Count() != 3 {
		t.Errorf("latency histogram count = %d, want 3", h.Count())
	}
}

// erringListener fails Accept a fixed number of times, then reports
// closure, so the backoff path can be driven deterministically.
type erringListener struct {
	mu    sync.Mutex
	fails int
}

func (l *erringListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.fails > 0 {
		l.fails--
		return nil, fmt.Errorf("synthetic accept failure")
	}
	return nil, net.ErrClosed
}
func (l *erringListener) Close() error   { return nil }
func (l *erringListener) Addr() net.Addr { return &net.TCPAddr{} }

func TestAcceptLoopBackoffAndRateLimitedLog(t *testing.T) {
	reg := obs.NewRegistry()
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...interface{}) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	srv := NewServer(buildAuthority(t, "PLC", 1, 1, 1), testSecret,
		WithMetrics(reg), WithLogger(logf))
	const fails = 6
	start := time.Now()
	srv.wg.Add(1)
	srv.acceptLoop(&erringListener{fails: fails})
	elapsed := time.Since(start)

	if got := reg.Counter("fedshare_sfa_accept_errors_total", "").Value(); got != fails {
		t.Errorf("accept error counter = %d, want %d", got, fails)
	}
	// Backoff: 5+10+20+40+80+160 ms minimum.
	if elapsed < 300*time.Millisecond {
		t.Errorf("accept loop returned in %v; backoff not applied", elapsed)
	}
	mu.Lock()
	defer mu.Unlock()
	// Rate limiting: one record for 6 failures inside the interval.
	var acceptLines []string
	for _, l := range lines {
		if strings.Contains(l, `msg="accept failed"`) {
			acceptLines = append(acceptLines, l)
		}
	}
	if len(acceptLines) != 1 {
		t.Errorf("accept failures logged %d times, want 1: %q", len(acceptLines), acceptLines)
	}
}

func TestDebugLevelLogsRequests(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...interface{}) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	srv := startServer(t, buildAuthority(t, "PLC", 1, 1, 1),
		WithMetrics(obs.NewRegistry()), WithLogger(logf), WithLogLevel(slog.LevelDebug))
	c := dialServer(t, srv)
	if err := c.Call(MethodPing, nil, nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, l := range lines {
		if strings.HasPrefix(l, "level=DEBUG msg=request authority=PLC ") && strings.Contains(l, " method=sfa.Ping ") {
			found = true
		}
	}
	if !found {
		t.Errorf("no debug request record in %q", lines)
	}
}

func TestInfoLevelSuppressesDebug(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...interface{}) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	srv := startServer(t, buildAuthority(t, "PLC", 1, 1, 1),
		WithMetrics(obs.NewRegistry()), WithLogger(logf))
	c := dialServer(t, srv)
	if err := c.Call(MethodPing, nil, nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, l := range lines {
		if strings.Contains(l, "level=DEBUG") {
			t.Errorf("debug record leaked at info level: %q", l)
		}
	}
}
