package sfa

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fedshare/internal/core"
	"fedshare/internal/economics"
	"fedshare/internal/obs"
	"fedshare/internal/planetlab"
)

// ServerConfig tunes a Server's fault-tolerance machinery. Zero fields
// take defaults, so the zero value preserves historical behavior.
type ServerConfig struct {
	// IdleReadDeadline drops a connection that sends nothing for this long
	// (default 2m). Tests shrink it to ~100ms to exercise the idle-drop
	// path quickly.
	IdleReadDeadline time.Duration
	// DedupCapacity bounds the window of remembered idempotency outcomes
	// (default 1024): the oldest outcome in log order is forgotten first,
	// live and after recovery alike.
	DedupCapacity int
	// LeaseReapInterval paces the background lease reaper (default 1s).
	LeaseReapInterval time.Duration
	// Now supplies the lease clock (default time.Now). Tests substitute a
	// simulated clock so expiry is driven deterministically; fedd keeps
	// the wall clock.
	Now func() time.Time
	// MaxInFlight bounds concurrently executing requests; excess requests
	// are shed unexecuted with CodeOverloaded so clients retry with
	// backoff instead of piling onto a saturated server. 0 = unlimited
	// (the historical behavior).
	MaxInFlight int
	// ProbeInterval paces peer liveness probes (default 2s). Probes
	// piggyback on the reaper tick and due-ness is judged by Now, so tests
	// drive them with a simulated clock.
	ProbeInterval time.Duration
	// SuspectAfter and DownAfter are the consecutive-transport-failure
	// thresholds for healthy→suspect (default 1) and suspect→down
	// (default 3, counted from the first failure of the streak).
	SuspectAfter int
	DownAfter    int
	// Seed feeds the deterministic probe-jitter RNG.
	Seed uint64
	// PeerClient, when set, builds the ClientConfig for outbound peer
	// connections (PeerWith and peering back-dials); tests use it to
	// route peer traffic through fault gates, fake clocks, and custom
	// breaker settings. Addr and Registry are filled in if left zero.
	PeerClient func(addr string) ClientConfig
}

func (cfg ServerConfig) withDefaults() ServerConfig {
	if cfg.IdleReadDeadline <= 0 {
		cfg.IdleReadDeadline = 2 * time.Minute
	}
	if cfg.DedupCapacity <= 0 {
		cfg.DedupCapacity = 1024
	}
	if cfg.LeaseReapInterval <= 0 {
		cfg.LeaseReapInterval = time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 1
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 3
	}
	return cfg
}

// Server is one authority's SFA registry: it serves the wire protocol over
// TCP, manages peering, embeds federated slices, and computes value shares
// from the federation's advertised contributions.
type Server struct {
	auth     *planetlab.Authority
	secret   []byte
	demand   *economics.Workload
	log      *obs.Logger
	obsreg   *obs.Registry
	metrics  *serverMetrics
	cfg      ServerConfig
	st       *state // durable state; st.mu is the state lock
	health   *healthTracker
	recon    *reconciler
	inflight atomic.Int64 // requests currently being handled (admission gate)
	store    Store        // nil = memory-only (the default)

	// mu guards the fields below. It is never held together with the
	// state lock.
	mu       sync.Mutex
	record   AuthorityRecord
	peers    map[string]*peerHandle
	conns    map[net.Conn]struct{}
	draining bool

	ln       net.Listener
	wg       sync.WaitGroup
	reapStop chan struct{}
	reapDone chan struct{}
	closed   bool
}

type peerHandle struct {
	record AuthorityRecord
	client *Client
	// lastResources is the peer's last successful advertisement (guarded
	// by the server's mu): when the peer is down, degraded-mode share
	// computation still shapes the full federation model with it before
	// restricting valuation to the live sub-federation.
	lastResources *ResourceList
}

// Option customizes a Server.
type Option func(*Server)

// WithLogger routes server diagnostics to logf (default: log.Printf). The
// server wraps logf in a leveled obs.Logger at the current level, so
// WithLogger composes with WithLogLevel in either order.
func WithLogger(logf func(string, ...interface{})) Option {
	return func(s *Server) { s.log = obs.NewLogger(logf, s.log.Level()) }
}

// WithLogLevel sets the minimum diagnostic level (default obs.LogInfo).
// At obs.LogDebug the server also logs one line per dispatched request.
func WithLogLevel(min obs.LogLevel) Option {
	return func(s *Server) { s.log.SetLevel(min) }
}

// WithMetrics routes the server's instrumentation to reg instead of
// obs.Default — tests use this to read counters in isolation.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) { s.obsreg = reg }
}

// WithDemand sets the demand profile used by GetShares (default: a single
// measurement-style experiment across the federation).
func WithDemand(w *economics.Workload) Option {
	return func(s *Server) { s.demand = w }
}

// WithConfig overrides the server's fault-tolerance configuration; zero
// fields keep their defaults.
func WithConfig(cfg ServerConfig) Option {
	return func(s *Server) { s.cfg = cfg.withDefaults() }
}

// WithStore persists every durable mutation through st before it is
// acknowledged. The default (no store) keeps the server memory-only with
// identical behavior. Pair with Restore to reload recovered state before
// Start.
func WithStore(st Store) Option {
	return func(s *Server) { s.store = st }
}

// NewServer builds a registry for the given authority. secret is the
// federation trust root shared among peered authorities.
func NewServer(auth *planetlab.Authority, secret []byte, opts ...Option) *Server {
	s := &Server{
		auth:   auth,
		secret: secret,
		peers:  map[string]*peerHandle{},
		conns:  map[net.Conn]struct{}{},
		log:    obs.NewLogger(log.Printf, obs.LogInfo),
		obsreg: obs.Default,
		cfg:    ServerConfig{}.withDefaults(),
	}
	for _, o := range opts {
		o(s)
	}
	s.metrics = newServerMetrics(s.obsreg)
	// Delta updates (not Set) so servers sharing a registry aggregate.
	s.st = newState(auth, s.cfg.DedupCapacity, func(delta int) { s.metrics.leasesActive.Add(float64(delta)) })
	s.recon = newReconciler()
	s.health = newHealthTracker(s.cfg.Now, s.cfg.SuspectAfter, s.cfg.DownAfter, s.cfg.ProbeInterval, s.cfg.Seed)
	s.health.onTransition = func(peer string, from, to PeerState) {
		s.metrics.peerState.With(peer).Set(float64(to))
		if from != to {
			s.metrics.peerTransitions.With(peer, to.String()).Inc()
			s.log.Infof("sfa[%s]: peer %s: %s -> %s", s.auth.Name, peer, from, to)
		}
	}
	if s.store != nil {
		// The store calls the source under the state lock (from
		// MaybeSnapshot, inside commit) or after Server.Close.
		s.store.SetSnapshotSource(s.st.snapshot)
	}
	return s
}

// commit makes one decided mutation durable and applies it; the caller
// holds the state lock. A failed append is returned with nothing applied,
// so a refused reserve or slice creation leaves nothing to undo.
func (s *Server) commit(rec Record) error {
	if s.store != nil {
		if err := s.store.Append(rec); err != nil {
			return fmt.Errorf("durable log append: %v", err)
		}
	}
	s.applyLocked(rec)
	return nil
}

// commitAnyway commits a mutation that already took effect for its client
// or cannot be taken back — a release, deletion, expiry, amendment or
// generation. A failed append is logged and the record applied anyway,
// preferring availability: a lost record at worst holds capacity until a
// lease reaps it after recovery.
func (s *Server) commitAnyway(rec Record) {
	if err := s.commit(rec); err != nil {
		s.log.Errorf("sfa[%s]: wal append (%s %s): %v", s.auth.Name, rec.Op, rec.Slice, err)
		s.applyLocked(rec)
	}
}

// applyLocked applies rec and cuts any due snapshot, still under the state
// lock, so a snapshot is exactly the state after the last logged record.
func (s *Server) applyLocked(rec Record) {
	if err := s.st.apply(rec); err != nil {
		// Live records are decided against this very state: only a bug
		// lands here.
		s.log.Errorf("sfa[%s]: apply %s %s: %v", s.auth.Name, rec.Op, rec.Slice, err)
	}
	if s.store != nil {
		if err := s.store.MaybeSnapshot(); err != nil {
			s.log.Errorf("sfa[%s]: snapshot: %v", s.auth.Name, err)
		}
	}
}

// nextGen draws an idempotency generation and makes the high-water mark
// durable, so a recovered server never reuses a generation that may have
// reached a peer inside an outbound idempotency key.
func (s *Server) nextGen() uint64 {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	gen := s.st.gen + 1
	s.commitAnyway(Record{Op: OpGen, Gen: gen})
	return gen
}

// Start begins listening on addr ("127.0.0.1:0" for an ephemeral port) and
// serving connections until Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("sfa: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.record = AuthorityRecord{
		Name:  s.auth.Name,
		Addr:  ln.Addr().String(),
		Sites: s.auth.SiteCount(),
	}
	s.reapStop = make(chan struct{})
	s.reapDone = make(chan struct{})
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	go s.reapLoop()
	return nil
}

// reapLoop periodically releases expired leases until Close. The tick is
// wall-clock paced but expiry is judged by cfg.Now, so tests drive a
// simulated clock while fedd runs in real time.
func (s *Server) reapLoop() {
	defer close(s.reapDone)
	t := time.NewTicker(s.cfg.LeaseReapInterval)
	defer t.Stop()
	for {
		select {
		case <-s.reapStop:
			return
		case <-t.C:
			s.reapExpiredLeases()
			s.probePeers()
		}
	}
}

// reapExpiredLeases releases every lease whose TTL has elapsed and returns
// how many it reaped. Local effects (freeing slivers, deleting slices) are
// committed under the state lock; remote releases happen afterwards,
// outside it, because they draw generations and make network calls.
func (s *Server) reapExpiredLeases() int {
	type pendingRemote struct {
		slice   string
		slivers []SliverRecord
	}
	var remotes []pendingRemote
	s.st.mu.Lock()
	expired := s.st.expired(s.cfg.Now().UnixNano())
	for _, l := range expired {
		if l.Kind == leaseSlice {
			// Delete the slice exactly as an explicit DeleteSlice would:
			// local slivers freed now, remote slivers released after the
			// state lock is dropped.
			if sl := s.st.slices[l.Slice]; sl != nil {
				remotes = append(remotes, pendingRemote{slice: l.Slice, slivers: sl.Remote})
			}
			s.log.Infof("sfa[%s]: slice lease expired: %s", s.auth.Name, l.Slice)
		} else {
			s.log.Infof("sfa[%s]: lease expired for %s: released %d slivers",
				s.auth.Name, l.Slice, len(l.Slivers))
		}
		s.metrics.leasesExpired.Inc()
		s.commitAnyway(Record{Op: OpExpire, Slice: l.Slice, Kind: l.Kind})
	}
	s.st.mu.Unlock()
	for _, pr := range remotes {
		s.releaseRemote(pr.slice, pr.slivers)
	}
	if len(expired) > 0 {
		s.log.Debugf("sfa[%s]: reaper pass released %d expired leases", s.auth.Name, len(expired))
	}
	return len(expired)
}

// Addr returns the listening address (valid after Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.record.Addr
}

// Close stops the listener, closes peer connections, stops the lease
// reaper, and waits for active connections to drain. Leases still active
// are left in place: their resources belong to remote coordinators and the
// process is going away anyway.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	if s.draining {
		ln = nil // Drain already closed the listener
	}
	reapStop := s.reapStop
	peers := s.peers
	s.peers = map[string]*peerHandle{}
	s.metrics.peers.Set(0)
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	if reapStop != nil {
		close(reapStop)
		<-s.reapDone
	}
	for _, p := range peers {
		if p.client != nil {
			_ = p.client.Close()
		}
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

// Drain gracefully quiesces the server: it stops accepting new
// connections, lets in-flight requests finish, wakes idle connections so
// they close promptly, and blocks until every connection handler has
// returned. Active leases are NOT released — their holders still own the
// resources until TTL or explicit Release. Draining() reports true from
// the moment Drain is entered, so a readiness probe can flip to 503 while
// in-flight work completes. Call Close afterwards for final cleanup.
func (s *Server) Drain() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.st.mu.Lock()
	holdings := len(s.st.leases)
	s.st.mu.Unlock()
	start := time.Now()
	if !already {
		s.log.Infof("sfa[%s]: drain started: %d open connections, %d active holdings",
			s.auth.Name, len(conns), holdings)
		if ln != nil {
			_ = ln.Close()
		}
		// Expire idle reads immediately; serveConn re-checks the draining
		// flag after arming each read deadline, so no connection can
		// re-arm past this point and linger.
		for _, c := range conns {
			_ = c.SetReadDeadline(time.Now())
		}
	}
	s.wg.Wait()
	if !already {
		s.log.Infof("sfa[%s]: drain complete in %s", s.auth.Name,
			time.Since(start).Round(time.Millisecond))
	}
}

// Draining reports whether Drain has been initiated.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// acceptBackoffMax caps the accept-loop retry delay.
const acceptBackoffMax = time.Second

// acceptLogInterval bounds the accept-error log rate: within the interval
// further failures only bump the counter; the next emitted line reports
// how many were suppressed.
const acceptLogInterval = 5 * time.Second

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	var (
		backoff    time.Duration
		lastLog    time.Time
		suppressed int
	)
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// A flapping listener (EMFILE, transient network failure) must
			// not spam the log or hot-loop: every failure increments the
			// counter, logging is rate-limited, and the retry delay doubles
			// up to a cap.
			s.metrics.acceptErrors.Inc()
			if now := time.Now(); now.Sub(lastLog) >= acceptLogInterval {
				s.log.Errorf("sfa[%s]: accept: %v (%d earlier failures suppressed)",
					s.auth.Name, err, suppressed)
				lastLog = now
				suppressed = 0
			} else {
				suppressed++
			}
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	s.metrics.activeConns.Inc()
	defer func() {
		s.metrics.activeConns.Dec()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		if s.Draining() {
			return
		}
		if err := conn.SetReadDeadline(time.Now().Add(s.cfg.IdleReadDeadline)); err != nil {
			return
		}
		// Re-check after arming the deadline: Drain sets an immediate
		// deadline on every connection, and this second look closes the
		// race where our SetReadDeadline overwrote it.
		if s.Draining() {
			return
		}
		req, err := ReadFrame(r)
		if err != nil {
			// EOF is a clean client close and a deadline is an idle drop;
			// anything else is a malformed or oversized frame.
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && !errors.Is(err, os.ErrDeadlineExceeded) {
				s.metrics.protocolErrors.Inc()
				s.log.Debugf("sfa[%s]: dropping connection: %v", s.auth.Name, err)
			}
			return
		}
		resp := s.dispatch(req)
		if err := WriteFrame(w, resp); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

func (s *Server) dispatch(req *Envelope) *Envelope {
	// Admission gate: shed excess load before any work happens. Shed
	// requests are guaranteed unexecuted, carry CodeOverloaded so clients
	// retry with backoff without tripping their breakers, and do NOT count
	// in requests_total — the dispatched−replayed exactly-once identity
	// covers only executed traffic.
	if max := s.cfg.MaxInFlight; max > 0 {
		if n := s.inflight.Add(1); n > int64(max) {
			s.inflight.Add(-1)
			s.metrics.shed.Inc()
			s.log.Debugf("sfa[%s]: shed %s: in-flight bound %d reached", s.auth.Name, req.Method, max)
			return &Envelope{ID: req.ID, Error: "server overloaded: in-flight admission bound reached", Code: CodeOverloaded}
		}
		defer s.inflight.Add(-1)
	}
	label := methodLabel(req.Method)
	start := time.Now()
	resp := &Envelope{ID: req.ID}
	result, err := s.handle(req.Method, req.Params)
	dur := time.Since(start)
	s.metrics.requests.With(label).Inc()
	s.metrics.latency.With(label).Observe(dur.Seconds())
	if err != nil {
		s.metrics.errors.With(label).Inc()
		s.log.Debugf("sfa[%s]: method=%s dur=%s err=%q", s.auth.Name, req.Method, dur, err)
		resp.Error = err.Error()
		return resp
	}
	s.log.Debugf("sfa[%s]: method=%s dur=%s", s.auth.Name, req.Method, dur)
	resp.Result = marshal(result)
	return resp
}

func (s *Server) handle(method string, params json.RawMessage) (interface{}, error) {
	switch method {
	case MethodPing:
		return Empty{}, nil
	case MethodGetRecord:
		s.mu.Lock()
		defer s.mu.Unlock()
		rec := s.record
		rec.Sites = s.auth.SiteCount()
		return rec, nil
	case MethodListResources:
		return s.listResources(), nil
	case MethodPeer:
		var p PeerRequest
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("bad peer request: %w", err)
		}
		return s.handlePeer(p)
	case MethodCreateSlice:
		var p SliceRequest
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("bad slice request: %w", err)
		}
		return s.handleCreateSlice(p)
	case MethodDeleteSlice:
		var p DeleteRequest
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("bad delete request: %w", err)
		}
		return s.handleDeleteSlice(p)
	case MethodReserve:
		var p ReserveRequest
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("bad reserve request: %w", err)
		}
		return s.handleReserve(p)
	case MethodRelease:
		var p ReleaseRequest
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("bad release request: %w", err)
		}
		return s.handleRelease(p)
	case MethodGetShares:
		var p SharesRequest
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("bad shares request: %w", err)
		}
		return s.handleShares(p)
	case MethodGetUsage:
		return s.handleUsage(), nil
	case MethodListHoldings:
		var p HoldingsRequest
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("bad holdings request: %w", err)
		}
		return s.handleListHoldings(p)
	}
	return nil, fmt.Errorf("unknown method %q", method)
}

func (s *Server) verify(c Credential) error {
	return c.Verify(s.secret, time.Now())
}

func (s *Server) listResources() ResourceList {
	out := ResourceList{Authority: s.auth.Name}
	for _, site := range s.auth.Sites() {
		out.Sites = append(out.Sites, SiteResource{
			SiteID:   site.ID,
			Name:     site.Name,
			Nodes:    len(site.Nodes),
			Capacity: site.Capacity(),
			Free:     s.auth.SiteFree(site.ID),
		})
	}
	return out
}

// newPeerClient builds the client for an outbound peer connection, through
// the PeerClient hook when configured. The connection is lazy; callers that
// need eager errors issue a Ping.
func (s *Server) newPeerClient(addr string) *Client {
	var cc ClientConfig
	if s.cfg.PeerClient != nil {
		cc = s.cfg.PeerClient(addr)
	} else {
		cc = ClientConfig{DialTimeout: 10 * time.Second, CallTimeout: 10 * time.Second}
	}
	if cc.Addr == "" {
		cc.Addr = addr
	}
	if cc.Registry == nil {
		cc.Registry = s.obsreg
	}
	return NewClient(cc)
}

// callPeer performs one RPC against a peer and feeds the outcome to the
// health tracker: transport failures count against the peer, any answered
// request proves it alive.
func (s *Server) callPeer(name string, client *Client, method string, params, result interface{}) error {
	err := client.Call(method, params, result)
	s.health.observe(name, !isTransportFailure(err))
	return err
}

// handlePeer records the caller as a peer and connects back to it.
func (s *Server) handlePeer(p PeerRequest) (*PeerResponse, error) {
	if err := s.verify(p.Credential); err != nil {
		return nil, err
	}
	if p.Record.Name == s.auth.Name {
		return nil, fmt.Errorf("cannot peer with self")
	}
	client := s.newPeerClient(p.Record.Addr)
	if err := client.Call(MethodPing, nil, nil); err != nil {
		_ = client.Close()
		return nil, fmt.Errorf("peer back-dial: %w", err)
	}
	s.mu.Lock()
	if old, ok := s.peers[p.Record.Name]; ok && old.client != nil {
		_ = old.client.Close()
	}
	s.peers[p.Record.Name] = &peerHandle{record: p.Record, client: client}
	s.metrics.peers.Set(float64(len(s.peers)))
	rec := s.record
	rec.Sites = s.auth.SiteCount()
	s.mu.Unlock()
	s.health.ensure(p.Record.Name)
	s.log.Infof("sfa[%s]: peered with %s (%s)", s.auth.Name, p.Record.Name, p.Record.Addr)
	return &PeerResponse{Record: rec}, nil
}

// handleListHoldings answers the anti-entropy read: which reserve holdings
// this authority tracks for the asking coordinator, canonically ordered.
func (s *Server) handleListHoldings(p HoldingsRequest) (*HoldingsResponse, error) {
	if err := s.verify(p.Credential); err != nil {
		return nil, err
	}
	holder := p.Holder
	if holder == "" {
		holder = p.Credential.Subject
	}
	resp := &HoldingsResponse{Authority: s.auth.Name}
	s.st.mu.Lock()
	for _, l := range s.st.leases {
		if l.Kind == leaseReserve && l.Holder == holder {
			resp.Holdings = append(resp.Holdings, Holding{Slice: l.Slice, Expiry: l.Expiry,
				Slivers: append([]SliverRecord(nil), l.Slivers...)})
		}
	}
	s.st.mu.Unlock()
	for _, h := range resp.Holdings {
		sort.Slice(h.Slivers, func(i, j int) bool {
			if h.Slivers[i].SiteID != h.Slivers[j].SiteID {
				return h.Slivers[i].SiteID < h.Slivers[j].SiteID
			}
			return h.Slivers[i].NodeID < h.Slivers[j].NodeID
		})
	}
	sort.Slice(resp.Holdings, func(i, j int) bool { return resp.Holdings[i].Slice < resp.Holdings[j].Slice })
	return resp, nil
}

// probePeers pings every peer whose probe deadline has passed (paced by
// the reaper tick, judged by cfg.Now). A probe reaching a down peer starts
// recovery: the reconciler runs inline on the reaper goroutine — so Close,
// which stops the reaper before closing peer clients, never races it — and
// readmits the peer only after proving convergence. A healthy peer with
// queued operations (accrued in a transition race window) is drained
// through the same path.
func (s *Server) probePeers() {
	for _, name := range s.health.dueProbes() {
		s.mu.Lock()
		ph := s.peers[name]
		stopped := s.closed || s.draining
		s.mu.Unlock()
		if ph == nil || stopped {
			continue
		}
		err := ph.client.Call(MethodPing, nil, nil)
		ok := !isTransportFailure(err)
		switch s.health.state(name) {
		case PeerDown:
			if ok && s.health.beginRecovery(name) {
				s.log.Infof("sfa[%s]: probe reached down peer %s; reconciling", s.auth.Name, name)
				s.reconcilePeer(name, ph)
			}
		case PeerRecovering:
			// Owned by a reconciler; nothing to observe.
		default:
			s.health.observe(name, ok)
			if ok && s.recon.depth(name) > 0 && s.health.beginDrain(name) {
				s.reconcilePeer(name, ph)
			}
		}
	}
}

// cacheResources remembers a peer's last successful advertisement;
// cachedResources returns it (nil if none).
func (s *Server) cacheResources(name string, rl *ResourceList) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ph, ok := s.peers[name]; ok {
		ph.lastResources = rl
	}
}

func (s *Server) cachedResources(name string) *ResourceList {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ph, ok := s.peers[name]; ok {
		return ph.lastResources
	}
	return nil
}

// PeerHealth reports each peer's lifecycle condition, breaker state, and
// reconcile backlog, sorted by name — the data behind fedd's /peersz
// endpoint and fedctl status's peer table.
func (s *Server) PeerHealth() []PeerHealthInfo {
	infos := s.health.snapshot()
	s.mu.Lock()
	handles := make(map[string]*peerHandle, len(s.peers))
	for n, ph := range s.peers {
		handles[n] = ph
	}
	s.mu.Unlock()
	out := infos[:0]
	for _, info := range infos {
		ph, ok := handles[info.Peer]
		if !ok {
			continue // tracked but no longer peered
		}
		info.Addr = ph.record.Addr
		if ph.client != nil {
			info.Breaker = ph.client.BreakerState()
		}
		info.Backlog = s.recon.depth(info.Peer)
		out = append(out, info)
	}
	return out
}

// PeerLifecycleState returns one peer's current health state.
func (s *Server) PeerLifecycleState(name string) PeerState {
	return s.health.state(name)
}

// handleReserve places slivers locally for a remote federated slice. With
// an idempotency key, a retried request replays the original response
// instead of double-booking; with a TTL, the reservation is a lease the
// reaper releases once the holding time elapses.
func (s *Server) handleReserve(p ReserveRequest) (*ReserveResponse, error) {
	if err := s.verify(p.Credential); err != nil {
		return nil, err
	}
	if p.Sites <= 0 || p.PerSite <= 0 {
		return nil, fmt.Errorf("reserve needs positive sites and per-site counts")
	}
	key := ""
	if p.IdempotencyKey != "" {
		// Keys are namespaced by method so a key accidentally reused
		// across Reserve and Release can never replay the wrong method's
		// outcome.
		key = "reserve:" + p.IdempotencyKey
	}
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	if slivers, ok := s.st.outcome(key); ok {
		// A duplicate — a retry after a lost response, or a concurrent twin
		// that waited on the state lock — replays the completed outcome.
		s.metrics.dedupReplays.With(MethodReserve).Inc()
		s.log.Debugf("sfa[%s]: reserve dedup replay for key %q", s.auth.Name, p.IdempotencyKey)
		return &ReserveResponse{Slivers: slivers}, nil
	}
	// Decide: the authority's placement policy holds slivers at the first
	// p.Sites sites with room. The hold is dropped on return; apply places
	// exactly the committed slivers.
	candidates := s.auth.AvailableSites(p.PerSite)
	if len(candidates) > p.Sites {
		candidates = candidates[:p.Sites]
	}
	var hold []planetlab.Sliver
	for _, siteID := range candidates {
		if svs, err := s.auth.ReserveSlivers(p.SliceName, siteID, p.PerSite); err == nil {
			hold = append(hold, svs...)
		}
	}
	defer s.auth.ReleaseSlivers(hold)
	resp := &ReserveResponse{Slivers: toRecords(s.auth.Name, hold)}
	if len(hold) == 0 && key == "" {
		return resp, nil
	}
	// Every holding is tracked, leased (TTL set) or held until released,
	// so Release frees exactly the slivers still held here. The holder
	// (credential subject) keys the anti-entropy ListHoldings read.
	rec := Record{Op: OpReserve, Slice: p.SliceName, Key: key, Holder: p.Credential.Subject, Slivers: resp.Slivers}
	if len(hold) > 0 && p.TTLSeconds > 0 {
		rec.Expiry = s.cfg.Now().Add(time.Duration(p.TTLSeconds * float64(time.Second))).UnixNano()
	}
	if err := s.commit(rec); err != nil {
		return nil, err
	}
	return resp, nil
}

// handleRelease frees locally held slivers of a federated slice. A keyed
// release is idempotent: retrying a release whose response was lost must
// not decrement node load twice, or capacity leaks to other slices.
func (s *Server) handleRelease(p ReleaseRequest) (*Empty, error) {
	if err := s.verify(p.Credential); err != nil {
		return nil, err
	}
	key := ""
	if p.IdempotencyKey != "" {
		key = "release:" + p.IdempotencyKey
	}
	var requested []SliverRecord
	for _, rec := range p.Slivers {
		if rec.Authority == s.auth.Name {
			requested = append(requested, rec)
		}
	}
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	if _, ok := s.st.outcome(key); ok {
		s.metrics.dedupReplays.With(MethodRelease).Inc()
		s.log.Debugf("sfa[%s]: release dedup replay for key %q", s.auth.Name, p.IdempotencyKey)
		return &Empty{}, nil
	}
	// Free only slivers this server still holds for the slice: if the
	// reaper or an earlier release already freed them, a second node-load
	// decrement would free capacity held by other slices.
	if freed := s.st.held(p.SliceName, requested); len(freed) > 0 || key != "" {
		s.commitAnyway(Record{Op: OpRelease, Slice: p.SliceName, Key: key, Slivers: freed})
	}
	return &Empty{}, nil
}

// handleCreateSlice embeds a slice across the federation: local sites first,
// then peers until the diversity threshold is met.
func (s *Server) handleCreateSlice(p SliceRequest) (*SliceResponse, error) {
	if err := s.verify(p.Credential); err != nil {
		return nil, err
	}
	sp := s.obsreg.StartSpan("sfa.embed").Attr("slice", p.Name)
	defer sp.End()
	per := p.SliversPerSite
	if per <= 0 {
		per = 1
	}
	spec := planetlab.SliceSpec{
		Name: p.Name, Owner: p.Owner,
		MinSites: 0, MaxSites: p.MaxSites, SliversPerSite: per,
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if p.MinSites < 0 {
		return nil, fmt.Errorf("negative min_sites")
	}

	// Local placement first. The local slivers are held for the whole peer
	// fan-out: transient node load outside the durable state, released on
	// abort and turned into the create_slice record's placement at commit.
	maxSites := p.MaxSites
	var hold []planetlab.Sliver
	var remote []SliverRecord
	sitesGot := 0
	s.st.mu.Lock()
	if s.st.slices[p.Name] != nil {
		s.st.mu.Unlock()
		return nil, fmt.Errorf("slice %s already exists", p.Name)
	}
	for _, siteID := range s.auth.AvailableSites(per) {
		if maxSites > 0 && sitesGot >= maxSites {
			break
		}
		svs, err := s.auth.ReserveSlivers(p.Name, siteID, per)
		if err != nil {
			continue
		}
		hold = append(hold, svs...)
		sitesGot++
	}
	s.st.mu.Unlock()

	// Peers, in deterministic order, until the threshold (and max) is met.
	cred := IssueCredential(s.secret, s.auth.Name, s.auth.Name, time.Minute)
	// One idempotency generation per CreateSlice invocation: client-level
	// retries of each Reserve below share a key, while a later lifecycle of
	// the same slice name (delete + recreate, or recreate after TTL expiry)
	// draws a fresh generation and executes anew instead of replaying this
	// lifecycle's outcome.
	gen := s.nextGen()
	for _, ph := range s.peerList() {
		name := ph.record.Name
		if st := s.health.state(name); st == PeerDown || st == PeerRecovering {
			// Degraded mode: place on the live sub-federation only. No
			// idempotency key is drawn, so nothing can replay at the peer
			// later.
			s.log.Debugf("sfa[%s]: skipping %s peer %s for slice %s", s.auth.Name, st, name, p.Name)
			continue
		}
		need := 1 << 20 // effectively unbounded
		if maxSites > 0 {
			need = maxSites - sitesGot
			if need <= 0 {
				break
			}
		}
		req := ReserveRequest{
			SliceName: p.Name, Sites: need, PerSite: per,
			// One logical reservation per (coordinator, slice lifecycle,
			// peer): retries of this call dedup server-side.
			IdempotencyKey: fmt.Sprintf("%s/%s#%d@%s", s.auth.Name, p.Name, gen, name),
			TTLSeconds:     p.TTLSeconds,
		}
		queued := req // credential-free copy; reconciliation re-signs it
		req.Credential = cred
		var rr ReserveResponse
		err := s.callPeer(name, ph.client, MethodReserve, req, &rr)
		if err != nil {
			s.log.Errorf("sfa[%s]: reserve at %s failed: %v", s.auth.Name, name, err)
			if isTransportFailure(err) {
				// The request may or may not have reached the peer. Queue
				// it under its original key: reconciliation replays it
				// (dedup settles which case happened) and then retires the
				// resulting orphan slivers, since this slice commits
				// without them.
				s.recon.enqueue(name, pendingOp{method: MethodReserve, slice: p.Name, key: queued.IdempotencyKey, reserve: &queued})
				s.setBacklogGauge(name)
			}
			continue
		}
		siteSeen := map[string]bool{}
		for _, sv := range rr.Slivers {
			if !siteSeen[sv.SiteID] {
				siteSeen[sv.SiteID] = true
				sitesGot++
			}
		}
		remote = append(remote, rr.Slivers...)
	}

	local := toRecords(s.auth.Name, hold)
	var err error
	s.st.mu.Lock()
	switch {
	case sitesGot < p.MinSites:
		err = fmt.Errorf("federation can offer %d sites, slice needs %d", sitesGot, p.MinSites)
	case s.st.slices[p.Name] != nil: // a concurrent create of the name committed first
		err = fmt.Errorf("slice %s already exists", p.Name)
	default:
		rec := Record{Op: OpCreateSlice, Slice: p.Name, Slivers: local, Remote: remote,
			Spec: &SliceSpecState{Name: p.Name, Owner: p.Owner, MinSites: p.MinSites, MaxSites: p.MaxSites, SliversPerSite: per}}
		if p.TTLSeconds > 0 {
			// Lease the whole slice for the experiment's holding time; the
			// reaper deletes it (and releases remote slivers) at expiry.
			rec.Expiry = s.cfg.Now().Add(time.Duration(p.TTLSeconds * float64(time.Second))).UnixNano()
		}
		err = s.commit(rec)
	}
	s.auth.ReleaseSlivers(hold)
	s.st.mu.Unlock()
	if err != nil {
		s.releaseRemote(p.Name, remote)
		return nil, err
	}
	return &SliceResponse{Name: p.Name, Sites: sitesGot, Slivers: append(append([]SliverRecord(nil), local...), remote...)}, nil
}

func (s *Server) handleDeleteSlice(p DeleteRequest) (*Empty, error) {
	if err := s.verify(p.Credential); err != nil {
		return nil, err
	}
	s.st.mu.Lock()
	sl := s.st.slices[p.Name]
	if sl == nil {
		s.st.mu.Unlock()
		return nil, fmt.Errorf("no slice %s", p.Name)
	}
	remote := sl.Remote
	s.commitAnyway(Record{Op: OpDeleteSlice, Slice: p.Name})
	s.st.mu.Unlock()
	s.releaseRemote(p.Name, remote)
	return &Empty{}, nil
}

// releaseRemote frees slivers held at peers, grouped per authority.
// Releases bound for down or recovering peers — and releases that fail at
// the transport level — are queued under their idempotency key for
// reconciliation to replay, so a partition never loses a release.
func (s *Server) releaseRemote(sliceName string, slivers []SliverRecord) {
	if len(slivers) == 0 {
		return
	}
	byPeer := map[string][]SliverRecord{}
	for _, sv := range slivers {
		byPeer[sv.Authority] = append(byPeer[sv.Authority], sv)
	}
	cred := IssueCredential(s.secret, s.auth.Name, s.auth.Name, time.Minute)
	// Fresh generation per invocation: retries of each Release below share
	// a key, but a later lifecycle's release of a recreated slice name is
	// never swallowed by this one's cached outcome.
	gen := s.nextGen()
	for _, name := range sortedKeys(byPeer) {
		svs := byPeer[name]
		s.mu.Lock()
		ph := s.peers[name]
		s.mu.Unlock()
		if ph == nil {
			s.log.Errorf("sfa[%s]: cannot release %d slivers at unknown peer %s", s.auth.Name, len(svs), name)
			continue
		}
		req := ReleaseRequest{
			SliceName: sliceName, Slivers: svs,
			// Retries of this release must not double-free at the peer.
			IdempotencyKey: fmt.Sprintf("%s/%s#%d@%s", s.auth.Name, sliceName, gen, name),
		}
		if st := s.health.state(name); st == PeerDown || st == PeerRecovering {
			// Known unreachable: queue instead of burning a call timeout.
			queued := req
			s.recon.enqueue(name, pendingOp{method: MethodRelease, slice: sliceName, key: req.IdempotencyKey, release: &queued})
			s.setBacklogGauge(name)
			s.log.Infof("sfa[%s]: queued release of %d slivers of %s for %s peer %s",
				s.auth.Name, len(svs), sliceName, st, name)
			continue
		}
		queued := req // credential-free copy; reconciliation re-signs it
		req.Credential = cred
		if err := s.callPeer(name, ph.client, MethodRelease, req, nil); err != nil {
			s.log.Errorf("sfa[%s]: release at %s: %v", s.auth.Name, name, err)
			if isTransportFailure(err) {
				s.recon.enqueue(name, pendingOp{method: MethodRelease, slice: sliceName, key: queued.IdempotencyKey, release: &queued})
				s.setBacklogGauge(name)
			}
		}
	}
}

// peerList snapshots peers sorted by name for deterministic embedding.
func (s *Server) peerList() []*peerHandle {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.peers))
	for n := range s.peers {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*peerHandle, 0, len(names))
	for _, n := range names {
		out = append(out, s.peers[n])
	}
	return out
}

// handleShares builds the federation's economic model from its own and its
// peers' advertised resources and computes value shares under the requested
// policy — the paper's method exposed as a network service.
//
// Unreachable peers degrade the computation instead of failing it: down
// and recovering peers (and any peer whose live listing fails at the
// transport level) are excluded from valuation, shares are computed over
// the live sub-federation, and the response carries the Partial marker
// with the excluded authorities. A down peer's last advertisement, when
// cached, still shapes the full model so the sub-federation is priced as
// a coalition of the same game; the demand profile never shrinks just
// because peers died.
func (s *Server) handleShares(p SharesRequest) (*SharesResponse, error) {
	sp := s.obsreg.StartSpan("sfa.shares").Attr("policy", p.Policy)
	defer sp.End()
	type contribution struct {
		name     string
		sites    int
		capacity float64 // per-site
		live     bool
	}
	var contribs []contribution

	// Own contribution.
	own := s.listResources()
	ownSites := len(own.Sites)
	ownCap := 0.0
	for _, site := range own.Sites {
		ownCap += float64(site.Capacity)
	}
	perSite := 0.0
	if ownSites > 0 {
		perSite = ownCap / float64(ownSites)
	}
	contribs = append(contribs, contribution{s.auth.Name, ownSites, perSite, true})

	// Peers' advertised resources.
	var down []string
	for _, ph := range s.peerList() {
		name := ph.record.Name
		var rl *ResourceList
		live := false
		if st := s.health.state(name); st == PeerDown || st == PeerRecovering {
			rl = s.cachedResources(name)
		} else {
			var fresh ResourceList
			err := s.callPeer(name, ph.client, MethodListResources, Empty{}, &fresh)
			switch {
			case err == nil:
				live = true
				rl = &fresh
				s.cacheResources(name, &fresh)
			case isTransportFailure(err):
				rl = s.cachedResources(name)
			default:
				return nil, fmt.Errorf("list resources at %s: %w", name, err)
			}
		}
		if rl == nil {
			// Unreachable and never successfully listed: nothing to model.
			down = append(down, name)
			continue
		}
		if !live {
			down = append(down, name)
		}
		sites := len(rl.Sites)
		capTotal := 0.0
		for _, site := range rl.Sites {
			capTotal += float64(site.Capacity)
		}
		per := 0.0
		if sites > 0 {
			per = capTotal / float64(sites)
		}
		contribs = append(contribs, contribution{rl.Authority, sites, per, live})
	}
	sort.Slice(contribs, func(i, j int) bool { return contribs[i].name < contribs[j].name })

	facilities := make([]core.Facility, len(contribs))
	for i, c := range contribs {
		facilities[i] = core.Facility{Name: c.name, Locations: c.sites, Resources: c.capacity}
	}
	demand := s.demand
	if demand == nil {
		// Default profile: one diversity-hungry experiment spanning half
		// the federation's sites (stale contributions included — demand
		// does not shrink with the live set).
		total := 0
		for _, c := range contribs {
			total += c.sites
		}
		wl, err := economics.NewWorkload(economics.DemandClass{
			Type: economics.ExperimentType{
				Name: "default", MinLocations: float64(total) / 2,
				MaxLocations: math.Inf(1), Resources: 1, HoldingTime: 1, Shape: 1,
			},
			Count: 1,
		})
		if err != nil {
			return nil, err
		}
		demand = wl
	}
	model, err := core.NewModel(facilities, demand)
	if err != nil {
		return nil, err
	}
	if len(down) > 0 {
		liveSet := map[string]bool{}
		for _, c := range contribs {
			if c.live {
				liveSet[c.name] = true
			}
		}
		sub, _, err := model.SubFederation(func(n string) bool { return liveSet[n] })
		if err != nil {
			return nil, err
		}
		model = sub
	}
	pol, err := core.PolicyByName(p.Policy)
	if err != nil {
		return nil, err
	}
	sharesVec, err := pol.Shares(model)
	if err != nil {
		return nil, err
	}
	resp := &SharesResponse{
		Policy:     pol.Name(),
		GrandValue: model.GrandValue(),
		Shares:     map[string]float64{},
	}
	for i, f := range model.Facilities {
		resp.Shares[f.Name] = sharesVec[i]
	}
	if len(down) > 0 {
		sort.Strings(down)
		resp.Partial = true
		resp.Down = down
	}
	return resp, nil
}

// handleUsage reports cumulative served slivers and the measured
// consumption shares they imply.
func (s *Server) handleUsage() *UsageResponse {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	resp := &UsageResponse{
		Authority:         s.auth.Name,
		CumulativeSlivers: map[string]int{},
		MeasuredShares:    map[string]float64{},
		SlicesEmbedded:    s.st.embedded,
	}
	total := 0
	for name, n := range s.st.usage {
		resp.CumulativeSlivers[name] = n
		total += n
	}
	if total > 0 {
		for name, n := range s.st.usage {
			resp.MeasuredShares[name] = float64(n) / float64(total)
		}
	}
	return resp
}

// Restore loads recovered durable state into a freshly built server: the
// snapshot, then each logged record after it through the same apply live
// requests use. It must run before Start, while nothing else touches the
// server. Lease expiries are absolute timestamps, so holdings that expired
// during the outage are reaped on the first reaper tick after Start rather
// than silently resurrected.
func (s *Server) Restore(st *State) error {
	if st == nil {
		return nil
	}
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	s.st.load(st)
	for i, rec := range st.log {
		if err := s.st.apply(rec); err != nil {
			return fmt.Errorf("sfa: replay record %d after the snapshot: %w", i+1, err)
		}
	}
	s.log.Infof("sfa[%s]: restored durable state: %d slices, %d leases, %d dedup keys, gen %d (%d records replayed)",
		s.auth.Name, len(s.st.slices), len(s.st.leases), len(s.st.order), s.st.gen, len(st.log))
	return nil
}

// PeerWith initiates peering with a remote registry at addr: it dials,
// introduces itself, and records the remote as a peer, so federation flows
// both ways after the remote's back-dial.
func (s *Server) PeerWith(addr string) error {
	client := s.newPeerClient(addr)
	s.mu.Lock()
	rec := s.record
	rec.Sites = s.auth.SiteCount()
	s.mu.Unlock()
	cred := IssueCredential(s.secret, s.auth.Name, s.auth.Name, time.Minute)
	var resp PeerResponse
	if err := client.Call(MethodPeer, PeerRequest{Record: rec, Credential: cred}, &resp); err != nil {
		_ = client.Close()
		return err
	}
	s.mu.Lock()
	if old, ok := s.peers[resp.Record.Name]; ok && old.client != nil {
		_ = old.client.Close()
	}
	s.peers[resp.Record.Name] = &peerHandle{record: resp.Record, client: client}
	s.metrics.peers.Set(float64(len(s.peers)))
	s.mu.Unlock()
	s.health.ensure(resp.Record.Name)
	s.log.Infof("sfa[%s]: peered with %s (%s)", s.auth.Name, resp.Record.Name, resp.Record.Addr)
	return nil
}

// Peers returns the names of current peers.
func (s *Server) Peers() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for n := range s.peers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
