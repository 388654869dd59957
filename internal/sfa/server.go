package sfa

// This file holds the transport: configuration, lifecycle, the accept
// loop, frames, admission and the route from each method to its handler.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
	// DownAfter is the consecutive-transport-failure threshold for
	// suspect→down (default 3), counted from the first failure of the
	// streak, which makes a healthy peer suspect.
	DownAfter int
	// Seed feeds the deterministic probe-jitter RNG.
	Seed uint64
	// PeerClient, when set, builds the ClientConfig for outbound peer
	// connections (PeerWith and peering back-dials); tests use it to
	// route peer traffic through fault gates, fake clocks, and custom
	// breaker settings. Addr and Registry are filled in if left zero.
	PeerClient func(addr string) ClientConfig
}

// dedupWindow bounds the window of remembered idempotency outcomes: the
// oldest outcome in log order is forgotten first, live and after recovery
// alike.
const dedupWindow = 1024

func (cfg ServerConfig) withDefaults() ServerConfig {
	if cfg.IdleReadDeadline <= 0 {
		cfg.IdleReadDeadline = 2 * time.Minute
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
	log      *slog.Logger  // carries the authority as an attribute
	level    slog.LevelVar // log's minimum level, set by WithLogLevel
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
	addr     string // listening address, set by Start
	peers    map[string]*peerHandle
	conns    map[net.Conn]struct{}
	draining bool

	ln       net.Listener
	wg       sync.WaitGroup
	reapStop chan struct{}
	reapDone chan struct{}
	closed   bool
}

// Option customizes a Server.
type Option func(*Server)

// WithLogger routes server diagnostics to logf (default: log.Printf): a
// slog text handler formats each record, without a time (logf adds its
// own, if any), and writes it through logf as one line. WithLogger
// composes with WithLogLevel in either order.
func WithLogger(logf func(string, ...interface{})) Option {
	return func(s *Server) {
		s.log = slog.New(slog.NewTextHandler(printfWriter(logf), &slog.HandlerOptions{
			Level: &s.level,
			ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
				if a.Key == slog.TimeKey && len(groups) == 0 {
					return slog.Attr{}
				}
				return a
			},
		}))
	}
}

// WithLogLevel sets the minimum diagnostic level (default slog.LevelInfo).
// At slog.LevelDebug the server also logs one record per dispatched
// request.
func WithLogLevel(min slog.Level) Option {
	return func(s *Server) { s.level.Set(min) }
}

// printfWriter writes each record the text handler formats, less its
// newline, through a printf-style function.
type printfWriter func(string, ...interface{})

func (w printfWriter) Write(p []byte) (int, error) {
	w("%s", strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
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
		obsreg: obs.Default,
		cfg:    ServerConfig{}.withDefaults(),
	}
	for _, o := range opts {
		o(s)
	}
	if s.log == nil {
		WithLogger(log.Printf)(s)
	}
	s.log = s.log.With("authority", auth.Name)
	s.metrics = newServerMetrics(s.obsreg)
	// Delta updates (not Set) so servers sharing a registry aggregate.
	s.st = newState(auth, dedupWindow, func(delta int) { s.metrics.leasesActive.Add(float64(delta)) })
	s.recon = newReconciler()
	s.health = newHealthTracker(s.cfg.Now, s.cfg.DownAfter, s.cfg.ProbeInterval, s.cfg.Seed)
	s.health.onTransition = func(peer string, from, to PeerState) {
		s.metrics.peerState.With(peer).Set(float64(to))
		if from != to {
			s.metrics.peerTransitions.With(peer, to.String()).Inc()
			s.log.Info("peer state", "peer", peer, "from", from, "to", to)
		}
	}
	if s.store != nil {
		// The store calls the source under the state lock (from
		// MaybeSnapshot, inside commit) or after Server.Close.
		s.store.SetSnapshotSource(s.st.snapshot)
	}
	return s
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
	s.addr = ln.Addr().String()
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

// Addr returns the listening address (valid after Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr
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
		s.log.Info("drain started", "connections", len(conns), "holdings", holdings)
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
		s.log.Info("drain complete", "dur", time.Since(start).Round(time.Millisecond))
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
				s.log.Error("accept failed", "err", err, "suppressed", suppressed)
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
				s.log.Debug("dropping connection", "err", err)
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

// debug reports whether the server logs debug records; per-request
// records are built only then, since boxing their values allocates.
func (s *Server) debug() bool {
	return s.log.Enabled(context.TODO(), slog.LevelDebug)
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
			if s.debug() {
				s.log.Debug("shed", "method", req.Method, "max_inflight", max)
			}
			return &Envelope{ID: req.ID, Error: "server overloaded: in-flight admission bound reached", Code: CodeOverloaded}
		}
		defer s.inflight.Add(-1)
	}
	h, label := routes[req.Method], req.Method
	if h == nil {
		// One label for every unknown method, so a client probing random
		// methods cannot grow the registry without bound.
		h, label = unknownMethod, "unknown"
	}
	start := time.Now()
	resp := &Envelope{ID: req.ID}
	result, err := h(s, req.Method, req.Params)
	dur := time.Since(start)
	s.metrics.requests.With(label).Inc()
	s.metrics.latency.With(label).Observe(dur.Seconds())
	if err != nil {
		s.metrics.errors.With(label).Inc()
		if s.debug() {
			s.log.Debug("request", "method", req.Method, "dur", dur, "err", err)
		}
		resp.Error = err.Error()
		return resp
	}
	if s.debug() {
		s.log.Debug("request", "method", req.Method, "dur", dur)
	}
	resp.Result = encodeBody(result)
	if n := frameLen(resp); n > MaxFrameSize {
		// The request executed, so the client must get a final answer
		// rather than a dropped connection it would retry.
		s.metrics.errors.With(label).Inc()
		resp.Result = nil
		resp.Error = fmt.Sprintf("%s response of %d bytes exceeds the %d-byte frame limit", req.Method, n, MaxFrameSize)
	}
	return resp
}

// handler answers one request; dispatch encodes its result.
type handler func(s *Server, method string, params []byte) (encodable, error)

// routes maps each protocol method to its handler.
var routes = map[string]handler{
	MethodPing:          bare(func(*Server) Empty { return Empty{} }),
	MethodGetRecord:     bare((*Server).selfRecord),
	MethodListResources: bare((*Server).listResources),
	MethodGetUsage:      bare((*Server).handleUsage),
	MethodPeer:          decode("peer", (*Server).handlePeer),
	MethodCreateSlice:   decode("slice", (*Server).handleCreateSlice),
	MethodDeleteSlice:   decode("delete", (*Server).handleDeleteSlice),
	MethodReserve:       decode("reserve", (*Server).handleReserve),
	MethodRelease:       decode("release", (*Server).handleRelease),
	MethodGetShares:     decode("shares", (*Server).handleShares),
	MethodListHoldings:  decode("holdings", (*Server).handleListHoldings),
}

// bare routes a method that reads no params: its params must be Empty's
// body, which is no bytes at all.
func bare[R encodable](h func(*Server) R) handler {
	return func(s *Server, method string, params []byte) (encodable, error) {
		if err := decodeBody(params, &Empty{}); err != nil {
			return nil, fmt.Errorf("bad %s request: %w", method, err)
		}
		return h(s), nil
	}
}

// decode routes a method whose params decode into P; a body that does not
// is a "bad kind request".
func decode[P any, PP interface {
	*P
	decodable
}, R encodable](kind string, h func(*Server, P) (R, error)) handler {
	return func(s *Server, _ string, params []byte) (encodable, error) {
		var p P
		if err := decodeBody(params, PP(&p)); err != nil {
			return nil, fmt.Errorf("bad %s request: %w", kind, err)
		}
		return h(s, p)
	}
}

func unknownMethod(_ *Server, method string, _ []byte) (encodable, error) {
	return nil, fmt.Errorf("unknown method %q", method)
}
