// Command fedd runs one federation authority's SFA registry daemon.
//
// Usage:
//
//	fedd -name PLE -listen 127.0.0.1:7002 -sites 40 -nodes 2 -capacity 10 \
//	     -secret fed-secret -peer 127.0.0.1:7001 \
//	     -metrics-addr 127.0.0.1:9090 -log-level info
//
// The daemon serves the SFA wire protocol: resource advertisement, peering,
// federated slice embedding, and value-share computation. With
// -metrics-addr it also serves the observability endpoint: Prometheus text
// format at /metrics, a JSON snapshot at /metrics.json (what `fedctl
// metrics` renders), a per-peer health snapshot at /peersz (what `fedctl
// status` renders as the peer table), a liveness probe at /healthz, and a
// readiness probe at /readyz that flips to 503 while the daemon drains.
// -max-inflight bounds concurrently executing requests; excess load is
// shed with a retriable overload code instead of queueing without bound. On SIGTERM/SIGINT the
// daemon shuts down gracefully: readiness flips, the optional -drain-grace
// lame-duck period elapses, in-flight requests finish, and only then does
// the process exit. Every line on stderr is a log/slog record, and
// -log-level (debug, info, warn or error) sets their minimum level: the
// daemon's lifecycle records are info, its failures error, and at debug
// every dispatched request and every finished span is logged as one
// key=value record.
//
// With -data-dir the registry's durable state (slices, slivers, leases,
// idempotency outcomes) survives restarts: mutations go through a
// write-ahead log with periodic snapshots, and on startup the daemon
// recovers to its last durable state before accepting traffic. -fsync
// selects the durability discipline ("interval", the default, bounds
// power-loss exposure to -fsync-interval; "always" fsyncs before every
// acknowledgment); process crashes lose nothing under either policy.
//
// With -api (requires -metrics-addr) the daemon also serves experiments:
// the scenario engine runs declarative specs asynchronously behind an
// HTTP/JSON API (POST /api/v1/runs, GET /api/v1/runs[/{id}[/result]],
// DELETE to cancel, GET /api/v1/scenarios for the registered figure set)
// with an embedded zero-dependency dashboard at /. -api-concurrency bounds
// how many experiments execute at once; submissions beyond it queue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	// Registers the paper-figure scenarios, so the served API and dashboard
	// expose the same registry fedsim runs.
	_ "fedshare/internal/figures"

	"fedshare/internal/obs"
	"fedshare/internal/planetlab"
	"fedshare/internal/scenario/api"
	"fedshare/internal/scenario/engine"
	"fedshare/internal/sfa"
	"fedshare/internal/wal"
)

func main() {
	name := flag.String("name", "PLC", "authority name")
	listen := flag.String("listen", "127.0.0.1:7001", "listen address")
	sites := flag.Int("sites", 10, "number of sites this authority contributes")
	nodes := flag.Int("nodes", 2, "nodes per site")
	capacity := flag.Int("capacity", 10, "sliver capacity per node")
	secret := flag.String("secret", "", "shared federation secret (required)")
	peer := flag.String("peer", "", "optional peer registry address to federate with at startup")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /metrics.json, /healthz, /readyz and /version on this address (empty = disabled)")
	apiEnabled := flag.Bool("api", false, "serve the scenario API and dashboard on the metrics address (requires -metrics-addr)")
	apiConcurrency := flag.Int("api-concurrency", 2, "how many submitted experiments execute simultaneously (further submissions queue)")
	drainGrace := flag.Duration("drain-grace", 0, "lame-duck period between flipping /readyz to 503 and draining connections")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	maxInFlight := flag.Int("max-inflight", 1024, "admission bound on concurrently executing requests; excess requests are shed with a retriable overload code (0 = unlimited)")
	dataDir := flag.String("data-dir", "", "persist durable state (WAL + snapshots) in this directory; empty = memory-only")
	fsync := flag.String("fsync", "interval", "WAL fsync policy: interval (background, bounded power-loss window) or always (fsync before every acknowledgment)")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond, "background fsync pacing for -fsync interval")
	snapshotEvery := flag.Int("snapshot-every", 4096, "cut a snapshot and rotate the WAL after this many appends (negative disables)")
	flag.Parse()

	if *secret == "" {
		fmt.Fprintln(os.Stderr, "fedd: -secret is required")
		os.Exit(2)
	}
	level, ok := map[string]slog.Level{"debug": slog.LevelDebug, "info": slog.LevelInfo, "warn": slog.LevelWarn, "error": slog.LevelError}[*logLevel]
	if !ok {
		fmt.Fprintf(os.Stderr, "fedd: -log-level %q: want debug, info, warn or error\n", *logLevel)
		os.Exit(2)
	}
	slog.SetLogLoggerLevel(level)
	if *sites < 0 || *nodes <= 0 || *capacity <= 0 {
		fmt.Fprintln(os.Stderr, "fedd: sites must be >= 0, nodes and capacity positive")
		os.Exit(2)
	}
	if *apiEnabled && *metricsAddr == "" {
		fmt.Fprintln(os.Stderr, "fedd: -api requires -metrics-addr (the API shares its listener)")
		os.Exit(2)
	}
	if *apiConcurrency <= 0 {
		fmt.Fprintln(os.Stderr, "fedd: -api-concurrency must be positive")
		os.Exit(2)
	}
	if *maxInFlight < 0 {
		fmt.Fprintln(os.Stderr, "fedd: -max-inflight must be >= 0")
		os.Exit(2)
	}

	auth := planetlab.NewAuthority(*name)
	for s := 0; s < *sites; s++ {
		site := &planetlab.Site{
			ID:   fmt.Sprintf("%s-site%03d", *name, s),
			Name: fmt.Sprintf("%s site %d", *name, s),
		}
		for n := 0; n < *nodes; n++ {
			site.Nodes = append(site.Nodes, planetlab.Node{
				ID:       fmt.Sprintf("node%d", n),
				HostName: fmt.Sprintf("node%d.site%03d.%s.example.net", n, s, *name),
				Capacity: *capacity,
			})
		}
		if err := auth.AddSite(site); err != nil {
			fatal("add site", "err", err)
		}
	}

	var shuttingDown atomic.Bool
	srvOpts := []sfa.Option{sfa.WithConfig(sfa.ServerConfig{MaxInFlight: *maxInFlight})}
	var store *sfa.DurableStore
	var recovered *sfa.State
	if *dataDir != "" {
		policy, err := wal.ParseFsyncPolicy(*fsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fedd:", err)
			os.Exit(2)
		}
		store, recovered, err = sfa.OpenDurableStore(sfa.DurableOptions{
			Dir:           *dataDir,
			Fsync:         policy,
			FsyncInterval: *fsyncInterval,
			SnapshotEvery: *snapshotEvery,
		})
		if err != nil {
			fatal("open data dir", "dir", *dataDir, "err", err)
		}
		srvOpts = append(srvOpts, sfa.WithStore(store))
		slog.Info("durable state", "dir", *dataDir, "fsync", *fsync)
	}
	srv := sfa.NewServer(auth, []byte(*secret), srvOpts...)
	if recovered != nil {
		if err := srv.Restore(recovered); err != nil {
			fatal("restore durable state", "err", err)
		}
	}
	if err := srv.Start(*listen); err != nil {
		fatal("start", "err", err)
	}
	slog.Info("serving", "authority", *name, "sites", *sites, "addr", srv.Addr())

	var eng *engine.Engine
	if *metricsAddr != "" {
		obs.RegisterRuntimeMetrics(obs.Default)
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal("metrics listen", "addr", *metricsAddr, "err", err)
		}
		slog.Info("metrics", "url", "http://"+mln.Addr().String()+"/metrics")
		// /readyz flips to 503 the moment shutdown begins, so an
		// orchestrator stops routing before the listener goes away.
		mux := obs.HandlerWithHealth(func() bool {
			return !shuttingDown.Load() && !srv.Draining()
		})
		// Per-peer health and reconcile-backlog snapshot; fedctl status
		// renders this as the peer table.
		mux.HandleFunc("/peersz", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			peers := srv.PeerHealth()
			if peers == nil {
				peers = []sfa.PeerHealthInfo{}
			}
			if err := json.NewEncoder(w).Encode(peers); err != nil {
				slog.Error("peersz encode", "err", err)
			}
		})
		if *apiEnabled {
			eng = engine.New(engine.Options{MaxConcurrent: *apiConcurrency})
			api.NewServer(eng).Register(mux)
			slog.Info("scenario API and dashboard", "url", "http://"+mln.Addr().String()+"/")
		}
		go func() {
			if err := http.Serve(mln, mux); err != nil {
				slog.Error("metrics server", "err", err)
			}
		}()
	}

	if *peer != "" {
		if err := srv.PeerWith(*peer); err != nil {
			fatal("peering", "peer", *peer, "err", err)
		}
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	<-sigc
	// Graceful shutdown: flip readiness, wait out the lame-duck grace so
	// load balancers observe the 503 and stop routing, then stop accepting
	// and let in-flight requests finish. Leased resources are left to their
	// holders. A second signal during the drain exits immediately.
	slog.Info("draining", "authority", *name)
	shuttingDown.Store(true)
	if *drainGrace > 0 {
		select {
		case <-time.After(*drainGrace):
		case <-sigc:
			slog.Info("forced shutdown", "authority", *name)
			return
		}
	}
	drained := make(chan struct{})
	go func() {
		srv.Drain()
		close(drained)
	}()
	select {
	case <-drained:
	case <-sigc:
		slog.Info("forced shutdown", "authority", *name)
	}
	slog.Info("shutting down", "authority", *name)
	if eng != nil {
		// Cancel in-flight experiments and wait for their goroutines; their
		// runs end in the cancelled state rather than being torn mid-sweep.
		eng.Close()
	}
	if err := srv.Close(); err != nil {
		slog.Error("close", "err", err)
	}
	if store != nil {
		// Cut a final snapshot so the next start recovers without replay.
		if err := store.Close(); err != nil {
			slog.Error("close data dir", "err", err)
		}
	}
}

// fatal logs msg and its key/value pairs as an error record and exits 1.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}
