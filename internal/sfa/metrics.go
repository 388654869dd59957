package sfa

import "fedshare/internal/obs"

// serverMetrics bundles one registry's SFA instrumentation. Families are
// resolved once per Server; registration is idempotent, so any number of
// servers (e.g. a test federation) can share one registry.
type serverMetrics struct {
	requests       *obs.CounterVec   // fedshare_sfa_requests_total{method}
	errors         *obs.CounterVec   // fedshare_sfa_errors_total{method}
	latency        *obs.HistogramVec // fedshare_sfa_request_seconds{method}
	activeConns    *obs.Gauge        // fedshare_sfa_active_connections
	peers          *obs.Gauge        // fedshare_sfa_peers
	acceptErrors   *obs.Counter      // fedshare_sfa_accept_errors_total
	protocolErrors *obs.Counter      // fedshare_sfa_protocol_errors_total
	leasesActive   *obs.Gauge        // fedshare_sfa_leases_active
	leasesExpired  *obs.Counter      // fedshare_sfa_leases_expired_total
	dedupReplays   *obs.CounterVec   // fedshare_sfa_dedup_replays_total{method}

	shed             *obs.Counter    // fedshare_sfa_shed_total
	peerState        *obs.GaugeVec   // fedshare_sfa_peer_state{peer}
	peerTransitions  *obs.CounterVec // fedshare_sfa_peer_transitions_total{peer,to}
	reconcileBacklog *obs.GaugeVec   // fedshare_sfa_reconcile_backlog{peer}
	reconcileReplays *obs.Counter    // fedshare_sfa_reconcile_replays_total
	reconcileRetired *obs.Counter    // fedshare_sfa_reconcile_retired_total
	reconcileDropped *obs.Counter    // fedshare_sfa_reconcile_dropped_intent_total
	reconcileRuns    *obs.CounterVec // fedshare_sfa_reconcile_runs_total{outcome}
}

func newServerMetrics(r *obs.Registry) *serverMetrics {
	return &serverMetrics{
		requests: r.CounterVec("fedshare_sfa_requests_total",
			"SFA requests dispatched, by method.", "method"),
		errors: r.CounterVec("fedshare_sfa_errors_total",
			"SFA requests that returned an error, by method.", "method"),
		latency: r.HistogramVec("fedshare_sfa_request_seconds",
			"SFA request handling latency, by method.", nil, "method"),
		activeConns: r.Gauge("fedshare_sfa_active_connections",
			"Currently open SFA client connections."),
		peers: r.Gauge("fedshare_sfa_peers",
			"Authorities currently peered with this registry."),
		acceptErrors: r.Counter("fedshare_sfa_accept_errors_total",
			"Accept-loop failures (each also backs off the loop)."),
		protocolErrors: r.Counter("fedshare_sfa_protocol_errors_total",
			"Connections dropped on malformed or oversized frames."),
		leasesActive: r.Gauge("fedshare_sfa_leases_active",
			"Reservations currently held under an unexpired lease."),
		leasesExpired: r.Counter("fedshare_sfa_leases_expired_total",
			"Leases whose TTL elapsed and whose slivers the reaper released."),
		dedupReplays: r.CounterVec("fedshare_sfa_dedup_replays_total",
			"Requests answered by replaying a prior response (idempotency-key dedup), by method.", "method"),
		shed: r.Counter("fedshare_sfa_shed_total",
			"Requests rejected unexecuted by the in-flight admission gate."),
		peerState: r.GaugeVec("fedshare_sfa_peer_state",
			"Peer lifecycle state: 0 healthy, 1 suspect, 2 down, 3 recovering.", "peer"),
		peerTransitions: r.CounterVec("fedshare_sfa_peer_transitions_total",
			"Peer health state transitions, by peer and destination state.", "peer", "to"),
		reconcileBacklog: r.GaugeVec("fedshare_sfa_reconcile_backlog",
			"Operations queued for replay to an unreachable peer.", "peer"),
		reconcileReplays: r.Counter("fedshare_sfa_reconcile_replays_total",
			"Backlogged operations replayed to recovering peers."),
		reconcileRetired: r.Counter("fedshare_sfa_reconcile_retired_total",
			"Orphaned peer-held slivers released during reconciliation."),
		reconcileDropped: r.Counter("fedshare_sfa_reconcile_dropped_intent_total",
			"Intended peer-held slivers dropped because the peer lost them (restart)."),
		reconcileRuns: r.CounterVec("fedshare_sfa_reconcile_runs_total",
			"Reconciliation attempts, by outcome (converged, failed).", "outcome"),
	}
}

// clientMetrics bundles the Client's fault-handling instrumentation.
// Counters aggregate across all clients sharing a registry.
type clientMetrics struct {
	retries *obs.Counter // fedshare_sfa_client_retries_total
	redials *obs.Counter // fedshare_sfa_client_redials_total
	shed    *obs.Counter // fedshare_sfa_client_shed_total
}

func newClientMetrics(r *obs.Registry) *clientMetrics {
	return &clientMetrics{
		retries: r.Counter("fedshare_sfa_client_retries_total",
			"Call attempts beyond the first (transport-level retries)."),
		redials: r.Counter("fedshare_sfa_client_redials_total",
			"Reconnections after a broken client connection."),
		shed: r.Counter("fedshare_sfa_client_shed_total",
			"Responses shed by a server admission gate (retried with backoff)."),
	}
}
