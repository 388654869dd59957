package sfa

import (
	"sort"
	"sync"
	"time"
)

// This file implements anti-entropy reconciliation: when a peer partitions
// away, the coordinator queues the operations it could not deliver; when a
// probe reaches the peer again, a reconciler (1) replays the backlog under
// the operations' original idempotency keys, (2) diffs the peer's live
// holdings against the coordinator's intent (its slices' remote slivers)
// — retiring orphaned slivers at the peer and dropping intent the peer
// lost — and (3) verifies holdings == intent before the peer is readmitted
// to share computation. Idempotency keys (PR 5) make replays exactly-once; the
// durable OpGen high-water mark (PR 8) guarantees retire keys drawn after
// a coordinator restart never collide with keys already seen by the peer.

// pendingOp is one keyed operation for a peer, kept without its
// credential so it can be queued for replay. The credential is issued at
// each send (a queued one would have expired); the idempotency key is the
// original, so a request that DID reach the peer before the partition
// replays its cached outcome instead of re-executing.
type pendingOp struct {
	method  string         // MethodReserve or MethodRelease
	reserve ReserveRequest // for MethodReserve
	release ReleaseRequest // for MethodRelease
}

// signed returns the operation's request under cred.
func (op pendingOp) signed(cred Credential) interface{} {
	if op.method == MethodReserve {
		req := op.reserve
		req.Credential = cred
		return req
	}
	req := op.release
	req.Credential = cred
	return req
}

// reconciler holds the per-peer backlog of undelivered operations.
type reconciler struct {
	mu      sync.Mutex
	backlog map[string][]pendingOp
}

func newReconciler() *reconciler {
	return &reconciler{backlog: map[string][]pendingOp{}}
}

func (r *reconciler) enqueue(peer string, op pendingOp) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.backlog[peer] = append(r.backlog[peer], op)
}

// take removes and returns the peer's entire backlog in FIFO order.
func (r *reconciler) take(peer string) []pendingOp {
	r.mu.Lock()
	defer r.mu.Unlock()
	ops := r.backlog[peer]
	delete(r.backlog, peer)
	return ops
}

// requeueFront puts unreplayed operations back at the head of the backlog,
// ahead of anything enqueued while the reconciler was running.
func (r *reconciler) requeueFront(peer string, ops []pendingOp) {
	if len(ops) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.backlog[peer] = append(append([]pendingOp(nil), ops...), r.backlog[peer]...)
}

func (r *reconciler) depth(peer string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.backlog[peer])
}

// sliverKey identifies a sliver for intent/holdings comparison.
func sliverKey(slice string, sv SliverRecord) string {
	return slice + "\x00" + sv.SiteID + "\x00" + sv.NodeID
}

// remoteIntent returns the coordinator's intended holdings at peer:
// slice -> slivers, extracted from its slices' remote slivers.
func (s *Server) remoteIntent(peer string) map[string][]SliverRecord {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	out := map[string][]SliverRecord{}
	for name, sl := range s.st.slices {
		for _, sv := range sl.Remote {
			if sv.Authority == peer {
				out[name] = append(out[name], sv)
			}
		}
	}
	return out
}

// amendIntent drops lost slivers (held in intent but no longer at the
// peer) from their slices' remote slivers, committing one amend_remote
// record per slice with the corrected set.
func (s *Server) amendIntent(peer string, lost map[string][]SliverRecord) {
	dropped := 0
	s.st.mu.Lock()
	for _, slice := range sortedKeys(lost) {
		gone := map[string]bool{}
		for _, sv := range lost[slice] {
			gone[sliverKey(slice, sv)] = true
			dropped++
		}
		sl := s.st.slices[slice]
		if sl == nil {
			continue // deleted meanwhile: no intent left to amend
		}
		var keep []SliverRecord
		for _, sv := range sl.Remote {
			if !gone[sliverKey(slice, sv)] {
				keep = append(keep, sv)
			}
		}
		s.commitAnyway(Record{Op: OpAmendRemote, Slice: slice, Remote: keep})
	}
	s.st.mu.Unlock()
	s.metrics.reconcileDropped.Add(int64(dropped))
	s.log.Info("reconcile dropped lost slivers from intent", "peer", peer, "slivers", dropped)
}

// reconcilePeer runs one reconciliation attempt against a peer in the
// recovering state, then readmits (converged) or demotes (failed) it. It
// runs inline on the reaper goroutine, which Close stops before peer
// clients are torn down.
func (s *Server) reconcilePeer(name string, ph *peerHandle) {
	if s.runReconcile(name, ph) {
		s.metrics.reconcileRuns.With("converged").Inc()
		s.health.readmit(name)
		s.log.Info("peer reconciled and readmitted", "peer", name)
	} else {
		s.metrics.reconcileRuns.With("failed").Inc()
		s.health.demote(name)
		s.log.Info("reconcile failed; peer stays down", "peer", name)
	}
	s.setBacklogGauge(name)
}

// reconcileMaxRounds bounds the drain loop: operations enqueued while a
// round was replaying get their own round, but a peer that keeps accruing
// backlog faster than it drains fails the attempt instead of looping.
const reconcileMaxRounds = 8

// runReconcile performs the three reconciliation phases; true means the
// peer's state provably equals coordinator intent and its backlog is
// empty.
func (s *Server) runReconcile(name string, ph *peerHandle) bool {
	cred := IssueCredential(s.secret, s.auth.Name, s.auth.Name, time.Minute)

	// Phase 1: replay the undelivered backlog in order, under original
	// idempotency keys — delivered-but-unacknowledged operations replay
	// their cached outcome, truly lost ones execute now.
	for round := 0; ; round++ {
		ops := s.recon.take(name)
		s.setBacklogGauge(name)
		if len(ops) == 0 {
			break
		}
		if round >= reconcileMaxRounds {
			s.recon.requeueFront(name, ops)
			s.setBacklogGauge(name)
			return false
		}
		for i, op := range ops {
			if err := s.replayOp(ph, cred, op); err != nil {
				s.recon.requeueFront(name, ops[i:])
				s.setBacklogGauge(name)
				s.log.Error("reconcile replay failed", "peer", name, "method", op.method, "err", err)
				return false
			}
			s.metrics.reconcileReplays.Inc()
		}
	}

	// Phase 2: anti-entropy. Diff the peer's live holdings for this
	// coordinator against intent: retire orphans (held but not intended —
	// e.g. a replayed reserve whose CreateSlice aborted or whose slice was
	// deleted during the partition), and drop lost intent (intended but
	// not held — the peer restarted without its state).
	held, err := s.fetchHoldings(ph, cred)
	if err != nil {
		s.log.Error("reconcile holdings failed", "peer", name, "err", err)
		return false
	}
	intent := s.remoteIntent(name)
	orphans, lost := diffHoldings(held, intent)
	for _, slice := range sortedKeys(orphans) {
		svs := orphans[slice]
		gen := s.nextGen()
		if err := ph.client.Call(MethodRelease, ReleaseRequest{
			Credential: cred, SliceName: slice, Slivers: svs,
			// Fresh gen-keyed retire: the durable high-water mark
			// guarantees it cannot collide with any key the peer has seen.
			IdempotencyKey: s.peerKey(slice, gen, name) + "/retire",
		}, nil); err != nil {
			s.log.Error("reconcile retire failed", "peer", name, "slice", slice, "slivers", len(svs), "err", err)
			return false
		}
		s.metrics.reconcileRetired.Add(int64(len(svs)))
		s.log.Info("reconcile retired orphaned slivers", "peer", name, "slice", slice, "slivers", len(svs))
	}
	if len(lost) > 0 {
		s.amendIntent(name, lost)
	}

	// Phase 3: verify convergence — the peer's holdings must now equal
	// intent exactly, and no backlog may have accrued meanwhile.
	held, err = s.fetchHoldings(ph, cred)
	if err != nil {
		return false
	}
	orphans, lost = diffHoldings(held, s.remoteIntent(name))
	if len(orphans) > 0 || len(lost) > 0 || s.recon.depth(name) > 0 {
		return false
	}
	return true
}

// replayOp re-sends one queued operation with a fresh credential. A remote
// error is a resolution (the peer answered and rejected the operation);
// only transport failures abort the drain. Slivers placed by a replayed
// reserve that the committed slice does not reference are orphans; phase 2
// retires them.
func (s *Server) replayOp(ph *peerHandle, cred Credential, op pendingOp) error {
	if transport, err := ph.client.call(op.method, op.signed(cred), nil, ph.client.cfg.MaxAttempts, nil); transport {
		return err
	}
	return nil
}

// fetchHoldings reads the peer's live holdings for this coordinator as a
// slice -> slivers map.
func (s *Server) fetchHoldings(ph *peerHandle, cred Credential) (map[string][]SliverRecord, error) {
	var hr HoldingsResponse
	if err := ph.client.Call(MethodListHoldings, HoldingsRequest{Credential: cred, Holder: s.auth.Name}, &hr); err != nil {
		return nil, err
	}
	out := map[string][]SliverRecord{}
	for _, h := range hr.Holdings {
		out[h.Slice] = append(out[h.Slice], h.Slivers...)
	}
	return out, nil
}

// diffHoldings splits the symmetric difference between what a peer holds
// and what the coordinator intends: orphans are held-but-not-intended,
// lost is intended-but-not-held.
func diffHoldings(held, intent map[string][]SliverRecord) (orphans, lost map[string][]SliverRecord) {
	orphans = map[string][]SliverRecord{}
	lost = map[string][]SliverRecord{}
	intentSet := map[string]bool{}
	for slice, svs := range intent {
		for _, sv := range svs {
			intentSet[sliverKey(slice, sv)] = true
		}
	}
	heldSet := map[string]bool{}
	for slice, svs := range held {
		for _, sv := range svs {
			heldSet[sliverKey(slice, sv)] = true
			if !intentSet[sliverKey(slice, sv)] {
				orphans[slice] = append(orphans[slice], sv)
			}
		}
	}
	for slice, svs := range intent {
		for _, sv := range svs {
			if !heldSet[sliverKey(slice, sv)] {
				lost[slice] = append(lost[slice], sv)
			}
		}
	}
	return orphans, lost
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// queue parks a keyed operation for reconciliation to replay to peer.
func (s *Server) queue(peer string, op pendingOp) {
	s.recon.enqueue(peer, op)
	s.setBacklogGauge(peer)
}

func (s *Server) setBacklogGauge(peer string) {
	s.metrics.reconcileBacklog.With(peer).Set(float64(s.recon.depth(peer)))
}
