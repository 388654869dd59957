package sfa

// This file holds peer coordination: installing peers, probing them, the
// CreateSlice fan-out, remote releases, and value shares over the
// federation's authority records. health.go tracks each peer's condition
// and reconcile.go replays what could not be delivered.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"fedshare/internal/core"
	"fedshare/internal/economics"
)

type peerHandle struct {
	record AuthorityRecord
	client *Client
	// last is the peer's last record read successfully (guarded by the
	// server's mu): when the peer is down, degraded-mode share computation
	// still shapes the full federation model with it before restricting
	// valuation to the live sub-federation.
	last *AuthorityRecord
}

// newPeerClient builds the client for an outbound peer connection, through
// the PeerClient hook when configured. The connection is lazy; callers that
// need eager errors issue a Ping.
func (s *Server) newPeerClient(addr string) *Client {
	var cc ClientConfig
	if s.cfg.PeerClient != nil {
		cc = s.cfg.PeerClient(addr)
	}
	if cc.Addr == "" {
		cc.Addr = addr
	}
	if cc.Registry == nil {
		cc.Registry = s.obsreg
	}
	return NewClient(cc)
}

// callPeer performs one RPC against a peer under its client's full retry
// budget, gated on the peer's health attempt by attempt (see Client.call).
func (s *Server) callPeer(ph *peerHandle, method string, params, result interface{}) (transport bool, err error) {
	return ph.client.call(method, params, result, ph.client.cfg.MaxAttempts, &peerGate{h: s.health, name: ph.record.Name})
}

// peerKey is the idempotency key of one keyed operation sent to peer: one
// per (coordinator, slice lifecycle, peer), so client-level retries of the
// call share it and dedup at the peer, while a later lifecycle of the same
// slice name draws a fresh generation and executes anew.
func (s *Server) peerKey(slice string, gen uint64, peer string) string {
	return fmt.Sprintf("%s/%s#%d@%s", s.auth.Name, slice, gen, peer)
}

// sendKeyed sends a keyed operation to a peer under cred. When its outcome
// is unknown it is queued without its credential under its original key:
// after a transport failure the request may or may not have reached the
// peer, and after a result that does not decode the peer executed it but
// the coordinator cannot read what it placed. Reconciliation replays it,
// dedup settles which case happened, and the drain's anti-entropy pass
// retires whatever the peer holds that intent lacks. Only a remote error
// says what the peer did.
func (s *Server) sendKeyed(ph *peerHandle, op pendingOp, cred Credential, result interface{}) error {
	_, err := s.callPeer(ph, op.method, op.signed(cred), result)
	var remote *RemoteError
	if err != nil && !errors.As(err, &remote) {
		s.queue(ph.record.Name, op)
	}
	return err
}

// selfRecord is the record this authority advertises: its name, listening
// address, sites and sliver slots.
func (s *Server) selfRecord() AuthorityRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return AuthorityRecord{Name: s.auth.Name, Addr: s.addr, Sites: s.auth.SiteCount(), Capacity: s.auth.Capacity()}
}

// installPeer makes client the connection to the peer rec describes,
// closing any connection it replaces, and tracks the peer as healthy.
func (s *Server) installPeer(rec AuthorityRecord, client *Client) {
	s.mu.Lock()
	if old, ok := s.peers[rec.Name]; ok && old.client != nil {
		_ = old.client.Close()
	}
	s.peers[rec.Name] = &peerHandle{record: rec, client: client}
	s.metrics.peers.Set(float64(len(s.peers)))
	s.mu.Unlock()
	s.health.ensure(rec.Name)
	s.log.Info("peered", "peer", rec.Name, "addr", rec.Addr)
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
	s.installPeer(p.Record, client)
	return &PeerResponse{Record: s.selfRecord()}, nil
}

// PeerWith initiates peering with a remote registry at addr: it dials,
// introduces itself, and records the remote as a peer, so federation flows
// both ways after the remote's back-dial.
func (s *Server) PeerWith(addr string) error {
	client := s.newPeerClient(addr)
	cred := IssueCredential(s.secret, s.auth.Name, s.auth.Name, time.Minute)
	var resp PeerResponse
	if err := client.Call(MethodPeer, PeerRequest{Record: s.selfRecord(), Credential: cred}, &resp); err != nil {
		_ = client.Close()
		return err
	}
	s.installPeer(resp.Record, client)
	return nil
}

// probePeers pings every peer whose probe deadline has passed (paced by
// the reaper tick, judged by cfg.Now), as a peer call like any other. A
// down peer gets one ungated attempt instead, whatever its client's retry
// budget, so the probe schedule paces its dials. Reaching it starts
// recovery: the reconciler runs inline on the reaper goroutine — so Close,
// which stops the reaper before closing peer clients, never races it —
// and readmits the peer only after proving convergence. A healthy peer
// with queued operations (accrued in a transition race window) is drained
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
		switch s.health.state(name) {
		case PeerDown:
			if transport, _ := ph.client.call(MethodPing, nil, nil, 1, nil); !transport && s.health.beginRecovery(name) {
				s.log.Info("probe reached down peer; reconciling", "peer", name)
				s.reconcilePeer(name, ph)
			}
		default:
			if transport, _ := s.callPeer(ph, MethodPing, nil, nil); !transport && s.recon.depth(name) > 0 && s.health.beginDrain(name) {
				s.reconcilePeer(name, ph)
			}
		}
	}
}

// PeerHealth reports each peer's lifecycle condition and reconcile
// backlog, sorted by name — the data behind fedd's /peersz endpoint and
// fedctl status's peer table.
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
		info.Backlog = s.recon.depth(info.Peer)
		out = append(out, info)
	}
	return out
}

// reservePeers is CreateSlice's fan-out: it asks the peers, in name order,
// for per slivers at each site the slice still needs once sitesGot sites
// are placed, until p.MaxSites is met (every site they offer when it is
// 0). It returns the peers' slivers and the sites placed in all.
func (s *Server) reservePeers(p SliceRequest, per, sitesGot int) ([]SliverRecord, int) {
	var remote []SliverRecord
	cred := IssueCredential(s.secret, s.auth.Name, s.auth.Name, time.Minute)
	// One idempotency generation per CreateSlice invocation: client-level
	// retries of each Reserve below share a key, while a later lifecycle of
	// the same slice name (delete + recreate, or recreate after TTL expiry)
	// draws a fresh generation and executes anew instead of replaying this
	// lifecycle's outcome.
	gen := s.nextGen()
	for _, ph := range s.peerList() {
		name := ph.record.Name
		if st := s.health.state(name); st.excluded() {
			// Degraded mode: place on the live sub-federation only. No
			// idempotency key is drawn, so nothing can replay at the peer
			// later.
			s.log.Debug("skipping peer", "peer", name, "state", st, "slice", p.Name)
			continue
		}
		need := 1 << 20 // effectively unbounded
		if p.MaxSites > 0 {
			need = p.MaxSites - sitesGot
			if need <= 0 {
				break
			}
		}
		// A reserve that fails at the transport is queued: reconciliation
		// replays it and then retires the resulting orphan slivers, since
		// this slice commits without them.
		op := pendingOp{method: MethodReserve, reserve: ReserveRequest{
			SliceName: p.Name, Sites: need, PerSite: per,
			IdempotencyKey: s.peerKey(p.Name, gen, name),
			TTLSeconds:     p.TTLSeconds,
		}}
		var rr ReserveResponse
		if err := s.sendKeyed(ph, op, cred, &rr); err != nil {
			s.log.Error("peer reserve failed", "peer", name, "err", err)
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
	return remote, sitesGot
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
			s.log.Error("release at unknown peer", "peer", name, "slivers", len(svs))
			continue
		}
		op := pendingOp{method: MethodRelease, release: ReleaseRequest{
			SliceName: sliceName, Slivers: svs,
			IdempotencyKey: s.peerKey(sliceName, gen, name),
		}}
		if st := s.health.state(name); st.excluded() {
			// Known unreachable: queue instead of burning a call timeout.
			s.queue(name, op)
			s.log.Info("queued release", "peer", name, "state", st, "slice", sliceName, "slivers", len(svs))
			continue
		}
		if err := s.sendKeyed(ph, op, cred, nil); err != nil {
			s.log.Error("peer release failed", "peer", name, "err", err)
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

// facility prices one authority record as a member of the federation
// game: its sites are the locations, each with the record's mean per-site
// capacity.
func facility(rec AuthorityRecord) core.Facility {
	per := 0.0
	if rec.Sites > 0 {
		per = float64(rec.Capacity) / float64(rec.Sites)
	}
	return core.Facility{Name: rec.Name, Locations: rec.Sites, Resources: per}
}

// handleShares builds the federation's economic model from its own and its
// peers' authority records and computes value shares under the requested
// policy — the paper's method exposed as a network service.
//
// Unreachable peers degrade the computation instead of failing it: down
// and recovering peers (and any peer whose live record read fails at the
// transport level) are excluded from valuation, shares are computed over
// the live members, and the response carries the Partial marker with the
// excluded authorities. A down peer's last record read, when there is
// one, still counts toward the default demand, so the live members are
// priced under the demand of the whole federation; the demand profile
// never shrinks just because peers died.
func (s *Server) handleShares(p SharesRequest) (*SharesResponse, error) {
	sp := s.obsreg.StartSpan("sfa.shares").Attr("policy", p.Policy)
	defer sp.End()
	members := []AuthorityRecord{s.selfRecord()}
	total := members[0].Sites
	var down []string
	for _, ph := range s.peerList() {
		name := ph.record.Name
		if !s.health.state(name).excluded() {
			var rec AuthorityRecord
			transport, err := s.callPeer(ph, MethodGetRecord, Empty{}, &rec)
			if err == nil {
				s.mu.Lock()
				ph.last = &rec
				s.mu.Unlock()
				members = append(members, rec)
				total += rec.Sites
				continue
			}
			if !transport {
				return nil, fmt.Errorf("get record at %s: %w", name, err)
			}
		}
		down = append(down, name)
		s.mu.Lock()
		last := ph.last
		s.mu.Unlock()
		if last != nil { // never read: nothing to count
			total += last.Sites
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i].Name < members[j].Name })

	facilities := make([]core.Facility, len(members))
	for i, rec := range members {
		facilities[i] = facility(rec)
	}
	demand := s.demand
	if demand == nil {
		// Default profile: one diversity-hungry experiment spanning half
		// the federation's sites (stale contributions included — demand
		// does not shrink with the live set).
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
