package sfa

// This file holds the request handlers that decide under the state lock,
// commit a Record and apply it through state.go, plus the lease reaper and
// recovery, which commit and apply through the same path.

import (
	"fmt"
	"math"
	"sort"
	"time"
)

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

// leaseExpiry converts a request's TTL into its lease's expiry in
// UnixNano, or 0 (no lease) for a zero TTL. A negative TTL, or one whose
// expiry does not fit in int64 nanoseconds, is refused as a bad kind
// request: as a time.Duration it would wrap to an expiry in the past that
// the next reaper tick frees.
func (s *Server) leaseExpiry(kind string, ttl float64) (int64, error) {
	if ttl == 0 {
		return 0, nil
	}
	now := s.cfg.Now().UnixNano()
	ns := ttl * float64(time.Second)
	if !(ns >= 0) || ns >= 1<<63 || now > math.MaxInt64-int64(ns) {
		return 0, fmt.Errorf("bad %s request: ttl_seconds %g is out of range", kind, ttl)
	}
	return now + int64(ns), nil
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
	expiry, err := s.leaseExpiry("reserve", p.TTLSeconds)
	if err != nil {
		return nil, err
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
	// Decide: the authority's placement walk holds slivers at the first
	// p.Sites sites with room. The hold is dropped on return; apply places
	// exactly the committed slivers.
	hold := s.auth.Reserve(p.PerSite, p.Sites)
	defer s.auth.ReleaseSlivers(hold)
	resp := &ReserveResponse{Slivers: toRecords(s.auth.Name, hold)}
	if len(hold) == 0 && key == "" {
		return resp, nil
	}
	// Every holding is tracked, leased (TTL set) or held until released,
	// so Release frees exactly the slivers still held here. The holder
	// (credential subject) keys the anti-entropy ListHoldings read.
	rec := Record{Op: OpReserve, Slice: p.SliceName, Key: key, Holder: p.Credential.Subject, Slivers: resp.Slivers}
	if len(hold) > 0 {
		rec.Expiry = expiry
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
	switch {
	case p.Name == "":
		return nil, fmt.Errorf("planetlab: slice needs a name")
	case p.MaxSites < 0:
		return nil, fmt.Errorf("planetlab: slice %s has negative MaxSites", p.Name)
	case p.MinSites < 0:
		return nil, fmt.Errorf("negative min_sites")
	}
	expiry, err := s.leaseExpiry("slice", p.TTLSeconds)
	if err != nil {
		return nil, err
	}

	// Local placement first. The local slivers are held for the whole peer
	// fan-out: transient node load outside the durable state, released on
	// abort and turned into the create_slice record's placement at commit.
	s.st.mu.Lock()
	if s.st.slices[p.Name] != nil {
		s.st.mu.Unlock()
		return nil, fmt.Errorf("slice %s already exists", p.Name)
	}
	hold := s.auth.Reserve(per, p.MaxSites)
	s.st.mu.Unlock()
	remote, sitesGot := s.reservePeers(p, per, len(hold)/per)

	local := toRecords(s.auth.Name, hold)
	s.st.mu.Lock()
	switch {
	case sitesGot < p.MinSites:
		err = fmt.Errorf("federation can offer %d sites, slice needs %d", sitesGot, p.MinSites)
	case s.st.slices[p.Name] != nil: // a concurrent create of the name committed first
		err = fmt.Errorf("slice %s already exists", p.Name)
	default:
		// A TTL leases the whole slice for the experiment's holding time;
		// the reaper deletes it (and releases remote slivers) at expiry.
		err = s.commit(Record{Op: OpCreateSlice, Slice: p.Name, Slivers: local, Remote: remote, Expiry: expiry,
			Spec: &SliceSpecState{Name: p.Name, Owner: p.Owner, MinSites: p.MinSites, MaxSites: p.MaxSites, SliversPerSite: per}})
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
