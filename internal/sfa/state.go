package sfa

import (
	"fmt"
	"sort"
	"sync"

	"fedshare/internal/planetlab"
)

// Lease kinds (LeaseState.Kind, Record.Kind) say what expiry must undo.
const (
	// leaseReserve holds slivers placed by handleReserve for a remote
	// coordinator; expiry releases them.
	leaseReserve = iota
	// leaseSlice holds a whole slice embedded by handleCreateSlice; expiry
	// deletes the slice and releases its remote slivers too.
	leaseSlice
)

// state is one authority's durable federation state: its slices with
// their local and remote slivers, the reserve and slice leases, the window
// of completed keyed outcomes, cumulative usage, and the generation mark.
//
// apply is the only code that changes it, and the only code that changes
// the node load of committed placements. Live handlers take mu, decide,
// append the Record describing the decision, then apply it; recovery loads
// a snapshot and applies the logged suffix through the same apply. A
// recovered server therefore equals a never-crashed twin by construction,
// and a snapshot is this state serialized.
type state struct {
	// mu is the state lock. It serializes decide+append+apply, so the log
	// order is the execution order. It is never held across a network call.
	mu   sync.Mutex
	auth *planetlab.Authority

	slices map[string]*SliceState
	// leases tracks every reserve holding, leased (non-zero expiry) or held
	// until released, so a release frees exactly the slivers still held
	// here; slice leases carry only their expiry.
	leases map[string]*LeaseState
	// window maps each remembered idempotency key to its outcome (the
	// placed slivers; nil for releases). order is a ring of at most
	// capacity keys in log order: it grows to capacity, then each new key
	// overwrites the oldest, order[head].
	window   map[string][]SliverRecord
	order    []string
	head     int
	capacity int
	usage    map[string]int // authority -> cumulative slivers served
	embedded int            // slices embedded via this registry
	gen      uint64         // idempotency-generation high-water mark

	// onLeased observes each change in the number of leased holdings.
	onLeased func(delta int)
}

func newState(auth *planetlab.Authority, capacity int, onLeased func(int)) *state {
	return &state{
		auth:     auth,
		slices:   map[string]*SliceState{},
		leases:   map[string]*LeaseState{},
		window:   make(map[string][]SliverRecord, capacity),
		capacity: capacity,
		usage:    map[string]int{},
		onLeased: onLeased,
	}
}

// apply advances the state by one mutation record, live or on replay.
func (st *state) apply(rec Record) error {
	switch rec.Op {
	case OpGen:
		if rec.Gen > st.gen {
			st.gen = rec.Gen
		}
	case OpReserve:
		if len(rec.Slivers) > 0 {
			st.auth.RestoreSlivers(toSlivers(rec.Slivers))
			l := LeaseState{Slice: rec.Slice, Kind: leaseReserve, Holder: rec.Holder, Expiry: rec.Expiry}
			if old := st.leases[rec.Slice]; old != nil {
				// A repeated reserve merges into the holding, which keeps
				// its holder and the later expiry; zero (held until
				// released) dominates.
				l = *old
				if old.Expiry == 0 || rec.Expiry == 0 {
					l.Expiry = 0
				} else if rec.Expiry > old.Expiry {
					l.Expiry = rec.Expiry
				}
			}
			l.Slivers = append(append([]SliverRecord(nil), l.Slivers...), rec.Slivers...)
			st.setLease(rec.Slice, &l)
		}
		st.remember(rec.Key, rec.Slivers)
	case OpRelease:
		// rec.Slivers names exactly the slivers the release freed.
		if l := st.leases[rec.Slice]; l != nil && l.Kind == leaseReserve {
			freed, keep := split(l.Slivers, rec.Slivers)
			st.auth.ReleaseSlivers(toSlivers(freed))
			if len(keep) == 0 {
				st.setLease(rec.Slice, nil)
			} else {
				nl := *l
				nl.Slivers = keep
				st.setLease(rec.Slice, &nl)
			}
		}
		st.remember(rec.Key, nil)
	case OpCreateSlice:
		if rec.Spec == nil {
			return fmt.Errorf("sfa: %s record for %q lacks a spec", rec.Op, rec.Slice)
		}
		name := rec.Spec.Name
		if st.slices[name] != nil {
			return fmt.Errorf("sfa: %s record for existing slice %q", rec.Op, name)
		}
		st.slices[name] = &SliceState{Spec: *rec.Spec, Local: rec.Slivers, Remote: rec.Remote}
		st.auth.RestoreSlivers(toSlivers(rec.Slivers))
		st.embedded++
		st.usage[st.auth.Name] += len(rec.Slivers)
		for _, sv := range rec.Remote {
			st.usage[sv.Authority]++
		}
		if rec.Expiry != 0 {
			st.setLease(name, &LeaseState{Slice: name, Kind: leaseSlice, Expiry: rec.Expiry})
		}
	case OpDeleteSlice:
		st.deleteSlice(rec.Slice)
	case OpAmendRemote:
		if sl := st.slices[rec.Slice]; sl != nil {
			sl.Remote = rec.Remote
		}
	case OpExpire:
		switch rec.Kind {
		case leaseReserve:
			st.dropLease(rec.Slice)
		case leaseSlice:
			st.deleteSlice(rec.Slice)
		default:
			return fmt.Errorf("sfa: expire record with unknown lease kind %d", rec.Kind)
		}
	default:
		return fmt.Errorf("sfa: unknown record op %q", rec.Op)
	}
	return nil
}

// remember adds a completed keyed outcome to the window (a no-op for
// unkeyed records), evicting the oldest outcome once capacity is reached.
// A key remembered again keeps its place.
func (st *state) remember(key string, slivers []SliverRecord) {
	if key == "" {
		return
	}
	if _, ok := st.window[key]; !ok {
		if len(st.order) < st.capacity {
			st.order = append(st.order, key)
		} else {
			delete(st.window, st.order[st.head])
			st.order[st.head] = key
			st.head = (st.head + 1) % len(st.order)
		}
	}
	st.window[key] = slivers
}

// outcome returns the remembered outcome of a keyed request.
func (st *state) outcome(key string) ([]SliverRecord, bool) {
	if key == "" {
		return nil, false
	}
	slivers, ok := st.window[key]
	return slivers, ok
}

// setLease installs l as slice's holding (nil drops it) and reports the
// change in leased holdings.
func (st *state) setLease(slice string, l *LeaseState) {
	delta := 0
	if old := st.leases[slice]; old != nil && old.Expiry != 0 {
		delta--
	}
	if l == nil {
		delete(st.leases, slice)
	} else {
		st.leases[slice] = l
		if l.Expiry != 0 {
			delta++
		}
	}
	if delta != 0 && st.onLeased != nil {
		st.onLeased(delta)
	}
}

// dropLease removes slice's holding and frees the slivers it held.
func (st *state) dropLease(slice string) {
	if l := st.leases[slice]; l != nil {
		st.auth.ReleaseSlivers(toSlivers(l.Slivers))
		st.setLease(slice, nil)
	}
}

// deleteSlice removes a slice, freeing its local slivers, and its lease.
// Usage is cumulative and survives deletion.
func (st *state) deleteSlice(name string) {
	if sl := st.slices[name]; sl != nil {
		st.auth.ReleaseSlivers(toSlivers(sl.Local))
		delete(st.slices, name)
	}
	st.dropLease(name)
}

// held returns the requested slivers that slice's reserve holding still
// holds — the only ones a release may free. Slivers already reaped or
// released, or never reserved here, are not returned.
func (st *state) held(slice string, requested []SliverRecord) []SliverRecord {
	l := st.leases[slice]
	if l == nil || l.Kind != leaseReserve {
		return nil
	}
	freed, _ := split(l.Slivers, requested)
	return freed
}

// split matches each requested sliver against at most one held sliver of
// the same node, returning the matched ones and the rest of held (fresh
// slices; held is not modified).
func split(held, requested []SliverRecord) (freed, keep []SliverRecord) {
	keep = append([]SliverRecord(nil), held...)
	for _, req := range requested {
		for i, sv := range keep {
			if sv.SiteID == req.SiteID && sv.NodeID == req.NodeID {
				freed = append(freed, sv)
				keep = append(keep[:i], keep[i+1:]...)
				break
			}
		}
	}
	if len(keep) == 0 {
		keep = nil
	}
	return freed, keep
}

// expired returns the leased holdings whose expiry is at or before now
// (UnixNano), by slice name. Holdings without expiry never expire.
func (st *state) expired(now int64) []LeaseState {
	var out []LeaseState
	for _, l := range st.leases {
		if l.Expiry != 0 && l.Expiry <= now {
			out = append(out, *l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Slice < out[j].Slice })
	return out
}

// snapshot serializes the state in canonical order: slices and leases by
// name, the dedup window oldest first. Slices of slivers are shared, never
// modified in place, so the result stays valid after later applies.
func (st *state) snapshot() State {
	out := State{Seq: st.gen, Embedded: st.embedded}
	for _, sl := range st.slices {
		out.Slices = append(out.Slices, *sl)
	}
	for _, l := range st.leases {
		out.Leases = append(out.Leases, *l)
	}
	for i := range st.order {
		key := st.order[(st.head+i)%len(st.order)]
		out.Dedup = append(out.Dedup, DedupState{Key: key, Slivers: st.window[key]})
	}
	for name, n := range st.usage {
		if out.Usage == nil {
			out.Usage = map[string]int{}
		}
		out.Usage[name] = n
	}
	sort.Slice(out.Slices, func(i, j int) bool { return out.Slices[i].Spec.Name < out.Slices[j].Spec.Name })
	sort.Slice(out.Leases, func(i, j int) bool { return out.Leases[i].Slice < out.Leases[j].Slice })
	return out
}

// load installs a snapshot into a fresh state, placing its slices' and
// holdings' slivers on the authority. A window larger than capacity keeps
// its newest outcomes.
func (st *state) load(in *State) {
	st.gen, st.embedded = in.Seq, in.Embedded
	for name, n := range in.Usage {
		st.usage[name] = n
	}
	for i := range in.Slices {
		sl := in.Slices[i]
		st.slices[sl.Spec.Name] = &sl
		st.auth.RestoreSlivers(toSlivers(sl.Local))
	}
	for i := range in.Leases {
		l := in.Leases[i]
		st.auth.RestoreSlivers(toSlivers(l.Slivers))
		st.setLease(l.Slice, &l)
	}
	for _, d := range in.Dedup {
		st.remember(d.Key, d.Slivers)
	}
}
