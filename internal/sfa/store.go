package sfa

import "fedshare/internal/planetlab"

// This file defines the durable-state surface of the SFA server: the
// Store interface the server appends mutation records to, the Record
// union those appends carry, and the State a snapshot serializes. The
// server stays memory-only by default (nil Store); fedd wires in the
// WAL-backed DurableStore with -data-dir.

// Record ops. Every record describes one decided mutation of durable
// state; state.apply performs it, live and on replay, so replaying a log
// prefix in order reproduces the exact server state at that point.
const (
	// OpReserve: slivers placed by handleReserve (none, for a keyed
	// request that found no room). Carries the placement, lease expiry,
	// and dedup key.
	OpReserve = "reserve"
	// OpRelease: slivers actually freed by handleRelease (those the
	// holding still held), plus the dedup key.
	OpRelease = "release"
	// OpCreateSlice: a federated slice committed by handleCreateSlice —
	// spec, local slivers, remote slivers, optional whole-slice lease.
	OpCreateSlice = "create_slice"
	// OpDeleteSlice: a slice explicitly deleted.
	OpDeleteSlice = "delete_slice"
	// OpExpire: the reaper released one expired lease.
	OpExpire = "expire"
	// OpGen: an idempotency generation was drawn, so a recovered server
	// never reuses a generation that may have reached a peer.
	OpGen = "gen"
	// OpAmendRemote: the reconciler proved some of a slice's peer-held
	// slivers were lost (the peer restarted without them); Remote is the
	// slice's corrected peer-sliver set.
	OpAmendRemote = "amend_remote"
)

// Record is one durable mutation. Fields are a union over the ops above;
// unused fields stay zero. A WAL record is a format-version byte and the
// Record's body (codec.go).
type Record struct {
	Op      string
	Slice   string
	Key     string
	Holder  string // reserving coordinator (OpReserve)
	Kind    int    // lease kind for OpExpire
	Expiry  int64  // UnixNano; 0 = no lease
	Gen     uint64
	Spec    *SliceSpecState
	Slivers []SliverRecord // local slivers
	Remote  []SliverRecord // peer-held slivers
}

// Store persists the server's durable mutations. The server calls Append
// and MaybeSnapshot under its state lock, between deciding a mutation and
// applying it, so the log is a true linearization of execution.
// Implementations must be safe for concurrent use.
type Store interface {
	// Append durably logs one mutation record before the server applies
	// it. An error refuses a reserve or slice creation with nothing
	// applied; other ops log the error and apply anyway.
	Append(Record) error
	// MaybeSnapshot cuts a snapshot (and rotates the log) if one is due.
	// The server calls it right after applying an appended record, still
	// under the state lock, so the captured state is exactly the log so
	// far.
	MaybeSnapshot() error
	// SetSnapshotSource registers the callback that serializes the
	// server's state. The store calls it only from MaybeSnapshot and from
	// Close, which the process owner calls after Server.Close.
	SetSnapshotSource(func() State)
	// Close releases the store. The server does not call Close; the
	// process owner does, after Server.Close.
	Close() error
}

// SliceSpecState is a slice's request as CreateSlice accepted it: the
// diversity bounds and slivers per site, in WAL records and snapshots.
type SliceSpecState struct {
	Name           string `json:"name"`
	Owner          string `json:"owner,omitempty"`
	MinSites       int    `json:"min_sites,omitempty"`
	MaxSites       int    `json:"max_sites,omitempty"`
	SliversPerSite int    `json:"per,omitempty"`
}

// SliceState is one embedded slice's durable record.
type SliceState struct {
	Spec   SliceSpecState `json:"spec"`
	Local  []SliverRecord `json:"local,omitempty"`
	Remote []SliverRecord `json:"remote,omitempty"`
}

// LeaseState is one holding: a reserve's slivers, or a slice's lease.
type LeaseState struct {
	Slice   string         `json:"slice"`
	Kind    int            `json:"kind"`
	Holder  string         `json:"holder,omitempty"`
	Expiry  int64          `json:"expiry,omitempty"` // UnixNano; 0 = indefinite
	Slivers []SliverRecord `json:"slivers,omitempty"`
}

// DedupState is one remembered idempotency outcome: the key and what
// retries replay — the placed slivers of a reserve, nothing for a release.
type DedupState struct {
	Key     string         `json:"key"`
	Slivers []SliverRecord `json:"slivers,omitempty"`
}

// State is the full durable state of a server serialized in canonical
// order, so two servers that executed the same mutations compare equal
// with reflect.DeepEqual. It is the snapshot format of the durable store
// (versioned by SnapshotVersion) and the witness the recovery tests
// compare.
type State struct {
	// Seq is the idempotency-generation high-water mark.
	Seq uint64 `json:"seq"`
	// Slices and Leases are sorted by slice name; Dedup is the window of
	// remembered outcomes, oldest first (log order).
	Slices   []SliceState   `json:"slices,omitempty"`
	Leases   []LeaseState   `json:"leases,omitempty"`
	Dedup    []DedupState   `json:"dedup,omitempty"`
	Usage    map[string]int `json:"usage,omitempty"`
	Embedded int            `json:"embedded,omitempty"`

	// log is the record suffix after the snapshot, as OpenDurableStore
	// recovered it; Server.Restore applies it after loading the snapshot.
	log []Record
}

// --- Conversions between wire records and substrate slivers ---

// toSlivers converts wire SliverRecords to substrate slivers.
func toSlivers(recs []SliverRecord) []planetlab.Sliver {
	if len(recs) == 0 {
		return nil
	}
	out := make([]planetlab.Sliver, len(recs))
	for i, r := range recs {
		out[i] = planetlab.Sliver{SiteID: r.SiteID, NodeID: r.NodeID}
	}
	return out
}

// toRecords converts substrate slivers to wire records owned by authority.
func toRecords(authority string, svs []planetlab.Sliver) []SliverRecord {
	if len(svs) == 0 {
		return nil
	}
	out := make([]SliverRecord, len(svs))
	for i, sv := range svs {
		out[i] = SliverRecord{Authority: authority, SiteID: sv.SiteID, NodeID: sv.NodeID}
	}
	return out
}
