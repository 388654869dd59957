// Package sfa implements a small Slice-based Federation Architecture
// substrate (Sec. 3.2.2 mentions SFA as PlanetLab's federation plane):
// regional authorities run registry servers that exchange credentials and
// resource records over TCP, peer with each other, embed slices across the
// federation, and expose the policy-computed value shares.
//
// The wire format is deliberately simple and fully self-contained: each
// request or response envelope travels as one length-prefixed binary frame
// whose params and result are binary bodies, carried verbatim. The frame
// layout is known to this file alone, the body layouts to codec.go.
package sfa

import (
	"encoding/binary"
	"fmt"
	"io"
)

// MaxFrameSize bounds a single message to keep a misbehaving peer from
// forcing unbounded allocations.
const MaxFrameSize = 4 << 20

// Envelope is one framed message: a request (Method set) or a response
// (Error or Result set), matched by ID. Params and Result are bodies
// (codec.go) the frame carries without inspecting them; their consumer
// decodes them.
type Envelope struct {
	ID     uint64
	Method string
	Params []byte
	Result []byte
	Error  string
	// Code classifies machine-actionable errors. The only defined value is
	// CodeOverloaded, which marks the error as retriable without counting
	// against the peer's health (the server answered; it just shed load).
	Code string
}

// CodeOverloaded is the Envelope.Code of a response shed by the server's
// admission gate: the request was NOT executed and may be retried safely.
const CodeOverloaded = "overloaded"

// Frame layout, all integers big-endian:
//
//	[4: length of the rest][1: version][8: ID]
//	[4: n][n: Method] [4: n][n: Code] [4: n][n: Error] [4: n][n: Params]
//	[Result: the rest of the frame]
//
// Every field is fixed-width or length-prefixed, so an accepted frame has
// exactly one encoding. Version 1 frames carried JSON bodies, and frames of
// the JSON-envelope format before them begin with '{': both are refused as
// an unknown version.
const (
	frameVersion = 2
	// frameHeader is the length of a frame with every field empty, not
	// counting the 4-byte length prefix.
	frameHeader = 1 + 8 + 4*4
)

// frameLen is the length a frame for env declares: every byte after the
// 4-byte length prefix.
func frameLen(env *Envelope) int {
	return frameHeader + len(env.Method) + len(env.Code) + len(env.Error) + len(env.Params) + len(env.Result)
}

// WriteFrame writes env as one frame. An envelope whose frame would exceed
// MaxFrameSize is refused before any byte is written.
func WriteFrame(w io.Writer, env *Envelope) error {
	n := frameLen(env)
	if n > MaxFrameSize {
		return fmt.Errorf("sfa: frame of %d bytes exceeds the %d-byte limit", n, MaxFrameSize)
	}
	hdr := make([]byte, 0, 4+n-len(env.Params)-len(env.Result))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(n))
	hdr = append(hdr, frameVersion)
	hdr = binary.BigEndian.AppendUint64(hdr, env.ID)
	for _, f := range [...]string{env.Method, env.Code, env.Error} {
		hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(f)))
		hdr = append(hdr, f...)
	}
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(env.Params)))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("sfa: write header: %w", err)
	}
	for _, body := range [...][]byte{env.Params, env.Result} {
		if _, err := w.Write(body); err != nil {
			return fmt.Errorf("sfa: write payload: %w", err)
		}
	}
	return nil
}

// ReadFrame reads one frame. It checks the frame's framing — the length
// against MaxFrameSize before allocating, the version, and every field
// length against the frame — but not its bodies: Params and Result
// are sub-slices of the frame's one buffer, which is never reused, and the
// caller decodes them. A clean end of stream before the frame is io.EOF.
func ReadFrame(r io.Reader) (*Envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // preserve io.EOF for clean shutdown detection
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("sfa: incoming frame of %d bytes exceeds limit", n)
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(r, p); err != nil {
		return nil, fmt.Errorf("sfa: read payload: %w", err)
	}
	if len(p) < frameHeader {
		return nil, fmt.Errorf("sfa: decode: frame of %d bytes is shorter than its %d-byte header", len(p), frameHeader)
	}
	if p[0] != frameVersion {
		return nil, fmt.Errorf("sfa: decode: unknown frame version %#x", p[0])
	}
	env := &Envelope{ID: binary.BigEndian.Uint64(p[1:9])}
	p = p[9:]
	var fields [4][]byte
	for i := range fields {
		if len(p) < 4 {
			return nil, fmt.Errorf("sfa: decode: frame ends inside field %d's length", i)
		}
		n := binary.BigEndian.Uint32(p)
		p = p[4:]
		if uint64(n) > uint64(len(p)) {
			return nil, fmt.Errorf("sfa: decode: field %d of %d bytes overruns the frame's %d remaining", i, n, len(p))
		}
		fields[i], p = p[:n:n], p[n:]
	}
	env.Method, env.Code, env.Error = string(fields[0]), string(fields[1]), string(fields[2])
	if len(fields[3]) > 0 {
		env.Params = fields[3]
	}
	if len(p) > 0 {
		env.Result = p
	}
	return env, nil
}

// --- Method names ---

// Protocol methods.
const (
	MethodPing          = "sfa.Ping"
	MethodGetRecord     = "sfa.GetRecord"
	MethodListResources = "sfa.ListResources"
	MethodPeer          = "sfa.Peer"
	MethodCreateSlice   = "sfa.CreateSlice"
	MethodDeleteSlice   = "sfa.DeleteSlice"
	MethodReserve       = "sfa.Reserve"
	MethodRelease       = "sfa.Release"
	MethodGetShares     = "sfa.GetShares"
	MethodGetUsage      = "sfa.GetUsage"
	MethodListHoldings  = "sfa.ListHoldings"
)

// --- Message payloads ---

// AuthorityRecord describes an authority in the registry: its sites and
// total sliver slots are the contribution share computation prices.
type AuthorityRecord struct {
	Name     string
	Addr     string
	Sites    int
	Capacity int // total sliver slots
}

// SiteResource is one advertised site.
type SiteResource struct {
	SiteID   string
	Name     string
	Nodes    int
	Capacity int // total sliver slots
	Free     int // currently unreserved slots
}

// ResourceList is the RSpec-like resource advertisement.
type ResourceList struct {
	Authority string
	Sites     []SiteResource
}

// PeerRequest initiates (or refreshes) a peering between authorities: the
// caller introduces itself and presents a credential signed with the shared
// federation secret.
type PeerRequest struct {
	Record     AuthorityRecord
	Credential Credential
}

// PeerResponse returns the callee's record.
type PeerResponse struct {
	Record AuthorityRecord
}

// SliceRequest asks for a federated slice.
type SliceRequest struct {
	Credential     Credential
	Name           string
	Owner          string
	MinSites       int
	MaxSites       int
	SliversPerSite int
	// TTLSeconds leases the slice for the experiment's holding time: once
	// it elapses the embedding server deletes the slice and releases its
	// local and remote slivers. Zero means no lease.
	TTLSeconds float64
}

// SliverRecord is one placed sliver. Its JSON names are those of the
// durable state's snapshots.
type SliverRecord struct {
	Authority string `json:"authority"`
	SiteID    string `json:"site_id"`
	NodeID    string `json:"node_id"`
}

// SliceResponse reports a deployed slice.
type SliceResponse struct {
	Name    string
	Slivers []SliverRecord
	Sites   int
}

// ReserveRequest asks a peer to place slivers locally on behalf of a
// federated slice.
type ReserveRequest struct {
	Credential Credential
	SliceName  string
	Sites      int // how many distinct sites
	PerSite    int // slivers per site
	// IdempotencyKey makes retries safe: the server remembers the response
	// to each key in a bounded table and replays it instead of reserving
	// again. Empty disables dedup.
	IdempotencyKey string
	// TTLSeconds turns the reservation into a lease: the server's reaper
	// releases the slivers once the TTL elapses without an explicit
	// Release. It models the finite holding time t of the paper's demand
	// classes. Zero means no lease (held until released).
	TTLSeconds float64
}

// ReserveResponse returns the placed slivers.
type ReserveResponse struct {
	Slivers []SliverRecord
}

// ReleaseRequest frees previously reserved slivers.
type ReleaseRequest struct {
	Credential Credential
	SliceName  string
	Slivers    []SliverRecord
	// IdempotencyKey makes retried releases safe: without it, a release
	// whose response was lost and which is then retried would decrement
	// node load twice and corrupt the accounting other slices rely on.
	IdempotencyKey string
}

// SharesRequest asks the authority for the federation value shares it has
// computed from the advertised contributions and its demand profile.
type SharesRequest struct {
	Policy string // "shapley", "proportional", ...
}

// SharesResponse maps authority names to normalized shares. When peers are
// unreachable the coordinator degrades instead of erroring: Partial marks
// the response as computed over the live sub-federation only, and Down
// lists the excluded authorities; both are zero on the healthy path.
type SharesResponse struct {
	Policy     string
	GrandValue float64
	Shares     map[string]float64
	Partial    bool
	Down       []string
}

// UsageResponse reports the cumulative slivers each authority has served
// for slices embedded via this registry, plus the resulting measured
// (consumption-based) shares — the ρ̂ of eq. (7) computed from observed
// usage instead of a demand model.
type UsageResponse struct {
	Authority         string
	CumulativeSlivers map[string]int
	MeasuredShares    map[string]float64
	SlicesEmbedded    int
}

// HoldingsRequest asks a peer which reserve holdings it currently tracks
// for a given coordinator — the anti-entropy read the reconciler diffs
// against its own intent after a partition heals. Holder defaults to the
// credential subject.
type HoldingsRequest struct {
	Credential Credential
	Holder     string
}

// Holding is one slice's live reserve holding at the answering authority.
type Holding struct {
	Slice   string
	Expiry  int64 // UnixNano; 0 = held until released
	Slivers []SliverRecord
}

// HoldingsResponse lists the holder's holdings, sorted by slice name with
// slivers sorted by (site, node) so two identical states encode
// identically.
type HoldingsResponse struct {
	Authority string
	Holdings  []Holding
}

// DeleteRequest removes a slice.
type DeleteRequest struct {
	Credential Credential
	Name       string
}

// Empty is a no-payload result.
type Empty struct{}
