// Package sfa implements a small Slice-based Federation Architecture
// substrate (Sec. 3.2.2 mentions SFA as PlanetLab's federation plane):
// regional authorities run registry servers that exchange credentials and
// resource records over TCP, peer with each other, embed slices across the
// federation, and expose the policy-computed value shares.
//
// The wire format is deliberately simple and fully self-contained: each
// request or response envelope travels as one length-prefixed binary frame
// whose params and result are JSON bodies, carried verbatim. The frame
// layout is known to this file alone.
package sfa

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// MaxFrameSize bounds a single message to keep a misbehaving peer from
// forcing unbounded allocations.
const MaxFrameSize = 4 << 20

// Envelope is one framed message: a request (Method set) or a response
// (Error or Result set), matched by ID. Params and Result are JSON bodies
// the frame carries without inspecting them; their consumer decodes them.
type Envelope struct {
	ID     uint64
	Method string
	Params json.RawMessage
	Result json.RawMessage
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
// exactly one encoding. Frames of the earlier JSON-envelope format begin
// their body with '{' and are refused as an unknown version.
const (
	frameVersion = 1
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
// length against the frame — but not its JSON bodies: Params and Result
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

// marshal encodes params/results, panicking only on programmer error
// (unencodable types).
func marshal(v interface{}) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("sfa: marshal: %v", err))
	}
	return b
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
	Name     string `json:"name"`
	Addr     string `json:"addr"`
	Sites    int    `json:"sites"`
	Capacity int    `json:"capacity"` // total sliver slots
}

// SiteResource is one advertised site.
type SiteResource struct {
	SiteID   string `json:"site_id"`
	Name     string `json:"name"`
	Nodes    int    `json:"nodes"`
	Capacity int    `json:"capacity"` // total sliver slots
	Free     int    `json:"free"`     // currently unreserved slots
}

// ResourceList is the RSpec-like resource advertisement.
type ResourceList struct {
	Authority string         `json:"authority"`
	Sites     []SiteResource `json:"sites"`
}

// PeerRequest initiates (or refreshes) a peering between authorities: the
// caller introduces itself and presents a credential signed with the shared
// federation secret.
type PeerRequest struct {
	Record     AuthorityRecord `json:"record"`
	Credential Credential      `json:"credential"`
}

// PeerResponse returns the callee's record.
type PeerResponse struct {
	Record AuthorityRecord `json:"record"`
}

// SliceRequest asks for a federated slice.
type SliceRequest struct {
	Credential     Credential `json:"credential"`
	Name           string     `json:"name"`
	Owner          string     `json:"owner"`
	MinSites       int        `json:"min_sites"`
	MaxSites       int        `json:"max_sites"`
	SliversPerSite int        `json:"slivers_per_site"`
	// TTLSeconds leases the slice for the experiment's holding time: once
	// it elapses the embedding server deletes the slice and releases its
	// local and remote slivers. Zero means no lease.
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
}

// SliverRecord is one placed sliver.
type SliverRecord struct {
	Authority string `json:"authority"`
	SiteID    string `json:"site_id"`
	NodeID    string `json:"node_id"`
}

// SliceResponse reports a deployed slice.
type SliceResponse struct {
	Name    string         `json:"name"`
	Slivers []SliverRecord `json:"slivers"`
	Sites   int            `json:"sites"`
}

// ReserveRequest asks a peer to place slivers locally on behalf of a
// federated slice.
type ReserveRequest struct {
	Credential Credential `json:"credential"`
	SliceName  string     `json:"slice_name"`
	Sites      int        `json:"sites"` // how many distinct sites
	PerSite    int        `json:"per"`   // slivers per site
	// IdempotencyKey makes retries safe: the server remembers the response
	// to each key in a bounded table and replays it instead of reserving
	// again. Empty disables dedup (legacy behavior).
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// TTLSeconds turns the reservation into a lease: the server's reaper
	// releases the slivers once the TTL elapses without an explicit
	// Release. It models the finite holding time t of the paper's demand
	// classes. Zero means no lease (held until released).
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
}

// ReserveResponse returns the placed slivers.
type ReserveResponse struct {
	Slivers []SliverRecord `json:"slivers"`
}

// ReleaseRequest frees previously reserved slivers.
type ReleaseRequest struct {
	Credential Credential     `json:"credential"`
	SliceName  string         `json:"slice_name"`
	Slivers    []SliverRecord `json:"slivers"`
	// IdempotencyKey makes retried releases safe: without it, a release
	// whose response was lost and which is then retried would decrement
	// node load twice and corrupt the accounting other slices rely on.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// SharesRequest asks the authority for the federation value shares it has
// computed from the advertised contributions and its demand profile.
type SharesRequest struct {
	Policy string `json:"policy"` // "shapley", "proportional", ...
}

// SharesResponse maps authority names to normalized shares. When peers are
// unreachable the coordinator degrades instead of erroring: Partial marks
// the response as computed over the live sub-federation only, and Down
// lists the excluded authorities. Both fields are omitted on the healthy
// path, so all-peers-live responses are byte-identical to earlier versions.
type SharesResponse struct {
	Policy     string             `json:"policy"`
	GrandValue float64            `json:"grand_value"`
	Shares     map[string]float64 `json:"shares"`
	Partial    bool               `json:"partial,omitempty"`
	Down       []string           `json:"down,omitempty"`
}

// UsageResponse reports the cumulative slivers each authority has served
// for slices embedded via this registry, plus the resulting measured
// (consumption-based) shares — the ρ̂ of eq. (7) computed from observed
// usage instead of a demand model.
type UsageResponse struct {
	Authority         string             `json:"authority"`
	CumulativeSlivers map[string]int     `json:"cumulative_slivers"`
	MeasuredShares    map[string]float64 `json:"measured_shares"`
	SlicesEmbedded    int                `json:"slices_embedded"`
}

// HoldingsRequest asks a peer which reserve holdings it currently tracks
// for a given coordinator — the anti-entropy read the reconciler diffs
// against its own intent after a partition heals. Holder defaults to the
// credential subject.
type HoldingsRequest struct {
	Credential Credential `json:"credential"`
	Holder     string     `json:"holder,omitempty"`
}

// Holding is one slice's live reserve holding at the answering authority.
type Holding struct {
	Slice   string         `json:"slice"`
	Expiry  int64          `json:"expiry,omitempty"` // UnixNano; 0 = held until released
	Slivers []SliverRecord `json:"slivers,omitempty"`
}

// HoldingsResponse lists the holder's holdings, sorted by slice name with
// slivers sorted by (site, node) so two identical states encode
// identically.
type HoldingsResponse struct {
	Authority string    `json:"authority"`
	Holdings  []Holding `json:"holdings,omitempty"`
}

// DeleteRequest removes a slice.
type DeleteRequest struct {
	Credential Credential `json:"credential"`
	Name       string     `json:"name"`
}

// Empty is a no-payload result.
type Empty struct{}
