package sfa

// This file holds the binary codec of every protocol message body, of
// every WAL Record and of the snapshot State, and is the only file that
// knows their layouts. The frame around a body is wire.go's.
//
// A body is its type's fields in declaration order, with no names or
// tags; all integers are big-endian:
//
//	string            [4: n][n: UTF-8 bytes]
//	int, int64        [8: two's complement]
//	uint64            [8]
//	float64           [8: IEEE 754 bits]
//	bool              [1: 0 or 1]
//	list              [4: count][count elements]
//	map               [4: count][count key/value pairs, keys strictly ascending]
//	optional struct   [1: 0 or 1][the struct, if 1]
//
// Every value has exactly one encoding, so an accepted body re-encodes to
// its own bytes. The decoder checks every count against the bytes left
// before it allocates, refuses strings that are not valid UTF-8 (names
// read from the wire or the log reach fedd's JSON endpoints, metric labels
// and fedctl's output, where encoding/json would silently replace invalid
// bytes with U+FFFD, so a name would read differently there than on the
// wire) and decodes a zero count to a nil list or map.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unicode/utf8"
)

// encodable is a type with a body encoding.
type encodable interface{ encode(e *enc) }

// decodable is a pointer a body decodes into.
type decodable interface{ decode(d *dec) }

// encodeBody returns v's body. Its buffer starts at 128 bytes, so a body
// without lists grows it at most once (a credential alone is ~90 bytes),
// and each list grows it once more (encodeList).
func encodeBody(v encodable) []byte {
	e := enc{b: make([]byte, 0, 128)}
	v.encode(&e)
	return e.b
}

// decodeBody decodes all of p into v; bytes left over are an error.
func decodeBody(p []byte, v decodable) error {
	return decodeAll(&dec{p: p, s: string(p)}, v)
}

// decodeAll decodes all of d's bytes into v.
func decodeAll(d *dec, v decodable) error {
	v.decode(d)
	if d.err == nil && len(d.p) > 0 {
		d.err = fmt.Errorf("%d trailing bytes after the body", len(d.p))
	}
	return d.err
}

// recordVersion leads every WAL record: the format of the Record body
// after it. Records of the earlier JSON format begin with '{' instead.
const recordVersion = 1

// encodeRecord returns rec's WAL record: the version byte, then the body.
func encodeRecord(rec Record) []byte {
	e := enc{b: append(make([]byte, 0, 128), recordVersion)}
	rec.encode(&e)
	return e.b
}

// decodeRecord decodes one WAL record, refusing any format but this
// build's before decoding the body.
func decodeRecord(p []byte, rec *Record) error {
	switch {
	case len(p) == 0:
		return fmt.Errorf("empty record")
	case p[0] == '{':
		return fmt.Errorf("record is JSON, written by an earlier build; this build reads binary records of format version %d "+
			"(a clean shutdown of the earlier build leaves a snapshot and an empty log, which this build opens)", recordVersion)
	case p[0] != recordVersion:
		return fmt.Errorf("record has format version %d; this build reads binary records of format version %d", p[0], recordVersion)
	}
	return decodeBody(p[1:], rec)
}

// SnapshotVersion leads every snapshot: the format of the State body after
// it. Snapshots that begin with '{' are JSON, as earlier builds wrote
// them; decodeSnapshot still reads those of version jsonSnapshotVersion
// or without a version.
const SnapshotVersion = 2

// jsonSnapshotVersion is the last JSON snapshot format. An unversioned
// JSON snapshot predates versioning and has this version's shape.
const jsonSnapshotVersion = 1

// snapshotFormats names the snapshot formats this build reads.
var snapshotFormats = fmt.Sprintf("this build reads binary snapshots of format version %d "+
	"and JSON snapshots, as earlier builds wrote them, of format version %d or unversioned", SnapshotVersion, jsonSnapshotVersion)

// encodeSnapshot returns st's snapshot: the version byte, then the body.
func encodeSnapshot(st *State) []byte {
	e := enc{b: append(make([]byte, 0, 128), SnapshotVersion)}
	st.encode(&e)
	return e.b
}

// decodeSnapshot decodes one snapshot into st, refusing any format but
// this build's and the JSON ones before decoding the body.
func decodeSnapshot(p []byte, st *State) error {
	switch {
	case len(p) == 0:
		return fmt.Errorf("empty snapshot")
	case p[0] == '{':
		return decodeJSONSnapshot(p, st)
	case p[0] != SnapshotVersion:
		return fmt.Errorf("snapshot has format version %d; %s", p[0], snapshotFormats)
	}
	// Without a body string, each decoded string is its own copy: a
	// snapshot's names, such as its usage keys, outlive most of the state
	// it restores, and a substring would keep the whole snapshot alive.
	return decodeAll(&dec{p: p[1:]}, st)
}

// --- Primitives ---

// enc appends a body to b.
type enc struct{ b []byte }

func (e *enc) u64(v uint64)  { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) int(v int)     { e.u64(uint64(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) count(n int)   { e.b = binary.BigEndian.AppendUint32(e.b, uint32(n)) }

func (e *enc) str(s string) {
	e.count(len(s))
	e.b = append(e.b, s...)
}

func (e *enc) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *enc) strs(list []string) {
	e.count(len(list))
	for _, s := range list {
		e.str(s)
	}
}

func encodeList[T encodable](e *enc, list []T) {
	e.count(len(list))
	for i, v := range list {
		start := len(e.b)
		v.encode(e)
		if i == 0 {
			// One growth for the rest of the list, sized by its first element.
			e.b = slices.Grow(e.b, (len(list)-1)*(len(e.b)-start))
		}
	}
}

// encodeMap writes m's entries in ascending key order.
func encodeMap[V any](e *enc, m map[string]V, val func(*enc, V)) {
	e.count(len(m))
	for _, k := range sortedKeys(m) {
		e.str(k)
		val(e, m[k])
	}
}

// dec reads a body from p. The first error sticks: it empties p, so every
// later read fails too and returns a zero value.
type dec struct {
	p []byte
	// s is the whole body as one string, of which p is a suffix: every
	// decoded string is a substring of s, so a body costs one string
	// allocation, not one per string, and a decoded string keeps its
	// body alive. With s empty, each string is copied out on its own.
	s   string
	err error
}

func (d *dec) fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.p = nil
}

// next takes the next n bytes of a field named what.
func (d *dec) next(n uint64, what string) []byte {
	if n > uint64(len(d.p)) {
		d.fail("%s of %d bytes overruns the body's %d remaining", what, n, len(d.p))
		return nil
	}
	b := d.p[:n:n]
	d.p = d.p[n:]
	return b
}

func (d *dec) u32() uint32 {
	if b := d.next(4, "length"); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (d *dec) u64() uint64 {
	if b := d.next(8, "integer"); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) int() int     { return int(int64(d.u64())) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) bool() bool {
	b := d.next(1, "bool")
	if b == nil {
		return false
	}
	if b[0] > 1 {
		d.fail("bool byte %#x is neither 0 nor 1", b[0])
	}
	return b[0] == 1
}

func (d *dec) str() string {
	n := uint64(d.u32())
	start := len(d.s) - len(d.p)
	b := d.next(n, "string")
	switch {
	case !utf8.Valid(b):
		d.fail("string of %d bytes is not valid UTF-8", len(b))
		return ""
	case d.s == "":
		return string(b)
	}
	return d.s[start : start+len(b)]
}

// count reads a list or map length, refusing one whose elements, of at
// least size bytes each, cannot fit in the bytes left.
func (d *dec) count(size int) int {
	n := uint64(d.u32())
	if n*uint64(size) > uint64(len(d.p)) {
		d.fail("count %d of at least %d bytes each overruns the body's %d remaining", n, size, len(d.p))
		return 0
	}
	return int(n)
}

func (d *dec) strs() []string {
	n := d.count(4)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

// decodeList reads a list of T, whose bodies take at least size bytes.
func decodeList[T any, PT interface {
	*T
	decodable
}](d *dec, size int) []T {
	n := d.count(size)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		PT(&out[i]).decode(d)
	}
	return out
}

// The smallest bodies of the list element types: empty strings and lists.
const (
	sliverMin  = 3 * 4
	siteMin    = 2*4 + 3*8
	holdingMin = 4 + 8 + 4
	sliceMin   = 2*4 + 3*8 + 2*4
	leaseMin   = 4 + 8 + 4 + 8 + 4
	dedupMin   = 4 + 4
)

func (d *dec) slivers() []SliverRecord { return decodeList[SliverRecord](d, sliverMin) }

// decodeMap reads a map whose values take at least size bytes, refusing
// keys that are not strictly ascending.
func decodeMap[V any](d *dec, size int, val func(*dec) V) map[string]V {
	n := d.count(4 + size)
	if n == 0 {
		return nil
	}
	m := make(map[string]V, n)
	prev := ""
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		if i > 0 && k <= prev {
			d.fail("map key %d is not above the key before it", i)
		}
		m[k], prev = val(d), k
	}
	return m
}

// --- Bodies ---

func (Empty) encode(*enc)  {}
func (*Empty) decode(*dec) {}

func (v Credential) encode(e *enc) {
	e.str(v.Subject)
	e.str(v.Authority)
	e.i64(v.Expires)
	e.str(v.Signature)
}

func (v *Credential) decode(d *dec) {
	v.Subject, v.Authority, v.Expires, v.Signature = d.str(), d.str(), d.i64(), d.str()
}

func (v SliverRecord) encode(e *enc) {
	e.str(v.Authority)
	e.str(v.SiteID)
	e.str(v.NodeID)
}

func (v *SliverRecord) decode(d *dec) {
	v.Authority, v.SiteID, v.NodeID = d.str(), d.str(), d.str()
}

func (v AuthorityRecord) encode(e *enc) {
	e.str(v.Name)
	e.str(v.Addr)
	e.int(v.Sites)
	e.int(v.Capacity)
}

func (v *AuthorityRecord) decode(d *dec) {
	v.Name, v.Addr, v.Sites, v.Capacity = d.str(), d.str(), d.int(), d.int()
}

func (v SiteResource) encode(e *enc) {
	e.str(v.SiteID)
	e.str(v.Name)
	e.int(v.Nodes)
	e.int(v.Capacity)
	e.int(v.Free)
}

func (v *SiteResource) decode(d *dec) {
	v.SiteID, v.Name, v.Nodes, v.Capacity, v.Free = d.str(), d.str(), d.int(), d.int(), d.int()
}

func (v ResourceList) encode(e *enc) {
	e.str(v.Authority)
	encodeList(e, v.Sites)
}

func (v *ResourceList) decode(d *dec) {
	v.Authority, v.Sites = d.str(), decodeList[SiteResource](d, siteMin)
}

func (v PeerRequest) encode(e *enc) {
	v.Record.encode(e)
	v.Credential.encode(e)
}

func (v *PeerRequest) decode(d *dec) {
	v.Record.decode(d)
	v.Credential.decode(d)
}

func (v PeerResponse) encode(e *enc)  { v.Record.encode(e) }
func (v *PeerResponse) decode(d *dec) { v.Record.decode(d) }

func (v SliceRequest) encode(e *enc) {
	v.Credential.encode(e)
	e.str(v.Name)
	e.str(v.Owner)
	e.int(v.MinSites)
	e.int(v.MaxSites)
	e.int(v.SliversPerSite)
	e.f64(v.TTLSeconds)
}

func (v *SliceRequest) decode(d *dec) {
	v.Credential.decode(d)
	v.Name, v.Owner = d.str(), d.str()
	v.MinSites, v.MaxSites, v.SliversPerSite, v.TTLSeconds = d.int(), d.int(), d.int(), d.f64()
}

func (v SliceResponse) encode(e *enc) {
	e.str(v.Name)
	encodeList(e, v.Slivers)
	e.int(v.Sites)
}

func (v *SliceResponse) decode(d *dec) {
	v.Name, v.Slivers, v.Sites = d.str(), d.slivers(), d.int()
}

func (v ReserveRequest) encode(e *enc) {
	v.Credential.encode(e)
	e.str(v.SliceName)
	e.int(v.Sites)
	e.int(v.PerSite)
	e.str(v.IdempotencyKey)
	e.f64(v.TTLSeconds)
}

func (v *ReserveRequest) decode(d *dec) {
	v.Credential.decode(d)
	v.SliceName, v.Sites, v.PerSite, v.IdempotencyKey, v.TTLSeconds = d.str(), d.int(), d.int(), d.str(), d.f64()
}

func (v ReserveResponse) encode(e *enc)  { encodeList(e, v.Slivers) }
func (v *ReserveResponse) decode(d *dec) { v.Slivers = d.slivers() }

func (v ReleaseRequest) encode(e *enc) {
	v.Credential.encode(e)
	e.str(v.SliceName)
	encodeList(e, v.Slivers)
	e.str(v.IdempotencyKey)
}

func (v *ReleaseRequest) decode(d *dec) {
	v.Credential.decode(d)
	v.SliceName, v.Slivers, v.IdempotencyKey = d.str(), d.slivers(), d.str()
}

func (v SharesRequest) encode(e *enc)  { e.str(v.Policy) }
func (v *SharesRequest) decode(d *dec) { v.Policy = d.str() }

func (v SharesResponse) encode(e *enc) {
	e.str(v.Policy)
	e.f64(v.GrandValue)
	encodeMap(e, v.Shares, (*enc).f64)
	e.bool(v.Partial)
	e.strs(v.Down)
}

func (v *SharesResponse) decode(d *dec) {
	v.Policy, v.GrandValue = d.str(), d.f64()
	v.Shares = decodeMap(d, 8, (*dec).f64)
	v.Partial, v.Down = d.bool(), d.strs()
}

func (v UsageResponse) encode(e *enc) {
	e.str(v.Authority)
	encodeMap(e, v.CumulativeSlivers, (*enc).int)
	encodeMap(e, v.MeasuredShares, (*enc).f64)
	e.int(v.SlicesEmbedded)
}

func (v *UsageResponse) decode(d *dec) {
	v.Authority = d.str()
	v.CumulativeSlivers = decodeMap(d, 8, (*dec).int)
	v.MeasuredShares = decodeMap(d, 8, (*dec).f64)
	v.SlicesEmbedded = d.int()
}

func (v HoldingsRequest) encode(e *enc) {
	v.Credential.encode(e)
	e.str(v.Holder)
}

func (v *HoldingsRequest) decode(d *dec) {
	v.Credential.decode(d)
	v.Holder = d.str()
}

func (v Holding) encode(e *enc) {
	e.str(v.Slice)
	e.i64(v.Expiry)
	encodeList(e, v.Slivers)
}

func (v *Holding) decode(d *dec) {
	v.Slice, v.Expiry, v.Slivers = d.str(), d.i64(), d.slivers()
}

func (v HoldingsResponse) encode(e *enc) {
	e.str(v.Authority)
	encodeList(e, v.Holdings)
}

func (v *HoldingsResponse) decode(d *dec) {
	v.Authority, v.Holdings = d.str(), decodeList[Holding](d, holdingMin)
}

func (v DeleteRequest) encode(e *enc) {
	v.Credential.encode(e)
	e.str(v.Name)
}

func (v *DeleteRequest) decode(d *dec) {
	v.Credential.decode(d)
	v.Name = d.str()
}

func (v SliceSpecState) encode(e *enc) {
	e.str(v.Name)
	e.str(v.Owner)
	e.int(v.MinSites)
	e.int(v.MaxSites)
	e.int(v.SliversPerSite)
}

func (v *SliceSpecState) decode(d *dec) {
	v.Name, v.Owner, v.MinSites, v.MaxSites, v.SliversPerSite = d.str(), d.str(), d.int(), d.int(), d.int()
}

func (v Record) encode(e *enc) {
	e.str(v.Op)
	e.str(v.Slice)
	e.str(v.Key)
	e.str(v.Holder)
	e.int(v.Kind)
	e.i64(v.Expiry)
	e.u64(v.Gen)
	e.bool(v.Spec != nil)
	if v.Spec != nil {
		v.Spec.encode(e)
	}
	encodeList(e, v.Slivers)
	encodeList(e, v.Remote)
}

func (v *Record) decode(d *dec) {
	v.Op, v.Slice, v.Key, v.Holder = d.str(), d.str(), d.str(), d.str()
	v.Kind, v.Expiry, v.Gen = d.int(), d.i64(), d.u64()
	v.Spec = nil
	if d.bool() {
		v.Spec = &SliceSpecState{}
		v.Spec.decode(d)
	}
	v.Slivers, v.Remote = d.slivers(), d.slivers()
}

func (v SliceState) encode(e *enc) {
	v.Spec.encode(e)
	encodeList(e, v.Local)
	encodeList(e, v.Remote)
}

func (v *SliceState) decode(d *dec) {
	v.Spec.decode(d)
	v.Local, v.Remote = d.slivers(), d.slivers()
}

func (v LeaseState) encode(e *enc) {
	e.str(v.Slice)
	e.int(v.Kind)
	e.str(v.Holder)
	e.i64(v.Expiry)
	encodeList(e, v.Slivers)
}

func (v *LeaseState) decode(d *dec) {
	v.Slice, v.Kind, v.Holder, v.Expiry, v.Slivers = d.str(), d.int(), d.str(), d.i64(), d.slivers()
}

func (v DedupState) encode(e *enc) {
	e.str(v.Key)
	encodeList(e, v.Slivers)
}

func (v *DedupState) decode(d *dec) { v.Key, v.Slivers = d.str(), d.slivers() }

func (v State) encode(e *enc) {
	e.u64(v.Seq)
	encodeList(e, v.Slices)
	encodeList(e, v.Leases)
	encodeList(e, v.Dedup)
	encodeMap(e, v.Usage, (*enc).int)
	e.int(v.Embedded)
}

func (v *State) decode(d *dec) {
	v.Seq = d.u64()
	v.Slices = decodeList[SliceState](d, sliceMin)
	v.Leases = decodeList[LeaseState](d, leaseMin)
	v.Dedup = decodeList[DedupState](d, dedupMin)
	v.Usage = decodeMap(d, 8, (*dec).int)
	v.Embedded = d.int()
}
