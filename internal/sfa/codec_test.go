package sfa

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// bodyTypes names every protocol message type, the WAL Record and the
// snapshot State, each with a constructor of a value to decode into.
var bodyTypes = []struct {
	name string
	new  func() decodable
}{
	{"Empty", func() decodable { return &Empty{} }},
	{"AuthorityRecord", func() decodable { return &AuthorityRecord{} }},
	{"ResourceList", func() decodable { return &ResourceList{} }},
	{"PeerRequest", func() decodable { return &PeerRequest{} }},
	{"PeerResponse", func() decodable { return &PeerResponse{} }},
	{"SliceRequest", func() decodable { return &SliceRequest{} }},
	{"SliceResponse", func() decodable { return &SliceResponse{} }},
	{"ReserveRequest", func() decodable { return &ReserveRequest{} }},
	{"ReserveResponse", func() decodable { return &ReserveResponse{} }},
	{"ReleaseRequest", func() decodable { return &ReleaseRequest{} }},
	{"SharesRequest", func() decodable { return &SharesRequest{} }},
	{"SharesResponse", func() decodable { return &SharesResponse{} }},
	{"UsageResponse", func() decodable { return &UsageResponse{} }},
	{"HoldingsRequest", func() decodable { return &HoldingsRequest{} }},
	{"HoldingsResponse", func() decodable { return &HoldingsResponse{} }},
	{"DeleteRequest", func() decodable { return &DeleteRequest{} }},
	{"Record", func() decodable { return &Record{} }},
	{"State", func() decodable { return &State{} }},
}

var recordOps = []string{OpReserve, OpRelease, OpCreateSlice, OpDeleteSlice, OpExpire, OpGen, OpAmendRemote}

// fill sets v to a generated value: strings of up to 20 runes, some of
// them multi-byte; integers over their whole range; floats that include
// NaNs with payloads, infinities and −0; lists and maps that are nil,
// empty, short or, at the top level, long; pointers nil or set. Unexported
// fields, such as State.log, have no encoding and stay zero.
func fill(r *rand.Rand, v reflect.Value, depth int) {
	sizes := []int{-1, 0, 1, 3}
	if depth == 0 {
		sizes = append(sizes, 250)
	}
	switch v.Kind() {
	case reflect.String:
		alphabet := []rune{'a', 'Z', '0', '-', ' ', 0, 'é', 'ρ', '世', '🙂'}
		runes := make([]rune, r.Intn(20))
		for i := range runes {
			runes[i] = alphabet[r.Intn(len(alphabet))]
		}
		v.SetString(string(runes))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(r.Uint64()))
	case reflect.Uint64:
		v.SetUint(r.Uint64())
	case reflect.Float64:
		floats := []float64{math.NaN(), math.Float64frombits(0xfff0000000abcdef), math.Inf(1), math.Inf(-1),
			math.Copysign(0, -1), r.NormFloat64(), math.SmallestNonzeroFloat64}
		v.SetFloat(floats[r.Intn(len(floats))])
	case reflect.Bool:
		v.SetBool(r.Intn(2) == 1)
	case reflect.Slice:
		n := sizes[r.Intn(len(sizes))]
		if n < 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			fill(r, s.Index(i), depth+1)
		}
		v.Set(s)
	case reflect.Map:
		n := sizes[r.Intn(len(sizes))]
		if n < 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		m := reflect.MakeMap(v.Type())
		for i := 0; i < n; i++ {
			k, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(r, k, depth+1)
			fill(r, val, depth+1)
			m.SetMapIndex(k, val)
		}
		v.Set(m)
	case reflect.Pointer:
		if r.Intn(3) == 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		p := reflect.New(v.Type().Elem())
		fill(r, p.Elem(), depth+1)
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(r, v.Field(i), depth)
			}
		}
	default:
		panic(fmt.Sprintf("fill: no generator for %s", v.Type()))
	}
}

// generate returns a generated value of the type dst points to, with a
// Record's Op drawn from the record ops.
func generate(r *rand.Rand, dst decodable) encodable {
	v := reflect.New(reflect.TypeOf(dst).Elem())
	fill(r, v.Elem(), 0)
	if rec, ok := v.Interface().(*Record); ok {
		rec.Op = recordOps[r.Intn(len(recordOps))]
	}
	return v.Elem().Interface().(encodable)
}

// sameBits reports whether got equals want field by field, floats by
// their bits, reading want's empty lists and maps as nil.
func sameBits(want, got reflect.Value) bool {
	switch want.Kind() {
	case reflect.Float64:
		return math.Float64bits(want.Float()) == math.Float64bits(got.Float())
	case reflect.Slice, reflect.Map:
		if want.Len() == 0 {
			return got.IsNil()
		}
		if got.Len() != want.Len() {
			return false
		}
		if want.Kind() == reflect.Map {
			for _, k := range want.MapKeys() {
				if g := got.MapIndex(k); !g.IsValid() || !sameBits(want.MapIndex(k), g) {
					return false
				}
			}
			return true
		}
		for i := 0; i < want.Len(); i++ {
			if !sameBits(want.Index(i), got.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer:
		if want.IsNil() || got.IsNil() {
			return want.IsNil() == got.IsNil()
		}
		return sameBits(want.Elem(), got.Elem())
	case reflect.Struct:
		for i := 0; i < want.NumField(); i++ {
			if !sameBits(want.Field(i), got.Field(i)) {
				return false
			}
		}
		return true
	}
	return want.Interface() == got.Interface()
}

// TestBodyRoundTrip: every message type and every Record op decodes from
// its encoding to the value encoded, bit for bit, and re-encodes to the
// same bytes; empty lists and maps come back nil.
func TestBodyRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, bt := range bodyTypes {
		for i := 0; i < 60; i++ {
			in := generate(r, bt.new())
			body := encodeBody(in)
			out := bt.new()
			if err := decodeBody(body, out); err != nil {
				t.Fatalf("%s #%d: decode: %v", bt.name, i, err)
			}
			if !sameBits(reflect.ValueOf(in), reflect.ValueOf(out).Elem()) {
				t.Fatalf("%s #%d: decoded\n%+v\nwant\n%+v", bt.name, i, out, in)
			}
			if again := encodeBody(out.(encodable)); !bytes.Equal(again, body) {
				t.Fatalf("%s #%d: re-encoded %d bytes differ from the %d decoded", bt.name, i, len(again), len(body))
			}
		}
	}
	var sr SliceResponse
	if err := decodeBody(encodeBody(SliceResponse{Slivers: []SliverRecord{}}), &sr); err != nil || sr.Slivers != nil {
		t.Errorf("empty sliver list decoded as %#v (err %v), want nil", sr.Slivers, err)
	}
}

// TestBodyRefusesMalformed: each way a body can be malformed is refused.
func TestBodyRefusesMalformed(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		into       decodable
		want       string
	}{
		{"invalid UTF-8", "\x00\x00\x00\x02\xc3\x28", &SharesRequest{}, "not valid UTF-8"},
		{"string past the end", "\x00\x00\x00\x09shapley", &SharesRequest{}, "overruns"},
		{"count past the end", "\x00\x00\x00\x07", &ReserveResponse{}, "overruns"},
		{"trailing bytes", "\x00\x00\x00\x00\x00", &ReserveResponse{}, "1 trailing bytes"},
		{"bool of 2", "\x00\x00\x00\x00" + strings.Repeat("\x00", 8) + "\x00\x00\x00\x00\x02\x00\x00\x00\x00", &SharesResponse{}, "neither 0 nor 1"},
		{"unsorted map", "\x00\x00\x00\x00" + strings.Repeat("\x00", 8) + "\x00\x00\x00\x02" +
			"\x00\x00\x00\x01b" + strings.Repeat("\x00", 8) + "\x00\x00\x00\x01a" + strings.Repeat("\x00", 8) +
			"\x00\x00\x00\x00\x00", &SharesResponse{}, "map key 1 is not above"},
		{"JSON", `{"policy":"shapley"}`, &SharesRequest{}, "overruns"},
	} {
		if err := decodeBody([]byte(tc.body), tc.into); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestRecordFormat: a WAL record is its version byte and its body; a JSON
// record, as builds before this format wrote them, and an unknown version
// are refused with errors naming both formats.
func TestRecordFormat(t *testing.T) {
	rec := Record{Op: OpGen, Gen: 7}
	b := encodeRecord(rec)
	if b[0] != recordVersion || !bytes.Equal(b[1:], encodeBody(rec)) {
		t.Fatalf("record %q is not the version byte and the body", b)
	}
	var got Record
	if err := decodeRecord(b, &got); err != nil || !reflect.DeepEqual(got, rec) {
		t.Fatalf("decoded %+v (err %v), want %+v", got, err, rec)
	}
	for _, tc := range []struct{ data, want string }{
		{`{"op":"gen","gen":7}`, "is JSON"},
		{"\x02" + string(b[1:]), "format version 2"},
	} {
		err := decodeRecord([]byte(tc.data), &got)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "binary records of format version 1") {
			t.Errorf("%q: err = %v, want it to name %q and this build's format", tc.data, err, tc.want)
		}
	}
}

// TestSnapshotFormat: a snapshot is its version byte and its State body;
// a JSON snapshot, as builds before this format wrote them, still decodes;
// a binary snapshot of another version and a JSON one of a version this
// build cannot read are refused with errors naming both formats.
func TestSnapshotFormat(t *testing.T) {
	st := State{
		Seq:    7,
		Slices: []SliceState{{Spec: SliceSpecState{Name: "web", Owner: "tester", MinSites: 2, SliversPerSite: 1}, Local: planeSlivers("PLC", 2, 1)}},
		Leases: []LeaseState{{Slice: "db", Kind: leaseReserve, Holder: "PLE", Expiry: 42, Slivers: planeSlivers("PLC", 1, 1)}},
		Dedup:  []DedupState{{Key: "reserve:k1", Slivers: planeSlivers("PLC", 1, 1)}, {Key: "release:k2"}},
		Usage:  map[string]int{"PLC": 2, "PLE": 1}, Embedded: 1,
	}
	b := encodeSnapshot(&st)
	if b[0] != SnapshotVersion || !bytes.Equal(b[1:], encodeBody(st)) {
		t.Fatalf("snapshot %q is not the version byte and the State body", b)
	}
	var got State
	if err := decodeSnapshot(b, &got); err != nil || !reflect.DeepEqual(got, st) {
		t.Fatalf("decoded %+v (err %v), want %+v", got, err, st)
	}
	js, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []string{``, `"version":1,`} {
		var old State
		if err := decodeSnapshot([]byte("{"+version+string(js[1:])), &old); err != nil || !reflect.DeepEqual(old, st) {
			t.Errorf("JSON snapshot {%s…} decoded as %+v (err %v), want %+v", version, old, err, st)
		}
	}
	for _, tc := range []struct{ data, want string }{
		{string(rune(SnapshotVersion+1)) + string(b[1:]), fmt.Sprintf("format version %d", SnapshotVersion+1)},
		{`{"version":2,"seq":7}`, "JSON of format version 2"},
		{"", "empty snapshot"},
	} {
		err := decodeSnapshot([]byte(tc.data), &got)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want one naming %q", tc.data, err, tc.want)
		} else if tc.data != "" && (!strings.Contains(err.Error(), fmt.Sprintf("binary snapshots of format version %d", SnapshotVersion)) ||
			!strings.Contains(err.Error(), fmt.Sprintf("JSON snapshots, as earlier builds wrote them, of format version %d", jsonSnapshotVersion))) {
			t.Errorf("%q: err = %v, want it to name both formats this build reads", tc.data, err)
		}
	}
}

// TestSnapshotStringsDoNotPinBody: a string decoded from a snapshot does
// not keep the snapshot alive. A usage key outlives the rest of the state
// a server restores from a 4 MiB snapshot; once the rest is dropped, the
// heap holds no more than a fraction of the snapshot.
func TestSnapshotStringsDoNotPinBody(t *testing.T) {
	st := State{Usage: map[string]int{"PLC": 1}}
	for i := 0; i < 1024; i++ {
		st.Dedup = append(st.Dedup, DedupState{Key: fmt.Sprintf("%04d%s", i, strings.Repeat("k", 4096))})
	}
	b := encodeSnapshot(&st)
	var ms runtime.MemStats
	heap := func() uint64 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	var got State
	if err := decodeSnapshot(b, &got); err != nil {
		t.Fatal(err)
	}
	var key string
	for k := range got.Usage {
		key = k
	}
	got = State{}
	if held := int64(heap()) - int64(before); held > int64(len(b))/4 {
		t.Errorf("a usage key kept %d bytes of a %d-byte snapshot alive", held, len(b))
	}
	runtime.KeepAlive(key)
	runtime.KeepAlive(b)
}

// FuzzDecodeBody decodes arbitrary bytes as every message type (the
// snapshot State among them), as a WAL record and as a snapshot. Decoding
// never panics; a body decode allocates no more than a small multiple of
// the input, so no list or map outgrows what the bytes left can hold; and
// an accepted body, record or binary snapshot re-encodes to exactly its
// own bytes. The seed corpus lives in testdata/fuzz.
func FuzzDecodeBody(f *testing.F) {
	var ms runtime.MemStats
	allocated := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		limit := 8*uint64(len(data)) + 16<<10
		for _, bt := range bodyTypes {
			v := bt.new()
			before := allocated()
			err := decodeBody(data, v)
			if allocated()-before > limit {
				// Another goroutine may have allocated meanwhile; a decode
				// that allocates too much does so again.
				before = allocated()
				_ = decodeBody(data, bt.new())
				if n := allocated() - before; n > limit {
					t.Fatalf("%s: decoding %d bytes allocated %d", bt.name, len(data), n)
				}
			}
			if err != nil {
				continue
			}
			if again := encodeBody(v.(encodable)); !bytes.Equal(again, data) {
				t.Fatalf("%s: accepted %q, re-encoded %q", bt.name, data, again)
			}
		}
		var rec Record
		if decodeRecord(data, &rec) == nil && !bytes.Equal(encodeRecord(rec), data) {
			t.Fatalf("record: accepted %q, re-encoded %q", data, encodeRecord(rec))
		}
		var st State
		if decodeSnapshot(data, &st) == nil && data[0] != '{' && !bytes.Equal(encodeSnapshot(&st), data) {
			t.Fatalf("snapshot: accepted %q, re-encoded %q", data, encodeSnapshot(&st))
		}
	})
}

// planeSlivers returns per slivers at each of sites sites of auth, named
// as fedd and fedbench name them.
func planeSlivers(auth string, sites, per int) []SliverRecord {
	out := make([]SliverRecord, 0, sites*per)
	for s := 0; s < sites; s++ {
		for n := 0; n < per; n++ {
			out = append(out, SliverRecord{Authority: auth, SiteID: fmt.Sprintf("%s-site%03d", auth, s), NodeID: fmt.Sprintf("node%d", n)})
		}
	}
	return out
}

// BenchmarkBodyCodec encodes and decodes the plane's three largest bodies:
// a 120-sliver CreateSlice response, a 40-sliver peer release and the
// 120-sliver create_slice WAL record.
func BenchmarkBodyCodec(b *testing.B) {
	local := planeSlivers("PLC", 40, 1)
	remote := append(planeSlivers("PLE", 40, 1), planeSlivers("PLJ", 40, 1)...)
	all := append(append([]SliverRecord(nil), local...), remote...)
	cred := IssueCredential(testSecret, "PLC", "PLC", 60e9)
	rec := Record{Op: OpCreateSlice, Slice: "fb-1-000042", Slivers: local, Remote: remote,
		Expiry: 1_700_000_000_000_000_000, Spec: &SliceSpecState{Name: "fb-1-000042", Owner: "bench", MaxSites: 120, SliversPerSite: 1}}
	cases := []struct {
		name   string
		encode func() []byte
		decode func([]byte) error
	}{
		{"slice-response-120", func() []byte { return encodeBody(SliceResponse{Name: "fb-1-000042", Slivers: all, Sites: 120}) },
			func(p []byte) error { return decodeBody(p, &SliceResponse{}) }},
		{"release-request-40", func() []byte {
			return encodeBody(ReleaseRequest{Credential: cred, SliceName: "fb-1-000042", Slivers: remote[:40],
				IdempotencyKey: "PLC/fb-1-000042#4242@PLE"})
		}, func(p []byte) error { return decodeBody(p, &ReleaseRequest{}) }},
		{"create-slice-record-120", func() []byte { return encodeRecord(rec) },
			func(p []byte) error { return decodeRecord(p, &Record{}) }},
	}
	for _, c := range cases {
		body := c.encode()
		b.Run(c.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				_ = c.encode()
			}
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if err := c.decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
