package sfa

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"fedshare/internal/obs"
	"fedshare/internal/planetlab"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Envelope{ID: 42, Method: MethodGetShares, Params: encodeBody(SharesRequest{Policy: "x"})}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != 42 || out.Method != MethodGetShares {
		t.Errorf("round trip lost fields: %+v", out)
	}
	if string(out.Params) != "\x00\x00\x00\x01x" {
		t.Errorf("params = %q", out.Params)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(id uint64, method string, params, result []byte, errMsg, code string) bool {
		var buf bytes.Buffer
		in := &Envelope{ID: id, Method: method, Params: params, Result: result, Error: errMsg, Code: code}
		if err := WriteFrame(&buf, in); err != nil {
			return false
		}
		out, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		return out.ID == id && out.Method == method && bytes.Equal(out.Params, params) &&
			bytes.Equal(out.Result, result) && out.Error == errMsg && out.Code == code && buf.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// goldenFrames pins the frame layout byte for byte: a request and a shed
// response. FuzzReadFrame's request and shed seeds are these bytes.
var goldenFrames = []struct {
	name string
	env  Envelope
	raw  string
}{
	{"request", Envelope{ID: 0x0102030405060708, Method: MethodGetShares, Params: encodeBody(SharesRequest{Policy: "shapley"})},
		"\x00\x00\x00\x31" + // length of the rest: 49
			"\x02" + // version
			"\x01\x02\x03\x04\x05\x06\x07\x08" + // ID
			"\x00\x00\x00\x0d" + "sfa.GetShares" + // method
			"\x00\x00\x00\x00" + // code
			"\x00\x00\x00\x00" + // error
			"\x00\x00\x00\x0b" + "\x00\x00\x00\x07shapley"}, // params: SharesRequest's body; no result
	{"shed", Envelope{ID: 9, Error: "server overloaded: in-flight admission bound reached", Code: CodeOverloaded},
		"\x00\x00\x00\x57" + // length of the rest: 87
			"\x02" + // version
			"\x00\x00\x00\x00\x00\x00\x00\x09" + // ID
			"\x00\x00\x00\x00" + // method
			"\x00\x00\x00\x0a" + "overloaded" + // code
			"\x00\x00\x00\x34" + "server overloaded: in-flight admission bound reached" + // error
			"\x00\x00\x00\x00"}, // params; no result
}

func TestFrameGoldenBytes(t *testing.T) {
	for _, g := range goldenFrames {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &g.env); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if buf.String() != g.raw {
			t.Errorf("%s: WriteFrame wrote\n%q\nwant\n%q", g.name, buf.String(), g.raw)
		}
		out, err := ReadFrame(strings.NewReader(g.raw))
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if !reflect.DeepEqual(*out, g.env) {
			t.Errorf("%s: ReadFrame = %+v, want %+v", g.name, *out, g.env)
		}
	}
}

func TestReadFrameEOF(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream should yield io.EOF, got %v", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Envelope{ID: 1, Method: "m"}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Error("truncated frame must fail")
	}
}

func TestReadFrameOversized(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Error("oversized frame must be rejected before allocation")
	}
}

// frame prefixes body with its 4-byte length.
func frame(body string) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// v1Request is a version-1 frame, whose bodies were JSON: the request
// golden frame as builds before binary bodies wrote it.
const v1Request = "\x00\x00\x00\x3a\x01\x01\x02\x03\x04\x05\x06\x07\x08" +
	"\x00\x00\x00\x0dsfa.GetShares\x00\x00\x00\x00\x00\x00\x00\x00" +
	"\x00\x00\x00\x14" + `{"policy":"shapley"}`

func TestReadFrameGarbage(t *testing.T) {
	const id = "\x00\x00\x00\x00\x00\x00\x00\x01"
	for _, raw := range [][]byte{
		frame("not json"),
		frame(`{"id":1,"method":"sfa.Ping"}`),           // the JSON-envelope frame
		[]byte(v1Request),                               // a version-1 frame
		frame("\x03" + id + strings.Repeat("\x00", 16)), // unknown version
		frame("\x02" + id),                              // shorter than the header
		frame("\x02" + id + "\x00\x00\x00\xff" + "sfa.Ping" + strings.Repeat("\x00", 12)), // method past the end
		frame("\x02" + id + strings.Repeat("\x00", 12) + "\xff\xff\xff\xff"),              // params past the end
	} {
		if _, err := ReadFrame(bytes.NewReader(raw)); err == nil || !strings.HasPrefix(err.Error(), "sfa: decode:") {
			t.Errorf("%q: want an sfa: decode: error, got %v", raw, err)
		}
	}
}

// FuzzReadFrame feeds arbitrary bytes to ReadFrame: it must never panic,
// and any frame it accepts must re-encode through WriteFrame to exactly
// the bytes it consumed. The seed corpus lives in testdata/fuzz.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		env, err := ReadFrame(r)
		if err != nil {
			return
		}
		consumed := data[:len(data)-r.Len()]
		var buf bytes.Buffer
		if err := WriteFrame(&buf, env); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), consumed) {
			t.Fatalf("re-encoded %q, consumed %q", buf.Bytes(), consumed)
		}
	})
}

func TestCredentialRoundTrip(t *testing.T) {
	secret := []byte("shared-federation-root")
	c := IssueCredential(secret, "alice", "PLE", time.Minute)
	if err := c.Verify(secret, time.Now()); err != nil {
		t.Errorf("fresh credential rejected: %v", err)
	}
}

func TestCredentialExpiry(t *testing.T) {
	secret := []byte("s")
	c := IssueCredential(secret, "bob", "PLC", time.Second)
	if err := c.Verify(secret, time.Now().Add(time.Hour)); err == nil {
		t.Error("expired credential must fail")
	}
}

func TestCredentialTamper(t *testing.T) {
	secret := []byte("s")
	c := IssueCredential(secret, "bob", "PLC", time.Minute)
	c.Subject = "mallory"
	if err := c.Verify(secret, time.Now()); err == nil {
		t.Error("tampered subject must fail")
	}
	c2 := IssueCredential(secret, "bob", "PLC", time.Minute)
	if err := c2.Verify([]byte("other"), time.Now()); err == nil {
		t.Error("wrong secret must fail")
	}
	c3 := IssueCredential(secret, "bob", "PLC", time.Minute)
	c3.Signature = "zz not hex"
	if err := c3.Verify(secret, time.Now()); err == nil {
		t.Error("malformed signature must fail")
	}
}

func BenchmarkFrameRoundTrip(b *testing.B) {
	slivers := make([]SliverRecord, 120) // a plane CreateSlice response
	for i := range slivers {
		slivers[i] = SliverRecord{Authority: "PLE", SiteID: fmt.Sprintf("PLE-site%03d", i/2), NodeID: fmt.Sprintf("node%d", i%2)}
	}
	cases := []struct {
		name string
		env  *Envelope
	}{
		{"resources", &Envelope{ID: 7, Method: MethodListResources, Params: encodeBody(ResourceList{
			Authority: "PLE",
			Sites: []SiteResource{
				{SiteID: "s1", Name: "Site 1", Nodes: 2, Capacity: 20, Free: 10},
				{SiteID: "s2", Name: "Site 2", Nodes: 4, Capacity: 40, Free: 40},
			},
		})}},
		{"slice-120", &Envelope{ID: 7, Result: encodeBody(SliceResponse{Name: "s", Slivers: slivers, Sites: 60})}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := WriteFrame(&buf, c.env); err != nil {
					b.Fatal(err)
				}
				if _, err := ReadFrame(&buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestReadFrameArbitraryBytes feeds random byte streams to ReadFrame: it
// must return an error or a message, never panic, and never allocate beyond
// the frame cap.
func TestReadFrameArbitraryBytes(t *testing.T) {
	f := func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ReadFrame panicked on %x: %v", raw, r)
			}
		}()
		_, _ = ReadFrame(bytes.NewReader(raw))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestServerSurvivesGarbageConnection opens raw TCP connections that write
// junk — an impossible length, a frame of the JSON-envelope format and a
// version-1 frame — and verifies the server counts a protocol error, drops
// each such connection and keeps serving other clients.
func TestServerSurvivesGarbageConnection(t *testing.T) {
	srv, reg := startMetricServer(t, "PLC", 1)
	proto := reg.Counter("fedshare_sfa_protocol_errors_total", "")
	for i, junk := range [][]byte{
		{0xFF, 0xFF, 0xFF, 0xFF, 0x00},
		frame(`{"id":1,"method":"sfa.Ping"}`),
		[]byte(v1Request),
	} {
		raw, err := netDial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		if _, err := raw.Write(junk); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "protocol error counter", func() bool { return proto.Value() == int64(i+1) })
		_ = raw.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := raw.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("%q: read after junk = %v, want EOF", junk, err)
		}
		// A well-behaved client still works.
		c := dialServer(t, srv)
		if err := c.Call(MethodPing, nil, nil); err != nil {
			t.Errorf("ping after garbage peer: %v", err)
		}
	}
}

// TestMalformedBodyKeepsConnection writes raw frames whose bodies do not
// decode over one connection: text, a JSON body as version-1 frames
// carried, a string that is not UTF-8, and params for a method that takes
// none. ReadFrame leaves bodies to their consumer, so each must still be
// refused with an error reply, and the connection, whose stream stays in
// sync, must go on serving.
func TestMalformedBodyKeepsConnection(t *testing.T) {
	srv, reg := startMetricServer(t, "PLC", 1)
	conn, err := netDial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	for i, tc := range []struct{ method, params, wantErr string }{
		{MethodReserve, "not json", "bad reserve request"},
		{MethodPing, "", ""},
		{MethodReserve, `{"slice_name":"s","sites":1,"per":1}`, "bad reserve request"},
		{MethodDeleteSlice, string(encodeBody(DeleteRequest{Name: "\xff"})), "not valid UTF-8"},
		{MethodListResources, "{{", "bad sfa.ListResources request"},
		{MethodPing, "", ""},
	} {
		id := uint64(i + 1)
		if err := WriteFrame(conn, &Envelope{ID: id, Method: tc.method, Params: []byte(tc.params)}); err != nil {
			t.Fatal(err)
		}
		resp, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("%s %q: %v", tc.method, tc.params, err)
		}
		if resp.ID != id || !strings.Contains(resp.Error, tc.wantErr) || (tc.wantErr == "") != (resp.Error == "") {
			t.Errorf("%s %q: reply %+v, want ID %d and error %q", tc.method, tc.params, resp, id, tc.wantErr)
		}
	}
	if n := reg.Counter("fedshare_sfa_protocol_errors_total", "").Value(); n != 0 {
		t.Errorf("%d protocol errors for well-framed requests", n)
	}
}

// TestOversizedResponseIsFinal: a response too large for a frame becomes an
// error reply naming the size and the limit, counted by method, so the
// client neither loses its connection nor executes the request again.
func TestOversizedResponseIsFinal(t *testing.T) {
	a := planetlab.NewAuthority("PLC")
	long := strings.Repeat("x", MaxFrameSize/4) // five sites overflow a frame
	for s := 0; s < 5; s++ {
		site := &planetlab.Site{ID: fmt.Sprintf("s%d", s), Name: long, Nodes: []planetlab.Node{{ID: "n", Capacity: 1}}}
		if err := a.AddSite(site); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	c := dialServer(t, startServer(t, a, WithMetrics(reg)))
	var rl ResourceList
	err := c.Call(MethodListResources, nil, &rl)
	var remote *RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, fmt.Sprintf("%d-byte frame limit", MaxFrameSize)) {
		t.Fatalf("err = %v, want a remote error naming the frame limit", err)
	}
	if n := counterValue(reg, "fedshare_sfa_requests_total", MethodListResources); n != 1 {
		t.Errorf("ListResources executed %d times", n)
	}
	if n := counterValue(reg, "fedshare_sfa_errors_total", MethodListResources); n != 1 {
		t.Errorf("ListResources errors_total = %d, want 1", n)
	}
	if err := c.Call(MethodPing, nil, nil); err != nil {
		t.Fatalf("ping after an oversized response: %v", err)
	}
	if st := c.Stats(); st.Dials != 1 || st.Retries != 0 {
		t.Errorf("stats = %+v, want 1 dial and 0 retries", st)
	}
}
