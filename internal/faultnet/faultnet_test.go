package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"fedshare/internal/stats"
)

// pipeConns returns both ends of an in-memory connection.
func pipeConns() (net.Conn, net.Conn) {
	return net.Pipe()
}

func TestPlanDeterministicForSeed(t *testing.T) {
	cfg := Config{
		Seed: 42, PDrop: 0.1, PPartial: 0.1, PCorrupt: 0.1, PDropResponse: 0.1,
		PLatency: 0.2, MaxLatency: time.Millisecond, PlannedWrites: 64,
	}
	a := drawPlan(cfg, stats.NewRand(cfg.Seed))
	b := drawPlan(cfg, stats.NewRand(cfg.Seed))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan diverges at step %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A different seed gives a different plan (overwhelmingly likely for
	// 64 steps at these rates).
	c := drawPlan(cfg, stats.NewRand(cfg.Seed+1))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical plans")
	}
}

// forcedConn wraps one end of a pipe with a single-step plan.
func forcedConn(t *testing.T, kind Kind) (client *Conn, server net.Conn, events *[]string) {
	t.Helper()
	a, b := pipeConns()
	evs := &[]string{}
	c := &Conn{Conn: a, plan: []planStep{{kind: kind}}, record: func(ev string) { *evs = append(*evs, ev) }}
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	return c, b, evs
}

func TestDropClosesWithoutWriting(t *testing.T) {
	c, srv, evs := forcedConn(t, KindDrop)
	errc := make(chan error, 1)
	go func() {
		_, err := c.Write([]byte("hello"))
		errc <- err
	}()
	if err := <-errc; !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	_ = srv.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := srv.Read(make([]byte, 8)); err != io.EOF {
		t.Errorf("server read = %v, want EOF (nothing written)", err)
	}
	if len(*evs) != 1 || !strings.Contains((*evs)[0], "drop") {
		t.Errorf("events = %v", *evs)
	}
}

func TestPartialWriteTruncates(t *testing.T) {
	c, srv, _ := forcedConn(t, KindPartialWrite)
	payload := []byte("0123456789")
	go func() { _, _ = c.Write(payload) }()
	buf := make([]byte, 16)
	_ = srv.SetReadDeadline(time.Now().Add(time.Second))
	n, _ := srv.Read(buf)
	if n != len(payload)/2 || !bytes.Equal(buf[:n], payload[:n]) {
		t.Errorf("server saw %q, want first half of %q", buf[:n], payload)
	}
	// The rest never arrives: the conn is closed.
	if _, err := srv.Read(buf); err != io.EOF {
		t.Errorf("read after partial = %v, want EOF", err)
	}
}

func TestCorruptFlipsLengthHeader(t *testing.T) {
	c, srv, _ := forcedConn(t, KindCorrupt)
	payload := []byte{0x00, 0x00, 0x00, 0x05, 'h', 'e', 'l', 'l', 'o'}
	go func() {
		if _, err := c.Write(payload); err != nil {
			t.Errorf("corrupt write should report success: %v", err)
		}
	}()
	buf := make([]byte, 16)
	_ = srv.SetReadDeadline(time.Now().Add(time.Second))
	n, err := srv.Read(buf)
	if err != nil || n != len(payload) {
		t.Fatalf("read = %d, %v", n, err)
	}
	if buf[0] != 0x80 {
		t.Errorf("first byte = %#x, want 0x80 (top bit flipped)", buf[0])
	}
	if !bytes.Equal(buf[1:n], payload[1:]) {
		t.Errorf("rest of frame corrupted too: %q", buf[:n])
	}
}

func TestDropResponseDeliversThenCloses(t *testing.T) {
	c, srv, _ := forcedConn(t, KindDropResponse)
	payload := []byte("request")
	go func() {
		if _, err := c.Write(payload); err != nil {
			t.Errorf("drop-response write should succeed: %v", err)
		}
	}()
	buf := make([]byte, 16)
	_ = srv.SetReadDeadline(time.Now().Add(time.Second))
	n, err := srv.Read(buf)
	if err != nil || !bytes.Equal(buf[:n], payload) {
		t.Fatalf("server read = %q, %v", buf[:n], err)
	}
	// The client end is now closed: its reads fail, so the "response" is
	// lost from the client's point of view.
	_ = c.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := c.Read(buf); err == nil {
		t.Error("client read after drop-response should fail")
	}
}

func TestDialerEventLogDeterministic(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 64)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	run := func() []string {
		d := NewDialer(Config{Seed: 7, PDrop: 0.3, PlannedWrites: 16})
		for conn := 0; conn < 3; conn++ {
			c, err := d.Dial(ln.Addr().String(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				if _, err := c.Write([]byte("x")); err != nil {
					break // conn dropped; next conn
				}
			}
			_ = c.Close()
		}
		return d.Events()
	}
	a, b := run(), run()
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Errorf("event logs differ:\n%v\nvs\n%v", a, b)
	}
	if len(a) == 0 {
		t.Error("expected at least one injected fault at PDrop=0.3 over 24 writes")
	}
}
