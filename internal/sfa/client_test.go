package sfa

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedshare/internal/obs"
	"fedshare/internal/stats"
)

// frameServer is a scriptable SFA wire endpoint: each accepted connection is
// handed to handler together with its 1-based accept index, so tests can make
// the first connection misbehave and the second behave.
type frameServer struct {
	ln net.Listener
}

func newFrameServer(t *testing.T, handler func(conn net.Conn, idx int)) *frameServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		idx := 0
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			idx++
			go handler(conn, idx)
		}
	}()
	return &frameServer{ln: ln}
}

func (f *frameServer) addr() string { return f.ln.Addr().String() }

// echoFrames answers every request with an empty success result.
func echoFrames(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		env, err := ReadFrame(r)
		if err != nil {
			return
		}
		resp := &Envelope{ID: env.ID, Result: encodeBody(Empty{})}
		if WriteFrame(w, resp) != nil || w.Flush() != nil {
			return
		}
	}
}

// TestTimedOutCallRedialsCleanly is the connection-poisoning regression: the
// first call times out while the server is still composing its response; the
// old client kept the connection (and eventually the stale response bytes) in
// its buffered reader, corrupting the next call. The resilient client breaks
// the connection on timeout, so an immediate follow-up call succeeds over a
// fresh one.
func TestTimedOutCallRedialsCleanly(t *testing.T) {
	fs := newFrameServer(t, func(conn net.Conn, idx int) {
		if idx == 1 {
			// Too slow: respond only after the client's deadline, then the
			// stale bytes land on a connection the client must not reuse.
			defer conn.Close()
			r := bufio.NewReader(conn)
			env, err := ReadFrame(r)
			if err != nil {
				return
			}
			time.Sleep(300 * time.Millisecond)
			w := bufio.NewWriter(conn)
			_ = WriteFrame(w, &Envelope{ID: env.ID, Result: encodeBody(Empty{})})
			_ = w.Flush()
			return
		}
		echoFrames(conn)
	})
	c := NewClient(ClientConfig{
		Addr: fs.addr(), CallTimeout: 60 * time.Millisecond,
		MaxAttempts: 1, Registry: obs.NewRegistry(),
	})
	defer c.Close()
	if err := c.Call(MethodPing, nil, nil); err == nil {
		t.Fatal("first call should time out")
	}
	if err := c.Call(MethodPing, nil, nil); err != nil {
		t.Fatalf("follow-up call after timeout: %v (connection poisoned?)", err)
	}
	st := c.Stats()
	if st.Dials != 2 || st.Redials != 1 {
		t.Errorf("stats = %+v, want 2 dials / 1 redial", st)
	}
}

func TestRemoteErrorNotRetried(t *testing.T) {
	var served atomic.Int64
	fs := newFrameServer(t, func(conn net.Conn, idx int) {
		defer conn.Close()
		r := bufio.NewReader(conn)
		w := bufio.NewWriter(conn)
		for {
			env, err := ReadFrame(r)
			if err != nil {
				return
			}
			served.Add(1)
			_ = WriteFrame(w, &Envelope{ID: env.ID, Error: "boom"})
			if w.Flush() != nil {
				return
			}
		}
	})
	c := NewClient(ClientConfig{
		Addr: fs.addr(), MaxAttempts: 3, RetryBase: time.Millisecond,
		Registry: obs.NewRegistry(),
	})
	defer c.Close()
	err := c.Call(MethodPing, nil, nil)
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Msg != "boom" {
		t.Fatalf("err = %v, want RemoteError(boom)", err)
	}
	if n := served.Load(); n != 1 {
		t.Errorf("server executed the request %d times; remote errors must not be retried", n)
	}
	if st := c.Stats(); st.Retries != 0 {
		t.Errorf("stats = %+v, want 0 retries", st)
	}
}

func TestMismatchedResponseIDRetriesOnFreshConn(t *testing.T) {
	fs := newFrameServer(t, func(conn net.Conn, idx int) {
		if idx == 1 {
			defer conn.Close()
			r := bufio.NewReader(conn)
			w := bufio.NewWriter(conn)
			env, err := ReadFrame(r)
			if err != nil {
				return
			}
			// A desynchronized stream: wrong correlation ID.
			_ = WriteFrame(w, &Envelope{ID: env.ID + 999, Result: encodeBody(Empty{})})
			_ = w.Flush()
			return
		}
		echoFrames(conn)
	})
	c := NewClient(ClientConfig{
		Addr: fs.addr(), MaxAttempts: 2, RetryBase: time.Millisecond,
		Registry: obs.NewRegistry(),
	})
	defer c.Close()
	if err := c.Call(MethodPing, nil, nil); err != nil {
		t.Fatalf("call should recover on a fresh connection: %v", err)
	}
	st := c.Stats()
	if st.Retries != 1 || st.Redials != 1 {
		t.Errorf("stats = %+v, want 1 retry / 1 redial", st)
	}
}

func TestTransientDialFailuresRetried(t *testing.T) {
	fs := newFrameServer(t, func(conn net.Conn, idx int) { echoFrames(conn) })
	var dials atomic.Int64
	c := NewClient(ClientConfig{
		Addr: fs.addr(), MaxAttempts: 4, RetryBase: time.Millisecond,
		Registry: obs.NewRegistry(),
		DialFunc: func(addr string, timeout time.Duration) (net.Conn, error) {
			if dials.Add(1) <= 2 {
				return nil, errors.New("connection refused (simulated)")
			}
			return net.DialTimeout("tcp", addr, timeout)
		},
	})
	defer c.Close()
	if err := c.Call(MethodPing, nil, nil); err != nil {
		t.Fatalf("call should succeed on third dial: %v", err)
	}
	if st := c.Stats(); st.Retries != 2 || st.Dials != 1 {
		t.Errorf("stats = %+v, want 2 retries and 1 successful dial", st)
	}
}

func TestConcurrentCallersShareOneConnection(t *testing.T) {
	srv := startServer(t, buildAuthority(t, "PLC", 1, 1, 1), WithMetrics(obs.NewRegistry()))
	c := NewClient(ClientConfig{Addr: srv.Addr(), Registry: obs.NewRegistry()})
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 80)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				errs <- c.Call(MethodPing, nil, nil)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent call: %v", err)
		}
	}
	if st := c.Stats(); st.Dials != 1 || st.Retries != 0 {
		t.Errorf("stats = %+v, want exactly 1 dial and 0 retries", st)
	}
}

func TestBackoffDelayDeterministicAndBounded(t *testing.T) {
	base, max := 10*time.Millisecond, 80*time.Millisecond
	a, b := stats.NewRand(7), stats.NewRand(7)
	for attempt := 1; attempt <= 8; attempt++ {
		da := backoffDelay(base, max, attempt, a)
		db := backoffDelay(base, max, attempt, b)
		if da != db {
			t.Fatalf("attempt %d: %s vs %s — jitter not deterministic", attempt, da, db)
		}
		d := base
		for i := 1; i < attempt && d < max; i++ {
			d *= 2
		}
		if d > max {
			d = max
		}
		if da < d/2 || da >= d {
			t.Errorf("attempt %d: delay %s outside [%s, %s)", attempt, da, d/2, d)
		}
	}
}

// TestOversizedRequestRefusedBeforeDial: a request whose frame would exceed
// MaxFrameSize is final. It is refused before any dial or backoff, since no
// attempt could send it, and is not a transport failure.
func TestOversizedRequestRefusedBeforeDial(t *testing.T) {
	fs := newFrameServer(t, func(conn net.Conn, idx int) { echoFrames(conn) })
	var dials, sleeps atomic.Int64
	c := NewClient(ClientConfig{
		Addr: fs.addr(), MaxAttempts: 3, Registry: obs.NewRegistry(),
		DialFunc: func(addr string, timeout time.Duration) (net.Conn, error) {
			dials.Add(1)
			return net.DialTimeout("tcp", addr, timeout)
		},
		Sleep: func(time.Duration) { sleeps.Add(1) },
	})
	defer c.Close()
	transport, err := c.call(MethodRelease, ReleaseRequest{SliceName: strings.Repeat("x", MaxFrameSize)}, nil, c.cfg.MaxAttempts, nil)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d-byte frame limit", MaxFrameSize)) {
		t.Fatalf("err = %v, want the frame limit named", err)
	}
	if d, s := dials.Load(), sleeps.Load(); d != 0 || s != 0 {
		t.Errorf("%d dials and %d backoffs for a request that cannot be sent", d, s)
	}
	if st := c.Stats(); st.Retries != 0 {
		t.Errorf("stats = %+v, want 0 retries", st)
	}
	if transport {
		t.Error("an oversized request reported as a transport failure")
	}
}

// TestCallRefusesTypesWithoutWireForm: params or a result whose type has
// no body encoding is refused before any dial; a result must be a pointer
// to a message type.
func TestCallRefusesTypesWithoutWireForm(t *testing.T) {
	var dials atomic.Int64
	c := NewClient(ClientConfig{
		Addr: "127.0.0.1:1", Registry: obs.NewRegistry(),
		DialFunc: func(string, time.Duration) (net.Conn, error) {
			dials.Add(1)
			return nil, errors.New("dialed")
		},
	})
	for _, tc := range []struct{ params, result interface{} }{
		{map[string]int{"x": 1}, nil},
		{Empty{}, &map[string]int{}},
		{Empty{}, ReserveResponse{}},
	} {
		if err := c.Call(MethodReserve, tc.params, tc.result); err == nil || !strings.Contains(err.Error(), "no wire form") {
			t.Errorf("params %T, result %T: err = %v, want no wire form", tc.params, tc.result, err)
		}
	}
	if n := dials.Load(); n != 0 {
		t.Errorf("%d dials for calls that cannot be encoded", n)
	}
}

// TestUndecodableResultIsFinal: a result that does not decode came from a
// request that executed, so it is returned at once — no retry, not a
// transport failure — and the connection, whose stream stayed in sync, is
// kept.
func TestUndecodableResultIsFinal(t *testing.T) {
	var served atomic.Int64
	fs := newFrameServer(t, func(conn net.Conn, idx int) {
		defer conn.Close()
		r := bufio.NewReader(conn)
		w := bufio.NewWriter(conn)
		for {
			env, err := ReadFrame(r)
			if err != nil {
				return
			}
			served.Add(1)
			result := encodeBody(Empty{})
			if env.Method == MethodReserve {
				result = []byte("\x00\x00\x00\x07") // seven slivers, none sent
			}
			if WriteFrame(w, &Envelope{ID: env.ID, Result: result}) != nil || w.Flush() != nil {
				return
			}
		}
	})
	c := NewClient(ClientConfig{
		Addr: fs.addr(), MaxAttempts: 3, RetryBase: time.Millisecond,
		Registry: obs.NewRegistry(),
	})
	defer c.Close()
	var rr ReserveResponse
	transport, err := c.call(MethodReserve, ReserveRequest{SliceName: "s", Sites: 1, PerSite: 1}, &rr, c.cfg.MaxAttempts, nil)
	if err == nil || !strings.Contains(err.Error(), "decode") {
		t.Fatalf("err = %v, want a decode error", err)
	}
	if n := served.Load(); n != 1 {
		t.Errorf("an unkeyed reserve executed %d times", n)
	}
	if transport {
		t.Error("an undecodable result reported as a transport failure")
	}
	if err := c.Call(MethodPing, nil, nil); err != nil {
		t.Fatalf("ping after an undecodable result: %v", err)
	}
	if st := c.Stats(); st.Retries != 0 || st.Dials != 1 {
		t.Errorf("stats = %+v, want 0 retries over 1 dial", st)
	}
}
