package sfa

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"fedshare/internal/stats"
)

// Client is a synchronous SFA protocol client. It is safe for concurrent
// use; calls are serialized over the single connection.
//
// The client is resilient by default: any transport error (dial, write,
// read, deadline, protocol violation) marks the connection broken so the
// next attempt redials a fresh one instead of reading a stale partial
// frame, and failed calls are retried with exponential backoff and
// deterministic jitter up to a per-call budget. Server-reported failures
// (*RemoteError) are returned immediately: the transport worked, so
// retrying would re-execute the request. The client judges no peer
// between calls: a coordinator's health tracker is its one failure
// detector.
type Client struct {
	cfg     ClientConfig
	metrics *clientMetrics

	mu     sync.Mutex
	conn   net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	nextID uint64
	rng    *stats.Rand
	stats  ClientStats
}

// ClientStats counts a client's fault-handling activity (also exported as
// obs counters, which aggregate over all clients sharing a registry).
type ClientStats struct {
	Dials   int64 // successful connections, including the first
	Redials int64 // successful connections after the first
	Retries int64 // attempts beyond the first, across all calls
	Shed    int64 // responses shed by a server admission gate (CodeOverloaded)
}

// NewClient builds a client from cfg without connecting; the first call
// dials lazily. Zero-valued config fields take defaults (see ClientConfig).
func NewClient(cfg ClientConfig) *Client {
	cfg = cfg.withDefaults()
	return &Client{
		cfg:     cfg,
		metrics: newClientMetrics(cfg.Registry),
		rng:     stats.NewRand(cfg.Seed),
	}
}

// Dial connects to an SFA registry eagerly, returning any dial error
// immediately. timeout bounds both the dial and each call round-trip.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	c := NewClient(ClientConfig{Addr: addr, DialTimeout: timeout, CallTimeout: timeout})
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureConn(); err != nil {
		return nil, err
	}
	return c, nil
}

// Stats returns a snapshot of the client's fault-handling counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ensureConn dials a fresh connection if none is live. Caller holds c.mu.
func (c *Client) ensureConn() error {
	if c.conn != nil {
		return nil
	}
	conn, err := c.cfg.DialFunc(c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("sfa: dial %s: %w", c.cfg.Addr, err)
	}
	c.conn = conn
	c.r = bufio.NewReader(conn)
	c.w = bufio.NewWriter(conn)
	c.stats.Dials++
	if c.stats.Dials > 1 {
		c.stats.Redials++
		c.metrics.redials.Inc()
	}
	return nil
}

// breakConn discards the connection after a transport error so no later
// call can read a stale partial frame from it. Caller holds c.mu.
func (c *Client) breakConn() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
		c.r = nil
		c.w = nil
	}
}

// Call sends one request and decodes the response into result (which may be
// nil to discard). params must be a message type (or nil) and result a
// pointer to one: any other type has no wire form and is refused before
// any dial. Server-side failures come back as *RemoteError without
// retry; transport failures are retried per the client's retry budget and
// surface the last error once the budget is exhausted. Two more failures
// are final: a request whose frame would exceed MaxFrameSize is refused
// before any dial or retry, and a result that fails to decode is returned
// at once, with no retry, since the request executed and a retry would
// execute it again.
//
// The mutex serializes only the wire round-trips: backoff sleeps happen
// with the lock released, so one call's backoff never blocks concurrent
// callers (or Close) for the duration of its retry schedule.
func (c *Client) Call(method string, params, result interface{}) error {
	_, err := c.call(method, params, result, c.cfg.MaxAttempts, nil)
	return err
}

// call is Call under a budget of attempts, which also reports whether its
// error is a transport failure, one in which the peer did not answer: a
// dial, write, read or deadline failure, a response under another
// request's ID, or a call that peer stopped. Every other error comes from
// a peer that answered (a remote error, a shed the budget could not get
// past, a result that does not decode) or that was never asked (a request
// refused before dialing). Peer health and reconcile replays count only
// transport failures.
//
// A non-nil peer is asked before each attempt, with the mutex held,
// whether the peer may still be called, and told each attempt's outcome
// before the mutex is released: DownAfter counts attempts however many
// calls share the client, and a down verdict stops the calls still
// waiting. A failure on a connection an earlier call left open is not told
// while a retry follows: the peer may only have restarted since.
func (c *Client) call(method string, params, result interface{}, attempts int, peer *peerGate) (bool, error) {
	req := &Envelope{Method: method}
	if params != nil {
		p, ok := params.(encodable)
		if !ok {
			return false, fmt.Errorf("sfa: %s params of type %T have no wire form", method, params)
		}
		req.Params = encodeBody(p)
	}
	var dst decodable
	if result != nil {
		d, ok := result.(decodable)
		if !ok {
			return false, fmt.Errorf("sfa: %s result of type %T has no wire form", method, result)
		}
		dst = d
	}
	if n := frameLen(req); n > MaxFrameSize {
		return false, fmt.Errorf("sfa: %s request of %d bytes exceeds the %d-byte frame limit", method, n, MaxFrameSize)
	}
	var lastErr error
	transport := false // whether lastErr is a transport failure
	for attempt := 1; attempt <= attempts; attempt++ {
		c.mu.Lock()
		if attempt > 1 {
			delay := backoffDelay(c.cfg.RetryBase, c.cfg.RetryMax, attempt-1, c.rng)
			c.mu.Unlock()
			c.cfg.Sleep(delay)
			c.mu.Lock()
		}
		if peer != nil {
			if err := peer.admit(); err != nil {
				c.mu.Unlock()
				return true, err
			}
		}
		if attempt > 1 {
			c.stats.Retries++
			c.metrics.retries.Inc()
		}
		reused := c.conn != nil
		resp, err := c.callOnce(req)
		if err != nil {
			lastErr, transport = err, true
			if peer != nil && (!reused || attempt == attempts) {
				peer.h.observe(peer.name, false)
			}
			c.mu.Unlock()
			continue
		}
		if peer != nil {
			peer.h.observe(peer.name, true)
		}
		if resp.Error != "" {
			remote := &RemoteError{Msg: resp.Error, Code: resp.Code}
			// An overload shed is the one remote error guaranteed
			// unexecuted — retry it with backoff; everything else was
			// executed and is returned immediately.
			if remote.Code == CodeOverloaded {
				c.stats.Shed++
				c.metrics.shed.Inc()
				lastErr, transport = remote, false
				c.mu.Unlock()
				continue
			}
			c.mu.Unlock()
			return false, remote
		}
		c.mu.Unlock()
		if dst != nil {
			if err := decodeBody(resp.Result, dst); err != nil {
				return false, fmt.Errorf("sfa: decode %s result: %w", method, err)
			}
		}
		return false, nil
	}
	return transport, lastErr
}

// callOnce performs one request/response round-trip under a fresh ID and
// returns the response frame. Any transport failure breaks the connection
// before returning. Caller holds c.mu.
func (c *Client) callOnce(req *Envelope) (*Envelope, error) {
	if err := c.ensureConn(); err != nil {
		return nil, err
	}
	c.nextID++
	req.ID = c.nextID
	deadline := time.Now().Add(c.cfg.CallTimeout)
	if err := c.conn.SetDeadline(deadline); err != nil {
		c.breakConn()
		return nil, fmt.Errorf("sfa: set deadline: %w", err)
	}
	if err := WriteFrame(c.w, req); err != nil {
		c.breakConn()
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		c.breakConn()
		return nil, fmt.Errorf("sfa: flush: %w", err)
	}
	resp, err := ReadFrame(c.r)
	if err != nil {
		c.breakConn()
		return nil, fmt.Errorf("sfa: read response: %w", err)
	}
	if resp.ID != req.ID {
		// A stale or corrupt frame: the stream is out of sync, so the
		// connection is unusable.
		c.breakConn()
		return nil, fmt.Errorf("sfa: response id %d for request %d", resp.ID, req.ID)
	}
	return resp, nil
}

// Close tears down the connection. The client stays usable: a later Call
// redials.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	c.r = nil
	c.w = nil
	return err
}
