package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Host-speed calibration. On a shared virtual machine the same code runs
// up to 2.4 times as slow, for seconds to minutes at a time, whenever the
// host is busier, which buries any change a bound of a few tenths could
// catch. So every timed sample — a set-up, a pass — is preceded by a fixed
// reference workload, and the sample is divided by how many times slower
// that reference ran than on a quiet host. The reference is code of the
// benchmark, not of the program, so a change to the program moves the
// scaled times as it moves the raw ones.
//
// The reference is a run of small round trips over loopback TCP: system
// calls, the network stack and goroutine wake-ups across both cores. On
// the reference host it tracked the slowdown of every workload's set-up,
// passes and operations better than CPU-bound kernels (sorting and map
// updates on both cores), alone or mixed with it: a busier host slows the
// wake-ups every workload waits on — engine hand-offs, sampler workers,
// every plane call — more than it slows straight-line code.
//
// Runs print the raw medians and the median slowdown next to the scaled
// metrics.

const (
	calRoundTrips = 1000
	calFrame      = 256 // bytes each way
)

// refRoundTrips is calRoundTrips' time on the reference host, a 2-vCPU
// virtual machine (Intel Xeon, 2.0 GHz): the fastest tenth of 300
// calibrations there. Scaled times are seconds on that host when quiet.
const refRoundTrips = 7800 * time.Microsecond

// calibrator runs the reference workload. It is not safe for concurrent
// use.
type calibrator struct {
	ln   net.Listener
	conn net.Conn
	echo sync.WaitGroup
	buf  []byte
}

// newCalibrator opens the loopback connection and starts its echo
// goroutine.
func newCalibrator() (*calibrator, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("calibration listener: %w", err)
	}
	c := &calibrator{ln: ln, buf: make([]byte, calFrame)}
	c.echo.Add(1)
	go func() {
		defer c.echo.Done()
		s, err := ln.Accept()
		if err != nil {
			return
		}
		defer s.Close()
		buf := make([]byte, calFrame)
		for {
			if _, err := io.ReadFull(s, buf); err != nil {
				return
			}
			if _, err := s.Write(buf); err != nil {
				return
			}
		}
	}()
	c.conn, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		c.close()
		return nil, fmt.Errorf("calibration dial: %w", err)
	}
	return c, nil
}

// close shuts the echo goroutine down and waits for it.
func (c *calibrator) close() {
	if c.conn != nil {
		c.conn.Close()
	}
	c.ln.Close()
	c.echo.Wait()
}

// slowdown runs the reference workload once and returns how many times
// slower than on the quiet reference host it ran.
func (c *calibrator) slowdown() (float64, error) {
	t0 := time.Now()
	for i := 0; i < calRoundTrips; i++ {
		if _, err := c.conn.Write(c.buf); err != nil {
			return 0, fmt.Errorf("calibration round trip: %w", err)
		}
		if _, err := io.ReadFull(c.conn, c.buf); err != nil {
			return 0, fmt.Errorf("calibration round trip: %w", err)
		}
	}
	return float64(time.Since(t0)) / float64(refRoundTrips), nil
}

// timings are a run's timed samples, raw and divided by the host slowdown
// measured just before each.
type timings struct {
	raw, norm, slow []float64
}

func (s *timings) add(raw, slowdown float64) {
	s.raw = append(s.raw, raw)
	s.norm = append(s.norm, raw/slowdown)
	s.slow = append(s.slow, slowdown)
}
