package faultnet

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"time"
)

// echoListener accepts connections and echoes one byte back per byte read,
// so tests can prove a link actually carries traffic.
func echoListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 1)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
					if _, err := c.Write(buf); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return ln
}

func TestPartitionCutSeversAndRefusesDials(t *testing.T) {
	ln := echoListener(t)
	p := NewPartition()

	conn, err := p.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{42}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err != nil || buf[0] != 42 {
		t.Fatalf("echo before cut: %v %v", buf, err)
	}

	p.Cut()
	if !p.Severed() {
		t.Fatal("Severed() = false after Cut")
	}
	// The live connection is dead: the write or the following read fails.
	_, werr := conn.Write([]byte{1})
	var rerr error
	if werr == nil {
		_, rerr = conn.Read(buf)
	}
	if werr == nil && rerr == nil {
		t.Fatal("severed connection still carries traffic")
	}
	// New dials are refused with an injected-fault error.
	if _, err := p.Dial(ln.Addr().String(), time.Second); !errors.Is(err, ErrInjected) {
		t.Fatalf("dial during cut: err = %v, want ErrInjected", err)
	}

	p.Heal()
	if p.Severed() {
		t.Fatal("Severed() = true after Heal")
	}
	conn2, err := p.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	defer conn2.Close()
	if _, err := conn2.Write([]byte{7}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn2.Read(buf); err != nil || buf[0] != 7 {
		t.Fatalf("echo after heal: %v %v", buf, err)
	}

	events := p.Events()
	want := []string{"cut1:severed=1", "cut1:dial-refused", "cut1:healed"}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("events = %v, want %v", events, want)
	}
}

func TestPartitionCutHealIdempotent(t *testing.T) {
	p := NewPartition()
	p.Heal() // healing a healed gate is a no-op
	p.Cut()
	p.Cut() // cutting a cut gate is a no-op
	p.Heal()
	p.Cut()
	p.Heal()
	want := []string{"cut1:severed=0", "cut1:healed", "cut2:severed=0", "cut2:healed"}
	if got := p.Events(); !reflect.DeepEqual(got, want) {
		t.Errorf("events = %v, want %v", got, want)
	}
}

func TestPartitionPlanDeterministicForSeed(t *testing.T) {
	cfg := PartitionPlanConfig{Windows: 6}
	a := DrawPartitionPlan(99, cfg)
	b := DrawPartitionPlan(99, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed drew different plans:\n%v\n%v", a, b)
	}
	c := DrawPartitionPlan(100, cfg)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds drew identical plans (suspicious)")
	}
	for i, w := range a {
		if w.UpOps < 2 || w.UpOps > 5 {
			t.Errorf("window %d UpOps = %d outside default [2,5]", i, w.UpOps)
		}
		if w.DownOps < 1 || w.DownOps > 3 {
			t.Errorf("window %d DownOps = %d outside default [1,3]", i, w.DownOps)
		}
	}
}
