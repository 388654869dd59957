package faultnet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"fedshare/internal/stats"
)

// Partition is an explicit network-partition gate for one logical link.
// Unlike the probabilistic write-op faults, a partition is a *stateful*
// condition: while cut, every tracked connection is severed and every new
// dial is refused, so the far side is unreachable for as long as the test
// wants — exactly the failure mode peer health tracking and anti-entropy
// reconciliation exist for. Cut and Heal are driven by the test (typically
// from a seeded schedule drawn with DrawPartitionPlan), which keeps chaos
// runs reproducible: the same seed cuts at the same operation counts.
type Partition struct {
	mu     sync.Mutex
	cut    bool
	cuts   int
	conns  map[*gateConn]struct{}
	events []string
}

// NewPartition returns a healed (connected) gate.
func NewPartition() *Partition {
	return &Partition{conns: map[*gateConn]struct{}{}}
}

// Dial connects through the gate; its signature matches
// sfa.ClientConfig.DialFunc. While the partition is cut, dials are refused
// with an error wrapping ErrInjected — a transport failure to the caller.
func (p *Partition) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	p.mu.Lock()
	if p.cut {
		p.events = append(p.events, fmt.Sprintf("cut%d:dial-refused", p.cuts))
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: dial %s refused: link partitioned", ErrInjected, addr)
	}
	p.mu.Unlock()
	inner, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	gc := &gateConn{Conn: inner, p: p}
	p.mu.Lock()
	if p.cut {
		// Cut raced the dial; the link must not leak through.
		p.events = append(p.events, fmt.Sprintf("cut%d:dial-refused", p.cuts))
		p.mu.Unlock()
		_ = inner.Close()
		return nil, fmt.Errorf("%w: dial %s refused: link partitioned", ErrInjected, addr)
	}
	p.conns[gc] = struct{}{}
	p.mu.Unlock()
	return gc, nil
}

// Cut severs the link: every tracked connection is closed and subsequent
// dials are refused until Heal. Idempotent.
func (p *Partition) Cut() {
	p.mu.Lock()
	if p.cut {
		p.mu.Unlock()
		return
	}
	p.cut = true
	p.cuts++
	conns := make([]*gateConn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.conns = map[*gateConn]struct{}{}
	p.events = append(p.events, fmt.Sprintf("cut%d:severed=%d", p.cuts, len(conns)))
	p.mu.Unlock()
	for _, c := range conns {
		_ = c.Conn.Close()
	}
}

// Heal reconnects the link: new dials succeed again. Idempotent.
func (p *Partition) Heal() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.cut {
		return
	}
	p.cut = false
	p.events = append(p.events, fmt.Sprintf("cut%d:healed", p.cuts))
}

// Severed reports whether the link is currently cut.
func (p *Partition) Severed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cut
}

// Events returns the gate's event log. For a serially-driven link the log
// is deterministic in the driving schedule.
func (p *Partition) Events() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.events...)
}

// gateConn is a tracked connection; Close untracks it so Cut only severs
// live connections.
type gateConn struct {
	net.Conn
	p *Partition
}

func (c *gateConn) Close() error {
	c.p.mu.Lock()
	delete(c.p.conns, c)
	c.p.mu.Unlock()
	return c.Conn.Close()
}

// PartitionWindow is one cut/heal cycle of a seeded partition schedule:
// the link stays up for UpOps operations, is cut for DownOps operations,
// then heals.
type PartitionWindow struct {
	UpOps   int
	DownOps int
}

// PartitionPlanConfig bounds the seeded schedule. Zero fields default to
// Windows 3, UpOps in [2, 5], DownOps in [1, 3].
type PartitionPlanConfig struct {
	Windows    int
	MinUpOps   int
	MaxUpOps   int
	MinDownOps int
	MaxDownOps int
}

func (c PartitionPlanConfig) withDefaults() PartitionPlanConfig {
	if c.Windows <= 0 {
		c.Windows = 3
	}
	if c.MinUpOps <= 0 {
		c.MinUpOps = 2
	}
	if c.MaxUpOps < c.MinUpOps {
		c.MaxUpOps = c.MinUpOps + 3
	}
	if c.MinDownOps <= 0 {
		c.MinDownOps = 1
	}
	if c.MaxDownOps < c.MinDownOps {
		c.MaxDownOps = c.MinDownOps + 2
	}
	return c
}

// DrawPartitionPlan draws a complete partition schedule from the seed. All
// randomness is consumed here, up front and in a fixed order, so the same
// (seed, cfg) pair always yields the identical schedule — the partition
// analogue of drawPlan.
func DrawPartitionPlan(seed uint64, cfg PartitionPlanConfig) []PartitionWindow {
	cfg = cfg.withDefaults()
	rng := stats.NewRand(seed)
	plan := make([]PartitionWindow, cfg.Windows)
	for i := range plan {
		plan[i].UpOps = cfg.MinUpOps + rng.Intn(cfg.MaxUpOps-cfg.MinUpOps+1)
		plan[i].DownOps = cfg.MinDownOps + rng.Intn(cfg.MaxDownOps-cfg.MinDownOps+1)
	}
	return plan
}
