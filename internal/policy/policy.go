// Package policy implements the decision stage of the federation game
// (Sec. 3.3 and Fig 3 of the paper): given an agreed sharing rule, each
// facility chooses how much to contribute by trading the extra profit
// against its provision cost. The package provides payoff evaluation,
// best-response dynamics, equilibrium search, and the threshold-jump
// analysis behind the paper's Fig 9 stability caveat.
package policy

import (
	"fmt"
	"math"
	"slices"

	"fedshare/internal/core"
	"fedshare/internal/economics"
	"fedshare/internal/stats"
)

// Option is one provision level a facility may choose.
type Option struct {
	Locations int
	Resources float64
}

// Player couples a facility's strategy space with its cost model.
type Player struct {
	// Options are the provision levels available (e.g. a grid of location
	// counts). Must be nonempty.
	Options []Option
	// Cost maps a chosen option to provision cost (evaluated as
	// Cost.Eval(locations, resources, availability)).
	Cost economics.Cost
}

// Dynamics runs best-response dynamics over provision choices.
type Dynamics struct {
	// Model is the base federation. Each choice profile is valued on a
	// model of its own: the base's facilities with the chosen options.
	Model   *core.Model
	Players []Player
	Policy  core.Policy
	// Choice[i] is player i's current option index.
	Choice []int
}

// NewDynamics validates and builds a dynamics instance; players' initial
// choices default to option 0.
func NewDynamics(m *core.Model, players []Player, p core.Policy) (*Dynamics, error) {
	if len(players) != m.N() {
		return nil, fmt.Errorf("policy: %d players for %d facilities", len(players), m.N())
	}
	for i, pl := range players {
		if len(pl.Options) == 0 {
			return nil, fmt.Errorf("policy: player %d has no options", i)
		}
		for _, o := range pl.Options {
			if o.Locations < 0 || o.Resources < 0 {
				return nil, fmt.Errorf("policy: player %d has negative option", i)
			}
		}
	}
	return &Dynamics{
		Model:   m,
		Players: players,
		Policy:  p,
		Choice:  make([]int, len(players)),
	}, nil
}

// profile builds the model of the current choice profile: the base
// model's facilities with every player's chosen option written in.
func (d *Dynamics) profile() (*core.Model, error) {
	fs := slices.Clone(d.Model.Facilities)
	for i, ci := range d.Choice {
		o := d.Players[i].Options[ci]
		fs[i].Locations = o.Locations
		fs[i].Resources = o.Resources
	}
	m, err := core.NewModel(fs, d.Model.Demand)
	if err != nil {
		return nil, err
	}
	m.Mu, m.Overlap = d.Model.Mu, d.Model.Overlap
	return m, nil
}

// Payoffs returns every player's net payoff (share of V(N) minus provision
// cost) at the current choice profile.
func (d *Dynamics) Payoffs() ([]float64, error) {
	m, err := d.profile()
	if err != nil {
		return nil, err
	}
	profits, err := core.Profits(m, d.Policy)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(profits))
	for i, p := range profits {
		o := d.Players[i].Options[d.Choice[i]]
		f := m.Facilities[i]
		avail := f.Availability
		if avail == 0 {
			avail = 1
		}
		out[i] = p - d.Players[i].Cost.Eval(float64(o.Locations), o.Resources, avail)
	}
	return out, nil
}

// BestResponse moves player i to its payoff-maximizing option holding
// everyone else fixed. It reports whether the choice changed.
func (d *Dynamics) BestResponse(i int) (bool, error) {
	if i < 0 || i >= len(d.Players) {
		return false, fmt.Errorf("policy: player %d out of range", i)
	}
	orig := d.Choice[i]
	bestIdx, bestPay := orig, math.Inf(-1)
	for ci := range d.Players[i].Options {
		d.Choice[i] = ci
		pays, err := d.Payoffs()
		if err != nil {
			d.Choice[i] = orig
			return false, err
		}
		if pays[i] > bestPay+1e-9 {
			bestPay = pays[i]
			bestIdx = ci
		}
	}
	d.Choice[i] = bestIdx
	return bestIdx != orig, nil
}

// Equilibrium is the outcome of best-response dynamics.
type Equilibrium struct {
	// Converged reports whether a fixed point was reached.
	Converged bool
	// Rounds is the number of full sweeps performed.
	Rounds int
	// Choice is the final option index per player.
	Choice []int
	// Payoffs are the final net payoffs.
	Payoffs []float64
}

// Run sweeps best responses round-robin until no player moves or maxRounds
// is exhausted.
func (d *Dynamics) Run(maxRounds int) (*Equilibrium, error) {
	if maxRounds <= 0 {
		maxRounds = 50
	}
	rounds := 0
	for ; rounds < maxRounds; rounds++ {
		moved := false
		for i := range d.Players {
			changed, err := d.BestResponse(i)
			if err != nil {
				return nil, err
			}
			moved = moved || changed
		}
		if !moved {
			pays, err := d.Payoffs()
			if err != nil {
				return nil, err
			}
			return &Equilibrium{
				Converged: true,
				Rounds:    rounds + 1,
				Choice:    append([]int(nil), d.Choice...),
				Payoffs:   pays,
			}, nil
		}
	}
	pays, err := d.Payoffs()
	if err != nil {
		return nil, err
	}
	return &Equilibrium{
		Converged: false,
		Rounds:    rounds,
		Choice:    append([]int(nil), d.Choice...),
		Payoffs:   pays,
	}, nil
}

// Jump is a detected discontinuity in an incentive curve.
type Jump struct {
	X     float64 // sweep value where the jump lands
	Delta float64 // payoff change across one grid step
}

// Jumps scans a profit-versus-provision series for steps whose magnitude
// exceeds frac times the series' total range — the "powerful incentives
// around threshold points" instability the paper flags for the Shapley rule
// (Sec. 4.4).
func Jumps(s stats.Series, frac float64) []Jump {
	if len(s.Points) < 2 || frac <= 0 {
		return nil
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range s.Points {
		lo = math.Min(lo, p.Y)
		hi = math.Max(hi, p.Y)
	}
	span := hi - lo
	if span == 0 {
		return nil
	}
	var jumps []Jump
	for i := 1; i < len(s.Points); i++ {
		d := s.Points[i].Y - s.Points[i-1].Y
		if math.Abs(d) >= frac*span {
			jumps = append(jumps, Jump{X: s.Points[i].X, Delta: d})
		}
	}
	return jumps
}
