// Package loss implements the statistical-multiplexing substrate of the
// paper: a loss-network simulation in which experiments arrive as Poisson
// streams, hold resources at a set of distinct locations for their holding
// time t, and are blocked when insufficient capacity is free (Sec. 2.2,
// Sec. 3.2.1 and the loss-network direction of Sec. 6).
//
// The headline use is quantifying how holding time drives super-additivity:
// the smaller the t's, the more multiplexing, and the more federation's
// pooled capacity outperforms isolated facilities.
package loss

import (
	"fmt"
	"math"
	"sort"

	"fedshare/internal/economics"
	"fedshare/internal/sim"
	"fedshare/internal/stats"
)

// Station is one location group in the loss network (a facility's
// contribution): Count locations with Capacity resource units each.
type Station struct {
	Label    string
	Count    int
	Capacity float64
}

// warmupFraction is the share of the horizon whose observations a run
// discards before measuring.
const warmupFraction = 0.2

// Config describes one simulation run.
type Config struct {
	Stations []Station
	Arrivals []economics.ArrivalSpec
	// Horizon is the simulated time span; observations in its first
	// warmupFraction are discarded.
	Horizon float64
	Seed    uint64
}

// Metrics is the outcome of a run.
type Metrics struct {
	// ValueRate is accepted utility per unit time after warmup — the
	// simulation analogue of V(S).
	ValueRate float64
	// Blocking maps each arrival class to its blocking probability.
	Blocking map[string]float64
	// Accepted and Offered count experiments after warmup.
	Accepted, Offered int
	// MeanOccupancy is the time-average fraction of total capacity in use.
	MeanOccupancy float64
}

// Simulate runs the loss network once.
func Simulate(cfg Config) (*Metrics, error) {
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("loss: horizon must be positive")
	}
	for _, s := range cfg.Stations {
		if s.Count < 0 || s.Capacity < 0 {
			return nil, fmt.Errorf("loss: invalid station %q", s.Label)
		}
	}
	for _, a := range cfg.Arrivals {
		if err := a.Validate(); err != nil {
			return nil, err
		}
	}

	rng := stats.NewRand(cfg.Seed)
	var eng sim.Engine
	warmT := warmupFraction * cfg.Horizon

	// Location state.
	var rem []float64
	totalCap := 0.0
	for _, s := range cfg.Stations {
		for i := 0; i < s.Count; i++ {
			rem = append(rem, s.Capacity)
			totalCap += s.Capacity
		}
	}
	L := len(rem)

	type classStat struct {
		offered, accepted int
	}
	classStats := make([]classStat, len(cfg.Arrivals))
	value := 0.0
	// Occupancy integral: Σ busy·dt.
	busy := 0.0
	busyIntegral := 0.0
	lastT := warmT

	noteOccupancy := func() {
		t := eng.Now()
		if t > lastT {
			busyIntegral += busy * (t - lastT)
			lastT = t
		}
	}

	admit := func(spec economics.ArrivalSpec) ([]int, int) {
		t := spec.Type
		u := t.Utility()
		minX := u.Threshold()
		maxX := L
		if !math.IsInf(t.MaxLocations, 1) {
			maxX = economics.LocationCount(math.Floor(t.MaxLocations))
			if maxX > L {
				maxX = L
			}
		}
		if minX > maxX {
			return nil, 0
		}
		// Candidate locations with room, preferring the fullest that still
		// fit (pack tight, keep slack for future arrivals).
		cands := make([]int, 0, L)
		for li, r := range rem {
			if r+1e-12 >= t.Resources {
				cands = append(cands, li)
			}
		}
		if len(cands) < minX || len(cands) == 0 {
			return nil, 0
		}
		sort.Slice(cands, func(a, b int) bool { return rem[cands[a]] < rem[cands[b]] })
		take := maxX
		if take > len(cands) {
			take = len(cands)
		}
		return cands[:take], take
	}

	// One arrival process per class.
	var scheduleArrival func(ci int)
	scheduleArrival = func(ci int) {
		spec := cfg.Arrivals[ci]
		if spec.Rate <= 0 {
			return
		}
		eng.Schedule(rng.ExpFloat64(spec.Rate), func() {
			if eng.Now() >= warmT {
				classStats[ci].offered++
			}
			locs, x := admit(spec)
			if x > 0 {
				noteOccupancy()
				res := spec.Type.Resources
				for _, li := range locs {
					rem[li] -= res
				}
				busy += float64(x) * res
				if eng.Now() >= warmT {
					classStats[ci].accepted++
					value += spec.Type.Utility().Eval(float64(x))
				}
				hold := spec.Type.HoldingTime
				eng.Schedule(hold, func() {
					noteOccupancy()
					for _, li := range locs {
						rem[li] += res
					}
					busy -= float64(x) * res
				})
			}
			scheduleArrival(ci)
		})
	}
	for ci := range cfg.Arrivals {
		scheduleArrival(ci)
	}

	eng.Run(cfg.Horizon)
	noteOccupancy()

	span := cfg.Horizon - warmT
	m := &Metrics{
		ValueRate: value / span,
		Blocking:  map[string]float64{},
	}
	for ci, cs := range classStats {
		m.Offered += cs.offered
		m.Accepted += cs.accepted
		b := 0.0
		if cs.offered > 0 {
			b = 1 - float64(cs.accepted)/float64(cs.offered)
		}
		m.Blocking[cfg.Arrivals[ci].Type.Name] = b
	}
	if totalCap > 0 && span > 0 {
		m.MeanOccupancy = busyIntegral / (totalCap * span)
	}
	return m, nil
}

// ErlangB returns the Erlang-B blocking probability for c servers offered
// load a = λ·t (dimensionless erlangs), computed by the numerically stable
// recurrence. c < 0 panics; c == 0 blocks everything.
func ErlangB(c int, a float64) float64 {
	if c < 0 {
		panic("loss: negative server count")
	}
	if a <= 0 {
		if c == 0 {
			return 1
		}
		return 0
	}
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b
}

// SuperadditivityGap runs the simulation once federated and once split into
// per-station isolated systems with demand divided evenly, returning
// (federated value rate) − Σ (isolated value rates). A positive gap is the
// multiplexing gain of federation.
func SuperadditivityGap(cfg Config) (float64, error) {
	fed, err := Simulate(cfg)
	if err != nil {
		return 0, err
	}
	isolated := 0.0
	n := len(cfg.Stations)
	if n == 0 {
		return 0, fmt.Errorf("loss: no stations")
	}
	for i, s := range cfg.Stations {
		sub := Config{
			Stations: []Station{s},
			Horizon:  cfg.Horizon,
			Seed:     cfg.Seed + uint64(i) + 1,
		}
		for _, a := range cfg.Arrivals {
			sub.Arrivals = append(sub.Arrivals, economics.ArrivalSpec{
				Type: a.Type,
				Rate: a.Rate / float64(n),
			})
		}
		m, err := Simulate(sub)
		if err != nil {
			return 0, err
		}
		isolated += m.ValueRate
	}
	return fed.ValueRate - isolated, nil
}
