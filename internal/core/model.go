// Package core implements the paper's primary contribution: the economic
// model of federated virtualized infrastructures (Sec. 2) and the federation
// game built on it (Sec. 3). A Model couples the facilities' contributions
// (locations L_i, per-location resources R_i, availability T_i) with a
// demand workload; its characteristic function V(S) is the maximum total
// utility coalition S can serve, computed by the allocation engine. Sharing
// policies — Shapley, availability-proportional, consumption-proportional,
// equal split, nucleolus — divide V(N) among the facilities.
package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"fedshare/internal/allocation"
	"fedshare/internal/coalition"
	"fedshare/internal/combin"
	"fedshare/internal/economics"
	"fedshare/internal/stats"
)

// Facility is one resource provider (a PlanetLab regional authority, a
// testbed, a cloud region).
type Facility struct {
	Name string
	// Locations is L_i: the number of distinct locations the facility
	// contributes.
	Locations int
	// Resources is R_i: the resource units (slots for concurrent
	// experiments) available at each of its locations.
	Resources float64
	// Availability is T_i ∈ (0, 1]; 0 means "use the default of 1"
	// (the paper's analysis assumption).
	Availability float64
	// Users is U_i, the facility's affiliated user population (P2P
	// scenario bookkeeping; not used by the commercial value function).
	Users int
}

func (f Facility) availability() float64 {
	if f.Availability == 0 {
		return 1
	}
	return f.Availability
}

// EffectiveCapacity returns R_i·T_i, the capacity the facility actually
// offers per location.
func (f Facility) EffectiveCapacity() float64 {
	return f.Resources * f.availability()
}

// Validate checks the facility definition.
func (f Facility) Validate() error {
	if f.Locations < 0 {
		return fmt.Errorf("core: facility %s has negative locations", f.Name)
	}
	if f.Resources < 0 {
		return fmt.Errorf("core: facility %s has negative resources", f.Name)
	}
	if math.IsNaN(f.Resources) {
		return fmt.Errorf("core: facility %s has NaN resources", f.Name)
	}
	if !(f.Availability >= 0 && f.Availability <= 1) {
		return fmt.Errorf("core: facility %s availability %g outside [0,1]", f.Name, f.Availability)
	}
	return nil
}

// Model is the federation game instance: who contributes what, and what the
// demand looks like. NewModel builds it once: the facilities, demand and
// overlap are not changed after the model is first valued (a different
// federation is a model of its own), and Mu and Overlap are set, if at all,
// before then.
type Model struct {
	Facilities []Facility
	Demand     *economics.Workload
	// Mu is the market conversion from utility to profit (µ ≤ 1 in the
	// paper); 0 means 1.
	Mu float64
	// Overlap, when non-nil, maps each facility to the explicit set of
	// location identifiers it covers (Sec. 2.1's overlap model o_ij).
	// When nil, facilities cover pairwise-disjoint locations, which is
	// the paper's setting for all numerical figures.
	Overlap [][]int

	// reqs is the demand expanded into allocation requests, once, by
	// NewModel: every coalition's solve reads it.
	reqs []allocation.Request
	// The dense coalition table and the grand coalition's allocation are
	// each filled once, on first use, so concurrent sweep workers can
	// share a model. The grand Result is read by the table's V(N),
	// GrandValue and ConsumptionByFacility.
	tableOnce sync.Once
	table     *coalition.Table
	tableErr  error
	grandOnce sync.Once
	grand     *allocation.Result
}

// MaxFacilities bounds federation size. The dense coalition table stops at
// coalition.Snapshot's 24-player bound and overlap models at the
// combin.MaxPlayers (64) bitmask bound; beyond those every computation runs
// through the member-list tier (ValueMembers, coalition.Values), which has
// no representational limit — the bound exists only to catch absurd
// configurations early.
const MaxFacilities = 4096

// NewModel validates and builds a federation model.
func NewModel(facilities []Facility, demand *economics.Workload) (*Model, error) {
	if len(facilities) == 0 {
		return nil, fmt.Errorf("core: federation needs at least one facility")
	}
	if len(facilities) > MaxFacilities {
		return nil, fmt.Errorf("core: at most %d facilities supported", MaxFacilities)
	}
	for _, f := range facilities {
		if err := f.Validate(); err != nil {
			return nil, err
		}
	}
	if demand == nil {
		demand = &economics.Workload{}
	}
	return &Model{Facilities: facilities, Demand: demand, reqs: expandDemand(demand)}, nil
}

// WithOverlap samples an overlap structure: each facility covers L_i
// distinct locations drawn uniformly from a universe of the given size, so
// the pairwise overlap probability o_ij is governed by universe size
// (independent placement, as the paper suggests for simplicity). It returns
// the model for chaining and is deterministic given the rng. Call it before
// the model is first valued.
func (m *Model) WithOverlap(universe int, rng *stats.Rand) (*Model, error) {
	if m.N() > combin.MaxPlayers {
		return nil, fmt.Errorf("core: overlap models are limited to %d facilities (the coalition bitmask bound); have %d",
			combin.MaxPlayers, m.N())
	}
	for _, f := range m.Facilities {
		if f.Locations > universe {
			return nil, fmt.Errorf("core: facility %s has %d locations, universe only %d",
				f.Name, f.Locations, universe)
		}
	}
	m.Overlap = make([][]int, len(m.Facilities))
	for i, f := range m.Facilities {
		perm := rng.Perm(universe)
		ids := append([]int(nil), perm[:f.Locations]...)
		m.Overlap[i] = ids
	}
	return m, nil
}

// muFactor returns the profit conversion factor.
func (m *Model) muFactor() float64 {
	if m.Mu == 0 {
		return 1
	}
	return m.Mu
}

// N returns the number of facilities.
func (m *Model) N() int { return len(m.Facilities) }

// class returns facility i's location class: L_i locations of capacity
// R_i·T_i.
func (m *Model) class(i int) allocation.Class {
	f := &m.Facilities[i]
	return allocation.Class{Label: f.Name, Count: f.Locations, Capacity: f.EffectiveCapacity()}
}

// ownerWeight attributes a pool class to contributing facilities.
type ownerWeight struct {
	facility int
	frac     float64
}

// pooling couples an allocation pool with the attribution of each class's
// consumption back to facilities.
type pooling struct {
	pool   allocation.Pool
	owners [][]ownerWeight // per class
}

// attribute splits a per-class quantity among the n facilities by each
// class's owner weights.
func (p pooling) attribute(perClass []float64, n int) []float64 {
	out := make([]float64, n)
	for c, v := range perClass {
		for _, ow := range p.owners[c] {
			out[ow.facility] += v * ow.frac
		}
	}
	return out
}

// poolFor builds the location pool coalition s covers in an overlap
// model: locations are grouped by the exact subset of coalition members
// covering them, and capacities add where facilities overlap.
func (m *Model) poolFor(s combin.Set) pooling {
	cover := map[int]combin.Set{}
	for _, i := range s.Members() {
		for _, loc := range m.Overlap[i] {
			cover[loc] = cover[loc].With(i)
		}
	}
	classCount := map[combin.Set]int{}
	for _, owners := range cover {
		classCount[owners]++
	}
	// Emit the owner classes in descending mask order, so the pool does
	// not depend on map iteration order.
	classes := make([]combin.Set, 0, len(classCount))
	for owners := range classCount {
		classes = append(classes, owners)
	}
	slices.Sort(classes)
	slices.Reverse(classes)
	var p pooling
	for _, owners := range classes {
		capacity := 0.0
		for _, i := range owners.Members() {
			capacity += m.Facilities[i].EffectiveCapacity()
		}
		var ow []ownerWeight
		for _, i := range owners.Members() {
			frac := 0.0
			if capacity > 0 {
				frac = m.Facilities[i].EffectiveCapacity() / capacity
			}
			ow = append(ow, ownerWeight{facility: i, frac: frac})
		}
		p.pool.Classes = append(p.pool.Classes, allocation.Class{
			Label:    owners.String(),
			Count:    classCount[owners],
			Capacity: capacity,
		})
		p.owners = append(p.owners, ow)
	}
	return p
}

// expandDemand expands the demand workload into allocation requests,
// sized up front: every sweep point builds a model and expands its
// workload once. (A workload built without NewWorkload may hold a
// negative count, which expands to nothing.)
func expandDemand(demand *economics.Workload) []allocation.Request {
	reqs := make([]allocation.Request, 0, max(demand.Total(), 0))
	for _, class := range demand.Classes {
		t := class.Type
		maxLoc := 0 // unbounded
		if !math.IsInf(t.MaxLocations, 1) {
			maxLoc = economics.LocationCount(math.Floor(t.MaxLocations))
		}
		for k := 0; k < class.Count; k++ {
			reqs = append(reqs, allocation.Request{
				Min:       t.Utility().Threshold(),
				Max:       maxLoc,
				Shape:     t.Shape,
				Resources: t.Resources,
				Label:     t.Name,
			})
		}
	}
	return reqs
}

// value is the characteristic function over a coalition bitmask, the
// filler of the model's table: the profit coalition s can generate by
// optimally serving the demand with its pooled resources
// (P = µ·Σ_k u_k(x_k), Sec. 3.1). The full set reads the grand
// coalition's allocation; a disjoint-coverage model solves its members'
// pool in ascending order, as ValueMembers of the ascending member list.
func (m *Model) value(s combin.Set) float64 {
	if s.IsEmpty() {
		return 0
	}
	if m.N() <= combin.MaxPlayers && s == combin.Full(m.N()) {
		return m.GrandValue()
	}
	if m.Overlap != nil {
		return m.muFactor() * allocation.Solve(m.poolFor(s).pool, m.reqs).Utility
	}
	var buf [combin.MaxPlayers]int
	members := buf[:0]
	for i := range m.Facilities {
		if s.Contains(i) {
			members = append(members, i)
		}
	}
	return m.solveMembers(members)
}

// solveMembers values a disjoint-coverage pool: one class per member with
// locations, in the order given, with no ownership attribution, which no
// coalition value reads. The class slice comes from a scratch pool — the
// solver reads it and never retains it.
func (m *Model) solveMembers(members []int) float64 {
	scratch := classScratchPool.Get().(*[]allocation.Class)
	classes := (*scratch)[:0]
	for _, i := range members {
		if m.Facilities[i].Locations > 0 {
			classes = append(classes, m.class(i))
		}
	}
	res := allocation.Solve(allocation.Pool{Classes: classes}, m.reqs)
	*scratch = classes
	classScratchPool.Put(scratch)
	return m.muFactor() * res.Utility
}

// classScratchPool recycles the per-coalition class slices solveMembers
// builds.
var classScratchPool = sync.Pool{New: func() any { return new([]allocation.Class) }}

// ValueMembers is the characteristic function over an explicit member list
// (coalition.MemberGame). It is exactly the table's V(S) for the coalition
// S listing the given facilities, but free of the 64-facility bitmask
// bound; the sampling Shapley engines walk permutation prefixes through
// it. Disjoint-coverage models build the pool straight from the member
// list, one class per member in the order given; overlap models — which
// WithOverlap keeps within the bitmask bound — value the member set.
//
// Member order is part of the pool. The d = 1 engine reads only a
// capacity histogram, so its result is the same for every order; the
// greedy engine is a heuristic whose Utility can change with class order
// (in about 1 of 60,000 random pools). The table and the grand coalition
// solve in facility order, the prefix walkers in walk order.
func (m *Model) ValueMembers(members []int) float64 {
	if len(members) == 0 {
		return 0
	}
	if m.Overlap != nil {
		var s combin.Set
		for _, i := range members {
			s = s.With(i)
		}
		return m.value(s)
	}
	return m.solveMembers(members)
}

// classSignature is the interchangeability key of a facility: two
// facilities with equal signatures contribute identically to every
// coalition value, so they are symmetric players of the federation game.
// Name and Users are deliberately excluded — the unweighted game's V(S)
// never reads them.
type classSignature struct {
	locations    int
	resources    float64
	availability float64
}

// ClassStructure detects the model's interchangeable-facility structure for
// the symmetry-collapsing Shapley engines (coalition.ClassStructured). It
// returns nil for overlap models: there, facilities with equal parameters
// still cover different concrete locations, so they are not symmetric.
//
// The collapsed characteristic function solves one aggregated pool class
// per template j — Count = c_j·L_j locations of capacity R_j·T_j — straight
// through allocation.Solve. Merging is exact: a template's replicas would
// sit next to each other in a per-replica pool, so the greedy engine sees
// the same location sequence with the same capacities, and the d = 1
// engine sees the same capacity histogram; only Utility is read.
// Its batched evaluator (Prefix) is the one Model.PrefixValuer uses, over
// one class per template — L_j locations of capacity R_j·T_j — in
// template order. A replica of template j extends the pool by class j
// again, which adds the locations the merged class gains; certification
// depends only on the classes added, so the evaluator certifies exactly
// the count vectors the solver's fast path or abundant repair values, and
// never solves. Certification is monotone along a walk, so the evaluator
// values a walk's leading steps and the sampler sends every later step to
// the count-vector memo of coalition.ClassStructure.MemberGame, the one
// cache on this path.
func (m *Model) ClassStructure() *coalition.ClassStructure {
	if m.Overlap != nil {
		return nil
	}
	classIdx := map[classSignature]int{}
	classOf := make([]int, m.N())
	var mult []int
	var reps []int // representative facility per class
	for i, f := range m.Facilities {
		sig := classSignature{
			locations:    f.Locations,
			resources:    f.Resources,
			availability: f.availability(),
		}
		j, ok := classIdx[sig]
		if !ok {
			j = len(mult)
			classIdx[sig] = j
			mult = append(mult, 0)
			reps = append(reps, i)
		}
		classOf[i] = j
		mult[j]++
	}
	tmpl := make([]allocation.Class, len(reps)) // template j's class: facility reps[j]'s
	for j, i := range reps {
		tmpl[j] = m.class(i)
	}
	return &coalition.ClassStructure{
		Mult:    mult,
		ClassOf: classOf,
		Value: func(counts []int) float64 {
			classes := make([]allocation.Class, 0, len(counts))
			for j, c := range counts {
				if cl := tmpl[j]; c > 0 && cl.Count > 0 {
					cl.Count *= c
					classes = append(classes, cl)
				}
			}
			res := allocation.Solve(allocation.Pool{Classes: classes}, m.reqs)
			return m.muFactor() * res.Utility
		},
		Prefix: func() coalition.ClassPrefix {
			if e := m.newPrefixEvaluator(tmpl); e != nil {
				return e
			}
			return nil // a nil *prefixEvaluator would be a non-nil ClassPrefix
		},
	}
}

// Table returns the model's dense coalition-value table, filled once
// (2^n evaluations on first call) and read by every exact engine: the
// lattice kernel behind coalition.Values, the nucleolus, Banzhaf, the
// weighted Shapley value and Analyze. value is safe for concurrent calls,
// so the snapshot shards the coalitions over every CPU with no locking
// wrapper between the table and the characteristic function. Models beyond
// coalition.Snapshot's 24-player bound are refused before anything is
// evaluated.
func (m *Model) Table() (*coalition.Table, error) {
	m.tableOnce.Do(func() {
		m.table, m.tableErr = coalition.Snapshot(m.N(), m.value, runtime.GOMAXPROCS(0))
	})
	return m.table, m.tableErr
}

// GrandValue is V(N), read from the grand coalition's allocation, so
// callers needing only V(N) never pay for a full snapshot.
func (m *Model) GrandValue() float64 {
	return m.muFactor() * m.grandResult().Utility
}

// ConsumptionByFacility attributes the grand coalition's consumed resource
// units to facilities (the numerator of ρ̂, eq. (7)).
func (m *Model) ConsumptionByFacility() []float64 {
	return m.grandPool().attribute(m.grandResult().ConsumedByClass, m.N())
}

// grandResult returns the grand coalition's allocation, solving it on
// first use; the Result is shared and read-only.
func (m *Model) grandResult() *allocation.Result {
	m.grandOnce.Do(func() {
		m.grand = allocation.Solve(m.grandPool().pool, m.reqs)
	})
	return m.grand
}

// grandPool builds the grand coalition's pooling. Disjoint models, which
// may pass the bitmask bound, give one class per facility with locations,
// owned by it alone, in facility order, as the table does; overlap models
// go through poolFor.
func (m *Model) grandPool() pooling {
	if m.Overlap != nil {
		return m.poolFor(combin.Full(m.N()))
	}
	var p pooling
	for i, f := range m.Facilities {
		if f.Locations > 0 {
			p.pool.Classes = append(p.pool.Classes, m.class(i))
			p.owners = append(p.owners, []ownerWeight{{facility: i, frac: 1}})
		}
	}
	return p
}
