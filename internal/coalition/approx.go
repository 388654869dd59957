package coalition

import (
	"fmt"

	"fedshare/internal/stats"
	"fedshare/internal/sweep"
)

// The stratified-permutation Shapley sampler.
//
// φ_i is the expected marginal contribution of player i over a uniformly
// random ordering (eq. (4) of the paper). One sampled ordering yields a
// marginal for *every* player from n characteristic-function evaluations
// (each prefix value is reused as the next marginal's base), so a
// permutation is the natural sample unit. Three variance reductions are
// layered on top of the plain estimator:
//
//   - antithetic pairing: each sampled ordering π is evaluated together
//     with its reversal; for the monotone games the federation model
//     produces, early and late marginals are negatively correlated, so the
//     pair average has lower variance than two independent orderings. The
//     pair average is treated as ONE observation, keeping the confidence
//     intervals honest about the correlation.
//   - first-element stratification: sampling proceeds in blocks of n
//     antithetic pairs whose leading player cycles deterministically
//     through the player set, so the position-0 stratum is sampled by
//     exact proportional allocation instead of multinomially.
//   - group pooling: interchangeable players (see ClassStructure) share
//     one estimator; their per-ordering marginals are averaged into a
//     single observation, dividing the sampling noise of a class of m
//     players by up to m without biasing anyone's estimate.
//
// Determinism: the sampler is seed-reproducible REGARDLESS of worker
// count. Every pair index u draws from its own RNG substream
// (SplitMix-derived from seed and u), pairs are partitioned over a fixed
// number of strata by u mod approxStrata — not by worker — and the
// per-stratum summaries are merged in stratum order after the workers
// join. The scheduling of strata onto workers therefore cannot affect a
// single bit of the output.
const approxStrata = 64

// approxDefaultMaxSamples caps adaptive sampling when no explicit budget
// is given.
const approxDefaultMaxSamples = 1 << 20

// permsPerUnit is the number of orderings in one sample unit: a sampled
// permutation and its antithetic reversal.
const permsPerUnit = 2

// approxShapley estimates the Shapley value of a game of any size by
// parallel stratified-permutation sampling with antithetic pairing; see the
// comment above approxStrata for the estimator design.
//
// It reads the budget from opt. Samples is the permutation budget, rounded
// up to whole first-element-balanced antithetic blocks (2n permutations per
// block). A positive CITarget switches on adaptive mode: sampling proceeds
// in geometrically growing rounds until every player's 95% confidence
// half-width is at or below that absolute target, or the budget
// (approxDefaultMaxSamples when Samples is 0) is spent. With neither, the
// budget is DefaultApproxSamples. The result is identical for every
// Workers setting.
//
// groups, when non-nil, partitions the players into classes of
// interchangeable players that pool their observations (symmetric players
// provably have equal Shapley values); Values passes a validated
// ClassStructure's groups. Nil means no pooling.
//
// The estimate is unbiased; Σφ̂_i equals V(N) exactly (up to float
// rounding) because every sampled ordering's marginals telescope to V(N).
func approxShapley(g MemberGame, opt Options, groups [][]int) (*ValueResult, error) {
	if opt.Samples < 0 {
		return nil, fmt.Errorf("coalition: negative sample budget %d", opt.Samples)
	}
	if opt.CITarget < 0 {
		return nil, fmt.Errorf("coalition: negative CI target %g", opt.CITarget)
	}
	samples := opt.Samples
	if samples == 0 && opt.CITarget == 0 {
		samples = DefaultApproxSamples
	}
	n := g.N()
	if groups == nil {
		groups = make([][]int, n)
		for i := range groups {
			groups[i] = []int{i}
		}
	}
	// Budgets in units (antithetic pairs), rounded up to whole blocks of n
	// units so the first-element strata stay exactly balanced.
	blockUnits := n
	maxUnits := samples / permsPerUnit
	if samples%permsPerUnit != 0 {
		maxUnits++
	}
	if opt.CITarget > 0 && samples == 0 {
		maxUnits = approxDefaultMaxSamples / permsPerUnit
	}
	maxUnits = roundUpBlocks(maxUnits, blockUnits)

	eng := &approxEngine{
		g: g, n: n, seed: opt.Seed, groups: groups,
		sums: make([][]stats.Summary, approxStrata),
	}
	for s := range eng.sums {
		eng.sums[s] = make([]stats.Summary, len(groups))
	}

	res := &ValueResult{}
	done := 0 // units completed
	for {
		target := maxUnits
		if opt.CITarget > 0 {
			// Adaptive rounds double the cumulative sample size: round 1
			// draws one block, round k doubles the total so the CI check
			// (and its two clock-free aggregation sweeps) runs O(log)
			// times, not per block.
			target = done * 2
			if target < blockUnits {
				target = blockUnits
			}
			target = roundUpBlocks(target, blockUnits)
			if target > maxUnits {
				target = maxUnits
			}
		}
		eng.run(done, target, opt.Workers)
		done = target
		maxCI := updateResult(res, eng.merged(), groups, n)
		res.Samples = done * permsPerUnit
		shapleyCIHalfWidth.Set(maxCI)
		if opt.CITarget > 0 && maxCI <= opt.CITarget {
			res.Converged = true
			break
		}
		if done >= maxUnits {
			res.Converged = opt.CITarget == 0
			break
		}
	}
	return res, nil
}

// roundUpBlocks rounds units up to a whole number of blocks (and at least
// one block).
func roundUpBlocks(units, block int) int {
	if units < block {
		return block
	}
	if rem := units % block; rem != 0 {
		units += block - rem
	}
	return units
}

// approxEngine carries the sampler state shared across rounds.
type approxEngine struct {
	g      MemberGame
	n      int
	seed   uint64
	groups [][]int
	// sums[s][g] accumulates stratum s's observations for group g. Strata
	// are keyed by unit index (u mod approxStrata), so their contents are
	// independent of how units are scheduled onto workers.
	sums [][]stats.Summary
}

// run evaluates units [from, to) on sweep.Each's pool, workers wide. Each
// stratum is one item: it owns the units congruent to its index mod
// approxStrata and adds them to its private summaries in increasing unit
// order, with the scratch of the pool slot that runs it.
func (e *approxEngine) run(from, to, workers int) {
	if to <= from {
		return
	}
	scratch := make([]*approxScratch, approxStrata) // Each runs at most approxStrata slots
	sweep.Each(approxStrata, workers, func(w, s int) {
		if scratch[w] == nil {
			scratch[w] = e.newScratch()
		}
		u := from + (s-from%approxStrata+approxStrata)%approxStrata
		for ; u < to; u += approxStrata {
			e.unit(u, scratch[w])
		}
	})
	for _, sc := range scratch {
		if sc != nil {
			sc.w.finish()
		}
	}
	shapleySamplesTotal.Add(int64(to-from) * permsPerUnit)
}

// approxScratch is the per-slot reusable buffer set, including the
// slot's prefix walker (incremental valuers are stateful, one per pool
// slot).
type approxScratch struct {
	perm []int
	vals []float64 // prefix values of the walk in progress
	marg []float64 // pair-averaged marginal per player
	obs  []float64 // pooled observation per group
	w    *prefixWalker
}

func (e *approxEngine) newScratch() *approxScratch {
	return &approxScratch{
		perm: make([]int, e.n),
		vals: make([]float64, e.n),
		marg: make([]float64, e.n),
		obs:  make([]float64, len(e.groups)),
		w:    newPrefixWalker(e.g),
	}
}

// unit evaluates one sample unit: a permutation with deterministically
// forced leading player (u mod n), its antithetic reversal, and the pooled
// per-group observation fed into the unit's stratum.
func (e *approxEngine) unit(u int, sc *approxScratch) {
	n := e.n
	rng := stats.NewRand(e.seed + 0x9E3779B97F4A7C15*uint64(u+1))
	perm, vals, marg := sc.perm, sc.vals, sc.marg
	for i := range perm {
		perm[i] = i
	}
	// Force the block-cycled first element, then arrange the rest
	// uniformly (a Fisher–Yates shuffle): proportional allocation over the
	// position-0 stratum.
	first := u % n
	perm[0], perm[first] = perm[first], perm[0]
	rest := perm[1:]
	for i := len(rest) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		rest[i], rest[j] = rest[j], rest[i]
	}

	// Each player's marginal is the difference of consecutive prefix
	// values: forward, then added from the reversal and halved.
	sc.w.values(perm, false, vals)
	prev := 0.0
	for k, p := range perm {
		marg[p] = vals[k] - prev
		prev = vals[k]
	}
	sc.w.values(perm, true, vals)
	prev = 0.0
	for k, v := range vals {
		p := perm[n-1-k]
		marg[p] = (marg[p] + (v - prev)) / 2
		prev = v
	}
	for gi, members := range e.groups {
		total := 0.0
		for _, p := range members {
			total += marg[p]
		}
		sc.obs[gi] = total / float64(len(members))
	}
	stratum := e.sums[u%approxStrata]
	for gi := range stratum {
		stratum[gi].Add(sc.obs[gi])
	}
}

// merged reduces the per-stratum summaries in stratum order.
func (e *approxEngine) merged() []stats.Summary {
	out := make([]stats.Summary, len(e.groups))
	for s := range e.sums {
		for gi := range out {
			out[gi].Merge(e.sums[s][gi])
		}
	}
	return out
}

// updateResult expands per-group summaries to per-player estimates and
// returns the largest CI half-width.
func updateResult(res *ValueResult, merged []stats.Summary, groups [][]int, n int) float64 {
	if res.Phi == nil {
		res.Phi = make([]float64, n)
		res.CIHalf = make([]float64, n)
	}
	maxCI := 0.0
	for gi := range merged {
		m := &merged[gi]
		ci := m.CI95()
		if ci > maxCI {
			maxCI = ci
		}
		for _, p := range groups[gi] {
			res.Phi[p] = m.Mean()
			res.CIHalf[p] = ci
		}
	}
	return maxCI
}
