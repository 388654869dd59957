// Package market implements the market-based baselines the paper compares
// its coalitional approach against (Sec. 5): a GridEcon-style uniform-price
// spot market trading location-slots, and a Bellagio-style first-price
// combinatorial auction. Both share profit *implicitly* — the spot market
// by capacity sold, the auction by resources consumed — and therefore
// ignore the complementarities (diversity) that the Shapley value prices;
// quantifying that gap is this package's purpose.
package market

import (
	"fmt"
	"math"
	"sort"

	"fedshare/internal/allocation"
)

// Bid is one experiment's demand expressed for the market mechanisms: it
// wants Quantity distinct locations (all or nothing, reflecting the
// diversity threshold) and is willing to pay Amount in total.
type Bid struct {
	Label    string
	Quantity int     // distinct locations required
	Amount   float64 // total willingness to pay
	// Resources per location (r), defaults to 1 in NewBid.
	Resources float64
}

// NewBid derives a bid from a threshold-utility experiment: it asks for its
// minimum viable package (the threshold) and bids its utility for it —
// truthful bidding under the paper's utility model.
func NewBid(label string, minLocations int, shape float64, resources float64) Bid {
	if resources <= 0 {
		resources = 1
	}
	q := minLocations
	if q <= 0 {
		q = 1
	}
	return Bid{
		Label:     label,
		Quantity:  q,
		Amount:    math.Pow(float64(q), shape),
		Resources: resources,
	}
}

// Validate checks a bid.
func (b Bid) Validate() error {
	if b.Quantity <= 0 {
		return fmt.Errorf("market: bid %s has non-positive quantity", b.Label)
	}
	if b.Amount < 0 {
		return fmt.Errorf("market: bid %s has negative amount", b.Label)
	}
	if b.Resources <= 0 {
		return fmt.Errorf("market: bid %s has non-positive resources", b.Label)
	}
	return nil
}

// SpotResult is the outcome of the uniform-price slot market.
type SpotResult struct {
	// Price is the uniform per-slot clearing price (0 when supply exceeds
	// all demand).
	Price float64
	// Accepted[i] reports whether bid i trades.
	Accepted []bool
	// SlotsTraded is the total slots sold.
	SlotsTraded int
	// RevenueByClass attributes revenue to pool classes in proportion to
	// the capacity they offer — the market's implicit sharing rule.
	RevenueByClass []float64
	// Stranded counts accepted-by-price bids that could not actually be
	// served with *distinct* locations: the efficiency the slot
	// abstraction silently loses by treating slots as fungible.
	Stranded int
	// Welfare is the total value of bids actually served.
	Welfare float64
}

// ClearSpot runs the uniform-price double auction: bids sorted by per-slot
// price, supply is the pool's total slot capacity at zero reserve (sunk
// provision costs, Sec. 2.3.2), and the price is set by the first excluded
// bid (or zero when everything trades). After price-based acceptance, each
// winner must actually receive Quantity *distinct* locations; winners that
// cannot are stranded and removed (without re-clearing, as a real slot
// market would discover only at placement time).
func ClearSpot(pool allocation.Pool, bids []Bid) (*SpotResult, error) {
	for _, b := range bids {
		if err := b.Validate(); err != nil {
			return nil, err
		}
	}
	res := &SpotResult{
		Accepted:       make([]bool, len(bids)),
		RevenueByClass: make([]float64, len(pool.Classes)),
	}
	// Total fungible slot supply (the abstraction under test).
	supply := 0
	for _, c := range pool.Classes {
		if len(bids) > 0 {
			supply += c.Count * int(math.Floor(c.Capacity/bids[0].Resources))
		}
	}
	if supply == 0 || len(bids) == 0 {
		return res, nil
	}
	order := make([]int, len(bids))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		pa := bids[order[a]].Amount / float64(bids[order[a]].Quantity)
		pb := bids[order[b]].Amount / float64(bids[order[b]].Quantity)
		return pa > pb
	})
	remaining := supply
	price := 0.0
	for _, i := range order {
		b := bids[i]
		if b.Quantity <= remaining {
			res.Accepted[i] = true
			remaining -= b.Quantity
		} else {
			// First excluded bid sets the uniform price.
			price = b.Amount / float64(b.Quantity)
			break
		}
	}
	res.Price = price

	// Placement check: winners need distinct locations. Serve in price
	// order on a per-location model.
	var winners []int
	for _, i := range order {
		if res.Accepted[i] {
			winners = append(winners, i)
		}
	}
	placed := allocation.Solve(pool, requests(bids, winners))
	for k, i := range winners {
		if placed.X[k] < bids[i].Quantity {
			res.Accepted[i] = false
			res.Stranded++
			continue
		}
		res.SlotsTraded += bids[i].Quantity
		res.Welfare += bids[i].Amount
	}
	// Revenue: price × slots, attributed by offered capacity (the market
	// cannot tell locations apart).
	totalCap := pool.TotalCapacity()
	if totalCap > 0 {
		revenue := res.Price * float64(res.SlotsTraded)
		for c, cl := range pool.Classes {
			res.RevenueByClass[c] = revenue * float64(cl.Count) * cl.Capacity / totalCap
		}
	}
	return res, nil
}

// AuctionResult is the outcome of the combinatorial auction.
type AuctionResult struct {
	// Winning[i] reports whether bid i won its bundle.
	Winning []bool
	// Payments[i] is bid i's payment (first price: its bid if winning).
	Payments []float64
	// RevenueByClass attributes the collected payments to pool classes in
	// proportion to resources consumed (Bellagio's implicit sharing).
	RevenueByClass []float64
	// Welfare is the total accepted bid value.
	Welfare float64
}

// RunCombinatorial runs a Bellagio-style first-price combinatorial auction:
// winner determination maximizes accepted bid value subject to the
// location-capacity constraints (exactly the commercial allocation problem
// (2)), and winners pay their bids.
func RunCombinatorial(pool allocation.Pool, bids []Bid) (*AuctionResult, error) {
	for _, b := range bids {
		if err := b.Validate(); err != nil {
			return nil, err
		}
	}
	res := &AuctionResult{
		Winning:        make([]bool, len(bids)),
		Payments:       make([]float64, len(bids)),
		RevenueByClass: make([]float64, len(pool.Classes)),
	}
	if len(bids) == 0 {
		return res, nil
	}
	// Winner determination via the allocation engine: all-or-nothing
	// bundles become Min == Max requests. Utility must equal the bid, so
	// scale: allocation maximizes Σ x^1 over served requests with x =
	// Quantity; when bids deviate from x^1, run the greedy engine on a
	// value-ordered admission instead. For the paper's truthful threshold
	// bids (Amount = Quantity^d), d = 1 bids make the engine exact; other
	// shapes are served greedily by bid density.
	order := make([]int, len(bids))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		da := bids[order[a]].Amount / float64(bids[order[a]].Quantity)
		db := bids[order[b]].Amount / float64(bids[order[b]].Quantity)
		return da > db
	})
	// Greedy by density with exact placement per step. The last feasible
	// trial solved exactly the accepted set, so its placement is the
	// winners'.
	var accepted []int
	consumed := make([]float64, len(pool.Classes))
	for _, i := range order {
		trial := append(accepted[:len(accepted):len(accepted)], i)
		placed := allocation.Solve(pool, requests(bids, trial))
		feasible := true
		for k, j := range trial {
			if placed.X[k] < bids[j].Quantity {
				feasible = false
				break
			}
		}
		if feasible {
			accepted, consumed = trial, placed.ConsumedByClass
		}
	}
	for _, j := range accepted {
		res.Winning[j] = true
		res.Payments[j] = bids[j].Amount
		res.Welfare += bids[j].Amount
	}
	totalConsumed := 0.0
	for _, c := range consumed {
		totalConsumed += c
	}
	if totalConsumed > 0 {
		for c := range consumed {
			res.RevenueByClass[c] = res.Welfare * consumed[c] / totalConsumed
		}
	}
	return res, nil
}

// requests turns the bids at idx into all-or-nothing allocation requests,
// in idx order: each asks for exactly its bid's Quantity locations.
func requests(bids []Bid, idx []int) []allocation.Request {
	reqs := make([]allocation.Request, len(idx))
	for k, i := range idx {
		reqs[k] = allocation.Request{
			Min: bids[i].Quantity, Max: bids[i].Quantity,
			Shape: 1, Resources: bids[i].Resources, Label: bids[i].Label,
		}
	}
	return reqs
}

// Shares normalizes a per-class revenue vector into shares (all zeros when
// there is no revenue).
func Shares(revenue []float64) []float64 {
	total := 0.0
	for _, r := range revenue {
		total += r
	}
	out := make([]float64, len(revenue))
	if total == 0 {
		return out
	}
	for i, r := range revenue {
		out[i] = r / total
	}
	return out
}
