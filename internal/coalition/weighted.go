package coalition

import (
	"fmt"
	"slices"

	"fedshare/internal/combin"
)

// HarsanyiDividends computes the Möbius transform of the characteristic
// function: Δ(S) = Σ_{T ⊆ S} (−1)^{|S|−|T|} V(T). Dividends decompose a
// game into pure-interaction terms — V(S) = Σ_{T ⊆ S} Δ(T) — and power
// every weighted sharing rule below. Cost O(2^n · n); limited to 24 players.
func HarsanyiDividends(t *Table) ([]float64, error) {
	n := t.Players
	if n > 24 {
		return nil, fmt.Errorf("coalition: dividends limited to 24 players, got %d", n)
	}
	size := 1 << uint(n)
	div := slices.Clone(t.Values)
	// In-place subset Möbius transform.
	for i := 0; i < n; i++ {
		bit := 1 << uint(i)
		for s := 0; s < size; s++ {
			if s&bit != 0 {
				div[s] -= div[s^bit]
			}
		}
	}
	return div, nil
}

// WeightedShapley computes the weighted Shapley value with positive player
// weights w: each coalition's Harsanyi dividend Δ(S) is split among its
// members in proportion to their weights,
//
//	φ_i^w = Σ_{S ∋ i} Δ(S) · w_i / w(S).
//
// Equal weights reduce to the ordinary Shapley value. In the paper's
// commercial setting the natural weights are the facilities' customer
// populations U_i (cf. the ownership dimension of Aram et al. [8]).
func WeightedShapley(t *Table, w []float64) ([]float64, error) {
	n := t.Players
	if len(w) != n {
		return nil, fmt.Errorf("coalition: %d weights for %d players", len(w), n)
	}
	for i, wi := range w {
		if wi <= 0 {
			return nil, fmt.Errorf("coalition: weight %d is %g, must be positive", i, wi)
		}
	}
	div, err := HarsanyiDividends(t)
	if err != nil {
		return nil, err
	}
	phi := make([]float64, n)
	for s := 1; s < len(div); s++ {
		d := div[s]
		if d == 0 {
			continue
		}
		set := combin.Set(s)
		wsum := 0.0
		for _, i := range set.Members() {
			wsum += w[i]
		}
		for _, i := range set.Members() {
			phi[i] += d * w[i] / wsum
		}
	}
	return phi, nil
}
