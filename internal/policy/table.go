package policy

import (
	"fmt"
	"math"
	"sort"

	"fedshare/internal/core"
	"fedshare/internal/economics"
	"fedshare/internal/sweep"
)

// WeightTable is the paper's proposed practical artifact (Sec. 3.2.3): the
// normalized Shapley values "computed off-line and used as heuristic
// evaluators of the individual contributions of facilities, given the
// mixture of expected users". It tabulates shares over a grid of demand
// scenarios so operators can read policy weights off it without running the
// game online; fedsim -weights prints one.
type WeightTable struct {
	Facilities []string
	// Rows are sorted by (Threshold, Volume).
	Rows []WeightRow
}

// WeightRow is one precomputed scenario.
type WeightRow struct {
	Threshold float64 // diversity threshold l of the scenario
	Volume    int     // demand volume K
	Shares    []float64
}

// BuildWeightTable precomputes Shapley shares for every (threshold, volume)
// combination, holding the facility configuration fixed. Thresholds and
// volumes must be non-empty; volumes must be positive.
func BuildWeightTable(facilities []core.Facility, thresholds []float64, volumes []int) (*WeightTable, error) {
	if len(thresholds) == 0 || len(volumes) == 0 {
		return nil, fmt.Errorf("policy: weight table needs thresholds and volumes")
	}
	t := &WeightTable{}
	for _, f := range facilities {
		t.Facilities = append(t.Facilities, f.Name)
	}
	type scenario struct {
		l float64
		k int
	}
	var grid []scenario
	for _, l := range thresholds {
		if l < 0 {
			return nil, fmt.Errorf("policy: negative threshold %g", l)
		}
		for _, k := range volumes {
			if k <= 0 {
				return nil, fmt.Errorf("policy: non-positive volume %d", k)
			}
			grid = append(grid, scenario{l: l, k: k})
		}
	}
	// Scenarios are independent games: evaluate them on the sweep worker
	// pool, deterministic row order preserved by index.
	rows, err := sweep.RunErr(len(grid), func(i int) (WeightRow, error) {
		s := grid[i]
		wl, err := economics.NewWorkload(economics.DemandClass{
			Type: economics.ExperimentType{
				Name: "scenario", MinLocations: s.l, MaxLocations: math.Inf(1),
				Resources: 1, HoldingTime: 1, Shape: 1,
			},
			Count: s.k,
		})
		if err != nil {
			return WeightRow{}, err
		}
		m, err := core.NewModel(append([]core.Facility(nil), facilities...), wl)
		if err != nil {
			return WeightRow{}, err
		}
		shares, err := core.ShapleyPolicy{}.Shares(m)
		if err != nil {
			return WeightRow{}, err
		}
		return WeightRow{Threshold: s.l, Volume: s.k, Shares: shares}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	sort.Slice(t.Rows, func(a, b int) bool {
		if t.Rows[a].Threshold != t.Rows[b].Threshold {
			return t.Rows[a].Threshold < t.Rows[b].Threshold
		}
		return t.Rows[a].Volume < t.Rows[b].Volume
	})
	return t, nil
}
