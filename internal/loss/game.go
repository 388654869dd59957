package loss

import (
	"fmt"

	"fedshare/internal/coalition"
	"fedshare/internal/combin"
)

// NewGame lifts the loss-network simulation into a coalitional game — the
// paper's Sec. 6 future-work direction ("use a loss networks formulation
// and compute the Shapley value in a manner similar to Paschalidis and
// Liu"). Each station is one facility; V(S) is the long-run accepted-value
// rate when only coalition S's stations serve the full demand stream.
//
// Simulations share the base seed (common random numbers), which reduces
// the variance of marginal contributions V(S∪{i}) − V(S). Snapshot the
// result into a coalition.Table before computing shares: each coalition
// costs one simulation.
func NewGame(cfg Config) (coalition.Game, error) {
	n := len(cfg.Stations)
	if n == 0 {
		return nil, fmt.Errorf("loss: game needs at least one station")
	}
	if n > combin.MaxPlayers {
		return nil, fmt.Errorf("loss: at most %d stations", combin.MaxPlayers)
	}
	// Validate eagerly so Value can stay error-free.
	if _, err := Simulate(cfg); err != nil {
		return nil, err
	}
	return coalition.Func{
		Players: n,
		V: func(s combin.Set) float64 {
			if s.IsEmpty() {
				return 0
			}
			sub := cfg
			sub.Stations = nil
			for _, i := range s.Members() {
				sub.Stations = append(sub.Stations, cfg.Stations[i])
			}
			m, err := Simulate(sub)
			if err != nil {
				// Only reachable through data races on cfg; the eager
				// validation above covers all static error paths.
				panic(fmt.Sprintf("loss: coalition simulation failed: %v", err))
			}
			return m.ValueRate
		},
	}, nil
}
