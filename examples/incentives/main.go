// Incentives example (the Fig 9 story): how does a facility's payoff react
// to its own provision level under different sharing rules, and where does
// best-response dynamics settle once provision costs enter?
package main

import (
	"context"
	"fmt"
	"log"

	"fedshare/internal/core"
	"fedshare/internal/economics"
	"fedshare/internal/policy"
	"fedshare/internal/scenario"
	"fedshare/internal/stats"
)

func main() {
	// Demand: saturating identical experiments with diversity threshold 400.
	// The profit scenario sweeps facility 1's location count and tracks its
	// profit under Shapley vs proportional sharing.
	spec := &scenario.Spec{
		ID:   "incentives",
		Kind: scenario.KindProfit,
		Facilities: []scenario.FacilitySpec{
			{Name: "F1", Locations: 100, Resources: 80},
			{Name: "F2", Locations: 400, Resources: 60},
			{Name: "F3", Locations: 800, Resources: 20},
		},
		Demand:   []scenario.DemandSpec{{Name: "exp", Count: 100, MinLocations: 400}},
		Policies: []string{"shapley", "proportional"},
		Axis:     scenario.AxisSpec{Variable: scenario.VarLocations, Target: "F1", From: 0, To: 1000, Step: 100},
		Track:    "F1",
	}
	res, err := scenario.RunContext(context.Background(), spec, nil)
	if err != nil {
		log.Fatal(err)
	}
	series := map[string]stats.Series{}
	for _, s := range res.Series {
		series[s.Name] = s
	}
	shap, prop := series["phi1"], series["pi1"]

	fmt.Println("facility 1 profit vs own location count (l = 400, demand saturates):")
	fmt.Printf("%8s %14s %14s\n", "L1", "shapley", "proportional")
	for i := range shap.Points {
		fmt.Printf("%8.0f %14.1f %14.1f\n", shap.Points[i].X, shap.Points[i].Y, prop.Points[i].Y)
	}

	jumps := policy.Jumps(shap, 0.12)
	if len(jumps) > 0 {
		fmt.Println("\nShapley threshold jumps (provision instability risk, Sec 4.4):")
		for _, j := range jumps {
			fmt.Printf("  at L1=%.0f: payoff jumps by %+.1f\n", j.X, j.Delta)
		}
	}

	// Best-response dynamics: each facility picks its provision level on a
	// grid, trading Shapley profit against a per-location cost.
	fmt.Println("\nbest-response provision game (cost = 8 per location):")
	model, err := spec.Model()
	if err != nil {
		log.Fatal(err)
	}
	players := make([]policy.Player, 3)
	maxLoc := []int{1000, 1000, 1000}
	for i := range players {
		var opts []policy.Option
		for l := 0; l <= maxLoc[i]; l += 200 {
			opts = append(opts, policy.Option{Locations: l, Resources: model.Facilities[i].Resources})
		}
		players[i] = policy.Player{Options: opts, Cost: economics.Cost{Alpha: 8}}
	}
	dyn, err := policy.NewDynamics(model, players, core.ShapleyPolicy{})
	if err != nil {
		log.Fatal(err)
	}
	eq, err := dyn.Run(30)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  converged=%v after %d rounds\n", eq.Converged, eq.Rounds)
	for i, ci := range eq.Choice {
		opt := players[i].Options[ci]
		fmt.Printf("  %s provides %4d locations, net payoff %8.1f\n",
			model.Facilities[i].Name, opt.Locations, eq.Payoffs[i])
	}
}
