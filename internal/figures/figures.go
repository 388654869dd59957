// Package figures regenerates every figure of the paper's evaluation
// (Sec. 4). Each figure is a declarative scenario.Spec (specs.go)
// registered with the scenario registry and executed by the generic
// scenario engine; this package is the thin renderer layer on top.
// Parameter choices the paper leaves implicit (demand volume K for Figs 6,
// 7 and 9) are fixed in the specs and documented in EXPERIMENTS.md.
package figures

import (
	"fedshare/internal/scenario"
)

// Figure is one regenerated paper figure — an executed scenario.
type Figure = scenario.Result

// ByID runs the figure with the given id ("fig2", "fig4", ...). Unknown
// ids fail with the registry's id listing.
func ByID(id string) (*Figure, error) {
	e, err := scenario.ByID(id)
	if err != nil {
		return nil, err
	}
	return scenario.Run(e.Spec)
}
