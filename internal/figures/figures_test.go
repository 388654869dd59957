package figures

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"fedshare/internal/scenario"
)

// runFigure runs the registered figure with the given id.
func runFigure(id string) (*scenario.Result, error) {
	e, err := scenario.ByID(id)
	if err != nil {
		return nil, err
	}
	return scenario.RunContext(context.Background(), e.Spec, nil)
}

// mustFig runs a registered figure scenario, failing the test on error.
func mustFig(t *testing.T, id string) *scenario.Result {
	t.Helper()
	f, err := runFigure(id)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func yAt(t *testing.T, f *scenario.Result, name string, x float64) float64 {
	t.Helper()
	for _, s := range f.Series {
		if s.Name == name {
			y, ok := s.YAt(x)
			if !ok {
				t.Fatalf("%s: series %q has no point at x=%g", f.ID, name, x)
			}
			return y
		}
	}
	t.Fatalf("%s: no series %q", f.ID, name)
	return 0
}

func TestFig2Anchors(t *testing.T) {
	f := mustFig(t, "fig2")
	if len(f.Series) != 3 {
		t.Fatalf("fig2 has %d series", len(f.Series))
	}
	// Below threshold everything is zero.
	for _, s := range f.Series {
		if y, _ := s.YAt(40); y != 0 {
			t.Errorf("%s: u(40) = %g, want 0", s.Name, y)
		}
	}
	if y := yAt(t, f, "d=1.0", 100); y != 100 {
		t.Errorf("d=1 u(100) = %g", y)
	}
	if y := yAt(t, f, "d=0.8", 100); math.Abs(y-math.Pow(100, 0.8)) > 1e-9 {
		t.Errorf("d=0.8 u(100) = %g", y)
	}
	if y := yAt(t, f, "d=1.2", 300); math.Abs(y-math.Pow(300, 1.2)) > 1e-9 {
		t.Errorf("d=1.2 u(300) = %g", y)
	}
}

func TestFig4Shape(t *testing.T) {
	f := mustFig(t, "fig4")
	if len(f.Series) != 6 {
		t.Fatalf("fig4 has %d series, want 6", len(f.Series))
	}
	// l=0: Shapley equals proportional.
	for i, want := range []float64{1.0 / 13, 4.0 / 13, 8.0 / 13} {
		name := []string{"phi1", "phi2", "phi3"}[i]
		if y := yAt(t, f, name, 0); math.Abs(y-want) > 1e-9 {
			t.Errorf("%s(0) = %g, want %g", name, y, want)
		}
	}
	// Equal shares in the grand-only band (1200, 1300].
	for _, name := range []string{"phi1", "phi2", "phi3"} {
		if y := yAt(t, f, name, 1250); math.Abs(y-1.0/3) > 1e-9 {
			t.Errorf("%s(1250) = %g, want 1/3", name, y)
		}
	}
	// Zero beyond 1300.
	if y := yAt(t, f, "phi3", 1350); y != 0 {
		t.Errorf("phi3(1350) = %g, want 0", y)
	}
	// Proportional flat across the sweep.
	if a, b := yAt(t, f, "pi2", 0), yAt(t, f, "pi2", 1400); a != b {
		t.Errorf("pi2 moved: %g -> %g", a, b)
	}
	// Facility 3 share rises once smaller facilities drop out.
	if yAt(t, f, "phi3", 600) <= yAt(t, f, "phi3", 0) {
		t.Error("phi3 should rise with l in the mid-range")
	}
}

func TestFig4StrictMatchesPaperNumbers(t *testing.T) {
	f := mustFig(t, "fig4-strict")
	// Paper Sec 4.1: φ̂2 = 2/13 at l = 500 under the strict convention.
	if y := yAt(t, f, "phi2", 500); math.Abs(y-2.0/13) > 1e-9 {
		t.Errorf("strict phi2(500) = %g, want 2/13", y)
	}
}

func TestFig5Convergence(t *testing.T) {
	f := mustFig(t, "fig5")
	// As d grows, Shapley approaches proportional (and the small-coalition
	// advantage of facility 3 fades toward its resource share).
	gapAt := func(d float64) float64 {
		gap := 0.0
		for i := 1; i <= 3; i++ {
			phi := yAt(t, f, "phi"+string(rune('0'+i)), d)
			pi := yAt(t, f, "pi"+string(rune('0'+i)), d)
			gap += math.Abs(phi - pi)
		}
		return gap
	}
	if gapAt(2.5) >= gapAt(0.5) {
		t.Errorf("Shapley-proportional gap should shrink with d: %g -> %g",
			gapAt(0.5), gapAt(2.5))
	}
	// φ̂3 dominates at small d (only facility 3 can serve alone at l=600).
	if yAt(t, f, "phi3", 0.5) <= yAt(t, f, "phi1", 0.5) {
		t.Error("facility 3 should dominate at small d")
	}
}

func TestFig6EqualTotalsDifferentShares(t *testing.T) {
	f := mustFig(t, "fig6")
	// At l = 0 all L_i·R_i equal -> all shares 1/3.
	for _, name := range []string{"phi1", "phi2", "phi3", "pi1", "pi2", "pi3"} {
		if y := yAt(t, f, name, 0); math.Abs(y-1.0/3) > 1e-6 {
			t.Errorf("%s(0) = %g, want 1/3", name, y)
		}
	}
	// Mid-range l: diversity-rich facility 3 beats facility 1 despite
	// identical totals.
	if yAt(t, f, "phi3", 600) <= yAt(t, f, "phi1", 600)+0.05 {
		t.Errorf("phi3(600)=%g should clearly exceed phi1(600)=%g",
			yAt(t, f, "phi3", 600), yAt(t, f, "phi1", 600))
	}
	// π̂ stays at 1/3 for every l.
	if y := yAt(t, f, "pi1", 900); math.Abs(y-1.0/3) > 1e-6 {
		t.Errorf("pi1(900) = %g", y)
	}
	// Extremes equal again: l in the all-must-cooperate band.
	if y := yAt(t, f, "phi1", 1250); math.Abs(y-1.0/3) > 1e-6 {
		t.Errorf("phi1(1250) = %g, want 1/3", y)
	}
}

func TestFig7MixtureShiftsShares(t *testing.T) {
	f := mustFig(t, "fig7")
	// With only flexible experiments (σ=0), Shapley tracks capacity
	// proportions; as σ grows, diversity (locations) matters more, so
	// facility 3 gains and facility 1 loses.
	phi3Lo, phi3Hi := yAt(t, f, "phi3", 0), yAt(t, f, "phi3", 1)
	if phi3Hi <= phi3Lo {
		t.Errorf("phi3 should rise with sigma: %g -> %g", phi3Lo, phi3Hi)
	}
	phi1Lo, phi1Hi := yAt(t, f, "phi1", 0), yAt(t, f, "phi1", 1)
	if phi1Hi >= phi1Lo {
		t.Errorf("phi1 should fall with sigma: %g -> %g", phi1Lo, phi1Hi)
	}
	// The Shapley-vs-proportional distortion grows with sigma.
	dist := func(x float64) float64 {
		d := 0.0
		for i := 1; i <= 3; i++ {
			d += math.Abs(yAt(t, f, "phi"+string(rune('0'+i)), x) - yAt(t, f, "pi"+string(rune('0'+i)), x))
		}
		return d
	}
	if dist(1) <= dist(0) {
		t.Errorf("distortion should grow with sigma: %g -> %g", dist(0), dist(1))
	}
}

func TestFig8DemandDependence(t *testing.T) {
	f := mustFig(t, "fig8")
	if len(f.Series) != 9 {
		t.Fatalf("fig8 has %d series, want 9 (phi, pi, rho)", len(f.Series))
	}
	// π̂ does not depend on K.
	if a, b := yAt(t, f, "pi1", 5), yAt(t, f, "pi1", 100); a != b {
		t.Errorf("pi1 moved with K: %g -> %g", a, b)
	}
	// Low demand: ρ̂ follows the diversity profile (L_i/ΣL = 1/13, 4/13,
	// 8/13), so facility 3 dominates consumption.
	if y := yAt(t, f, "rho3", 5); math.Abs(y-8.0/13) > 0.05 {
		t.Errorf("rho3(5) = %g, want ~8/13", y)
	}
	// High demand: ρ̂ drifts toward capacity shares (facility 3 falls).
	if yAt(t, f, "rho3", 100) >= yAt(t, f, "rho3", 5) {
		t.Error("rho3 should fall as demand saturates capacity")
	}
	// φ̂ and ρ̂ both move with K.
	if yAt(t, f, "phi1", 5) == yAt(t, f, "phi1", 100) {
		t.Error("phi1 should vary with demand volume")
	}
}

func TestFig9IncentiveCurves(t *testing.T) {
	f := mustFig(t, "fig9")
	if len(f.Series) != 6 {
		t.Fatalf("fig9 has %d series, want 6", len(f.Series))
	}
	// Proportional profit rises smoothly and monotonically with L1.
	for _, name := range []string{"pi1,l=0", "pi1,l=400", "pi1,l=800"} {
		prev := -1.0
		for _, s := range f.Series {
			if s.Name != name {
				continue
			}
			for _, p := range s.Points {
				if p.Y < prev-1e-9 {
					t.Errorf("%s decreases at L1=%g", name, p.X)
				}
				prev = p.Y
			}
		}
	}
	// Shapley at l=800 must show a pronounced jump (coalition feasibility).
	maxStep, typStep := 0.0, 0.0
	for _, s := range f.Series {
		if s.Name != "phi1,l=800" {
			continue
		}
		for i := 1; i < len(s.Points); i++ {
			d := math.Abs(s.Points[i].Y - s.Points[i-1].Y)
			if d > maxStep {
				maxStep = d
			}
			typStep += d
		}
		typStep /= float64(len(s.Points) - 1)
	}
	if maxStep < 3*typStep {
		t.Errorf("phi1,l=800 lacks threshold jumps: max step %g vs typical %g", maxStep, typStep)
	}
}

// paperFigureIDs lists the registry's paper figures in paper order:
// convention variants and extensions aside.
func paperFigureIDs() []string {
	var ids []string
	for _, e := range scenario.Entries() {
		if !e.Variant && !e.Extension {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// TestAllAndByID runs every paper figure by its registry id, and the
// strict variant by id.
func TestAllAndByID(t *testing.T) {
	paper := paperFigureIDs()
	if want := []string{"fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"}; !reflect.DeepEqual(paper, want) {
		t.Fatalf("paper figures %v, want %v", paper, want)
	}
	for _, id := range paper {
		f, err := runFigure(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if f.ID != id || len(f.Series) == 0 {
			t.Errorf("%s: ran %q with %d series", id, f.ID, len(f.Series))
			continue
		}
		if !strings.Contains(f.Table(), f.Series[0].Name) {
			t.Errorf("%s table missing header", id)
		}
	}
	if _, err := runFigure("fig4-strict"); err != nil {
		t.Errorf("fig4-strict: %v", err)
	}
	if _, err := runFigure("fig99"); err == nil {
		t.Error("unknown id must fail")
	}
}

func TestSharesAreValidDistributions(t *testing.T) {
	// Every share series point lies in [0,1]; per figure and x, each rule's
	// shares sum to 1 or 0.
	for _, id := range []string{"fig4", "fig6", "fig7", "fig8"} {
		f := mustFig(t, id)
		byPrefix := map[string][]int{}
		for i, s := range f.Series {
			prefix := strings.TrimRight(s.Name, "123")
			byPrefix[prefix] = append(byPrefix[prefix], i)
		}
		for prefix, idxs := range byPrefix {
			if len(idxs) != 3 {
				continue
			}
			for pi := range f.Series[idxs[0]].Points {
				sum := 0.0
				for _, si := range idxs {
					y := f.Series[si].Points[pi].Y
					if y < -1e-9 || y > 1+1e-9 {
						t.Fatalf("%s %s: share %g outside [0,1]", f.ID, f.Series[si].Name, y)
					}
					sum += y
				}
				if math.Abs(sum-1) > 1e-6 && math.Abs(sum) > 1e-6 {
					t.Fatalf("%s %s at x=%g: shares sum to %g",
						f.ID, prefix, f.Series[idxs[0]].Points[pi].X, sum)
				}
			}
		}
	}
}

func TestFigMarketDivergence(t *testing.T) {
	f := mustFig(t, "fig-market")
	if len(f.Series) != 6 {
		t.Fatalf("fig-market has %d series", len(f.Series))
	}
	// At l = 0 both rules are capacity/consumption-proportional-ish; at
	// l = 500 the auction pays nothing to some facility the Shapley rule
	// values (or at least diverges substantially).
	div := func(x float64) float64 {
		d := 0.0
		for i := 1; i <= 3; i++ {
			phi := yAt(t, f, "phi"+string(rune('0'+i)), x)
			auc := yAt(t, f, "auction"+string(rune('0'+i)), x)
			d += math.Abs(phi - auc)
		}
		return d
	}
	if div(500) <= div(0) {
		t.Errorf("auction divergence should grow with l: %g at 0, %g at 500", div(0), div(500))
	}
	if _, err := runFigure("fig-market"); err != nil {
		t.Error(err)
	}
}

// TestFig4SegmentAnchors checks every constant segment of the staircase
// against hand-computed Shapley values (three-player closed form on the
// segment's coalition-value table).
func TestFig4SegmentAnchors(t *testing.T) {
	f := mustFig(t, "fig4")
	segments := []struct {
		l    float64 // representative grid point inside the segment
		want [3]float64
	}{
		// l in [0, 100]: all coalitions feasible, additive -> proportional.
		{50, [3]float64{1.0 / 13, 4.0 / 13, 8.0 / 13}},
		// l in (100, 400]: V1 = 0; phi = (400, 2500, 4900)/6/1300.
		{200, [3]float64{400.0 / 7800, 2500.0 / 7800, 4900.0 / 7800}},
		// l in (400, 500]: V1 = V2 = 0.
		{450, [3]float64{800.0 / 7800, 1700.0 / 7800, 5300.0 / 7800}},
		// l in (500, 800]: V12 = 0 too.
		{600, [3]float64{300.0 / 7800, 1200.0 / 7800, 6300.0 / 7800}},
		// l in (800, 900]: V3 = 0 as well (only pairs with 3 + grand).
		{850, [3]float64{1100.0 / 7800, 2000.0 / 7800, 4700.0 / 7800}},
		// l in (900, 1200]: only {2,3} and the grand coalition work.
		{1000, [3]float64{200.0 / 7800, 3800.0 / 7800, 3800.0 / 7800}},
		// l in (1200, 1300]: grand only -> equal shares.
		{1250, [3]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}},
		// l > 1300: nothing feasible.
		{1350, [3]float64{0, 0, 0}},
	}
	for _, seg := range segments {
		for i := 0; i < 3; i++ {
			name := []string{"phi1", "phi2", "phi3"}[i]
			got := yAt(t, f, name, seg.l)
			if math.Abs(got-seg.want[i]) > 1e-9 {
				t.Errorf("segment l=%g: %s = %.6f, want %.6f", seg.l, name, got, seg.want[i])
			}
		}
	}
}
