package scenario

import (
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"fedshare/internal/core"
)

// testSpec is a small but fully-featured shares scenario: heterogeneous
// capacities, two demand classes, three policies, a threshold sweep.
func testSpec() *Spec {
	return &Spec{
		ID:     "test-hetero",
		Title:  "test scenario",
		XLabel: "l",
		Facilities: []FacilitySpec{
			{Name: "A", Locations: 20, Resources: 4},
			{Name: "B", Locations: 50, Resources: 2},
			{Name: "C", Locations: 90, Resources: 1},
		},
		Demand: []DemandSpec{
			{Name: "elastic", Count: 10, Shape: 1},
			{Name: "strict", Count: 5, MinLocations: 60, Strict: true, Shape: 1},
		},
		Policies: []string{"shapley", "proportional", "consumption"},
		Axis:     AxisSpec{Variable: VarThreshold, Target: "elastic", From: 0, To: 100, Step: 25},
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := testSpec()
	want, err := RunContext(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := ParseSpec(data)
	if err != nil {
		t.Fatalf("decode of own encoding failed: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(s, decoded) {
		t.Fatalf("spec round-trip mismatch:\n got %+v\nwant %+v", decoded, s)
	}
	got, err := RunContext(context.Background(), decoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table() != want.Table() {
		t.Fatalf("encode→decode→Run diverged:\n got:\n%s\nwant:\n%s", got.Table(), want.Table())
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec([]byte(`{"id": "x", "axis": {"variable": "threshold", "from": 0, "to": 1, "step": 1}, "facilties": []}`))
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("misspelled field must be rejected, got %v", err)
	}
	_, err = ParseSpec([]byte(`{"id": "x", "axis": {"variable": "threshold", "stepp": 1}}`))
	if err == nil {
		t.Fatal("unknown nested field must be rejected")
	}
}

func TestParseSpecRejectsTrailingData(t *testing.T) {
	data, err := os.ReadFile("../../examples/scenarios/hetero5.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		suffix string
		ok     bool
	}{
		{"", true},
		{" \n\t\r\n", true},
		{"}", false},
		{"]", false},
		{"}}", false},
		{" x", false},
		{"{}", false},
		{`{"id":"second"}`, false},
	} {
		body := append(append([]byte(nil), data...), tc.suffix...)
		_, err := ParseSpec(body)
		if tc.ok && err != nil {
			t.Errorf("suffix %q: %v", tc.suffix, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "trailing data")) {
			t.Errorf("suffix %q: error %v, want trailing data rejected", tc.suffix, err)
		}
	}
}

// TestValidateBoundsFacilityCount checks the federation-size bound on the
// declared replicas, before anything expands them.
func TestValidateBoundsFacilityCount(t *testing.T) {
	// testSpec declares three facilities; A's replicas fill the rest.
	s := testSpec()
	s.Facilities[0].Count = core.MaxFacilities - 2
	if err := s.Validate(); err != nil {
		t.Fatalf("exactly %d facilities rejected: %v", core.MaxFacilities, err)
	}
	for _, counts := range [][3]int{
		{core.MaxFacilities - 1, 0, 0},
		{1e9, 0, 0},
		// A naive running sum would wrap around past MaxInt and pass.
		{4000, math.MaxInt - 10, 0},
		{1, 1, math.MaxInt},
	} {
		s := testSpec()
		for i, c := range counts {
			s.Facilities[i].Count = c
		}
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), "past 4096 facilities") {
			t.Errorf("counts %v: error %v, want the facility bound", counts, err)
		}
	}
	// The bound is checked at parse time, so an oversized spec never
	// reaches model construction.
	body := `{"id": "huge", "facilities": [{"name": "X", "locations": 10, "resources": 1, "count": 1000000000}],
	  "demand": [{"name": "d", "count": 1}], "policies": ["shapley"],
	  "axis": {"variable": "threshold", "from": 0, "to": 1, "step": 1}}`
	if _, err := ParseSpec([]byte(body)); err == nil || !strings.Contains(err.Error(), "facility X") {
		t.Fatalf("count 1e9 parsed: %v", err)
	}
}

// TestValidateRefusesOverflowingValue checks the value bound's edge: on
// the 30-location pool below, five experiments of shape d print finite
// shares at d = 208 and NaN at d = 209, where 30^d overflows float64.
// TestValidateRejectsInvalidSpecs checks it at each axis value and variant.
func TestValidateRefusesOverflowingValue(t *testing.T) {
	spec := func(shape float64) *Spec {
		return &Spec{
			ID: "overflow",
			Facilities: []FacilitySpec{
				{Name: "F1", Locations: 10, Resources: 2},
				{Name: "F2", Locations: 20, Resources: 1},
			},
			Demand: []DemandSpec{{Name: "batch", Count: 5, Shape: shape}},
			Axis:   AxisSpec{Variable: VarThreshold, Values: []float64{0, 5}},
		}
	}
	s := spec(208)
	if err := s.Validate(); err != nil {
		t.Fatalf("d = 208: %v", err)
	}
	res, err := RunContext(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ser := range res.Series {
		for _, p := range ser.Points {
			if math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
				t.Errorf("d = 208: %s at %g is %g", ser.Name, p.X, p.Y)
			}
		}
	}
	if err := spec(209).Validate(); err == nil || !strings.Contains(err.Error(), "overflows float64") {
		t.Errorf("d = 209: error %v, want the value bound", err)
	}
	// A class with no experiments adds nothing to V(N).
	idle := spec(208)
	idle.Demand = append(idle.Demand, DemandSpec{Name: "idle", Shape: 1e300})
	if err := idle.Validate(); err != nil {
		t.Errorf("zero-count class of shape 1e300: %v", err)
	}
}

func TestValidateRejectsInvalidSpecs(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantSub string
	}{
		{"no id", func(s *Spec) { s.ID = "" }, "no id"},
		{"whitespace id", func(s *Spec) { s.ID = "a b" }, "whitespace"},
		{"unknown kind", func(s *Spec) { s.Kind = "heatmap" }, "unknown kind"},
		{"no facilities", func(s *Spec) { s.Facilities = nil }, "at least one facility"},
		{"duplicate facility", func(s *Spec) { s.Facilities[1].Name = "A" }, "duplicate facility"},
		{"duplicate last of max facilities", func(s *Spec) {
			s.Facilities = distinctFacilities(core.MaxFacilities)
			s.Facilities[len(s.Facilities)-1].Name = s.Facilities[7].Name
		}, `duplicate facility "F0007"`},
		{"negative locations", func(s *Spec) { s.Facilities[0].Locations = -1 }, "negative locations"},
		{"unnamed demand", func(s *Spec) { s.Demand[0].Name = "" }, "no name"},
		{"duplicate demand", func(s *Spec) { s.Demand[1].Name = "elastic" }, "duplicate demand"},
		{"negative count", func(s *Spec) { s.Demand[0].Count = -2 }, "negative count"},
		{"unknown policy", func(s *Spec) { s.Policies = []string{"dictator"} }, "unknown policy"},
		{"unknown variable", func(s *Spec) { s.Axis.Variable = "entropy" }, "unknown sweep variable"},
		{"bad axis target", func(s *Spec) { s.Axis.Target = "nope" }, "unknown demand class"},
		// Each sweep variable with only a later grid value out of range.
		{"later negative locations", func(s *Spec) {
			s.Axis = AxisSpec{Variable: VarLocations, Target: "A", Values: []float64{10, 5, -5}}
		}, "negative location count -5"},
		{"later negative resources", func(s *Spec) {
			s.Axis = AxisSpec{Variable: VarResources, Target: "B", Values: []float64{4, -2}}
		}, "facility B has negative resources"},
		{"later negative threshold", func(s *Spec) {
			s.Axis = AxisSpec{Variable: VarThreshold, Target: "elastic", Values: []float64{0, 50, -3}}
		}, "elastic: negative MinLocations"},
		{"later negative shape", func(s *Spec) {
			s.Axis = AxisSpec{Variable: VarShape, Values: []float64{1, 2, -1}}
		}, "Shape must be positive"},
		{"later negative count", func(s *Spec) {
			s.Axis = AxisSpec{Variable: VarCount, Target: "strict", Values: []float64{5, -1}}
		}, "negative experiment count -1"},
		{"later sigma past 1", func(s *Spec) {
			s.Axis = AxisSpec{Variable: VarSigma, Values: []float64{0, 0.5, 2}}
		}, "sigma 2 outside [0,1]"},
		{"zero step", func(s *Spec) { s.Axis.Step = 0 }, "step must be positive"},
		{"inverted range", func(s *Spec) { s.Axis.From = 10; s.Axis.To = 0 }, "below from"},
		{"values plus range", func(s *Spec) { s.Axis.Values = []float64{1} }, "both values"},
		{"variants on shares", func(s *Spec) {
			s.Variants = []VariantSpec{{Name: "v", Set: []SetSpec{{Variable: VarMu, Value: 0.5}}}}
		}, "only supported for profit"},
		{"track on shares", func(s *Spec) { s.Track = "A" }, "only meaningful for profit"},
		{"bad track", func(s *Spec) {
			s.Kind = KindProfit
			s.Track = "nope"
		}, "unknown facility"},
		{"unnamed variant", func(s *Spec) {
			s.Kind = KindProfit
			s.Variants = []VariantSpec{{Set: []SetSpec{{Variable: VarMu, Value: 0.5}}}}
		}, "variant has no name"},
		{"bad variant variable", func(s *Spec) {
			s.Kind = KindProfit
			s.Variants = []VariantSpec{{Name: "v", Set: []SetSpec{{Variable: "entropy", Value: 1}}}}
		}, "unknown variable"},
		{"bad variant target", func(s *Spec) {
			s.Kind = KindProfit
			s.Variants = []VariantSpec{{Name: "v", Set: []SetSpec{{Variable: VarThreshold, Target: "nope", Value: 1}}}}
		}, "unknown demand class"},
		{"overflowing shape", func(s *Spec) { s.Demand[0].Shape = 1e300 }, "overflows float64"},
		{"overflowing shape axis", func(s *Spec) {
			s.Axis = AxisSpec{Variable: VarShape, Target: "elastic", Values: []float64{1, 1e300}}
		}, "overflows float64"},
		{"overflowing mu axis", func(s *Spec) {
			s.Axis = AxisSpec{Variable: VarMu, Values: []float64{1, 1e308}}
		}, "overflows float64"},
		{"overflowing variant", func(s *Spec) {
			s.Kind = KindProfit
			s.Variants = []VariantSpec{{Name: "steep", Set: []SetSpec{{Variable: VarShape, Target: "elastic", Value: 1e300}}}}
		}, "overflows float64"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := testSpec()
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// distinctFacilities returns n facilities named F0000, F0001, ….
func distinctFacilities(n int) []FacilitySpec {
	facs := make([]FacilitySpec, n)
	for i := range facs {
		facs[i] = FacilitySpec{Name: fmt.Sprintf("F%04d", i), Locations: 1 + i%7, Resources: 1}
	}
	return facs
}

// BenchmarkValidate validates a spec of the largest federation a spec
// may declare, every facility distinctly named.
func BenchmarkValidate(b *testing.B) {
	s := testSpec()
	s.Facilities = distinctFacilities(core.MaxFacilities)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestUtilityKindValidation(t *testing.T) {
	s := &Spec{
		ID:     "u",
		Kind:   KindUtility,
		Demand: []DemandSpec{{Name: "d=2", MinLocations: 10, Shape: 2}},
		Axis:   AxisSpec{Variable: VarX, From: 0, To: 20, Step: 5},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 || res.Series[0].Name != "d=2" {
		t.Fatalf("unexpected series: %+v", res.Series)
	}
	if y, _ := res.Series[0].YAt(20); y != 400 {
		t.Errorf("u(20) = %g, want 400", y)
	}
	if y, _ := res.Series[0].YAt(5); y != 0 {
		t.Errorf("u(5) = %g, want 0 (below threshold)", y)
	}
	// Wrong axis variable for the kind.
	s.Axis.Variable = VarThreshold
	if err := s.Validate(); err == nil {
		t.Fatal("utility scenario with model axis must be rejected")
	}
}

func TestAxisGrid(t *testing.T) {
	xs, err := AxisSpec{Variable: VarThreshold, From: 0.1, To: 0.5, Step: 0.1, Round: 1}.grid()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	if !reflect.DeepEqual(xs, want) {
		t.Fatalf("grid = %v, want %v", xs, want)
	}
	xs, err = AxisSpec{Variable: VarThreshold, Values: []float64{3, 1, 2}}.grid()
	if err != nil || !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Fatalf("explicit values grid = %v (%v)", xs, err)
	}
	if _, err := (AxisSpec{Variable: VarThreshold, From: 0, To: 1e9, Step: 1e-3}).grid(); err == nil {
		t.Fatal("runaway grid must be rejected")
	}
}

func TestApplySigmaMatchesMixtureRounding(t *testing.T) {
	s := &Spec{
		ID:         "sig",
		Facilities: []FacilitySpec{{Name: "A", Locations: 10, Resources: 1}},
		Demand: []DemandSpec{
			{Name: "a", Count: 7},
			{Name: "b", Count: 0},
		},
		Axis: AxisSpec{Variable: VarSigma, From: 0, To: 1, Step: 0.25, Round: 2},
	}
	for _, tc := range []struct {
		sigma float64
		wantB int
	}{
		{0, 0}, {0.25, 2}, {0.5, 4}, {0.75, 5}, {1, 7},
	} {
		c, err := s.at(tc.sigma)
		if err != nil {
			t.Fatal(err)
		}
		if c.Demand[1].Count != tc.wantB || c.Demand[0].Count+c.Demand[1].Count != 7 {
			t.Errorf("sigma %g: counts (%d, %d), want b=%d of 7",
				tc.sigma, c.Demand[0].Count, c.Demand[1].Count, tc.wantB)
		}
	}
	// Targeting the first class flips the roles.
	s.Axis.Target = "a"
	c, err := s.at(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if c.Demand[0].Count != 2 || c.Demand[1].Count != 5 {
		t.Errorf("targeted sigma: counts (%d, %d), want (2, 5)", c.Demand[0].Count, c.Demand[1].Count)
	}
}

func TestDemandSpecDefaults(t *testing.T) {
	et := DemandSpec{Name: "d"}.experimentType()
	if !math.IsInf(et.MaxLocations, 1) || et.Resources != 1 || et.HoldingTime != 1 || et.Shape != 1 {
		t.Fatalf("defaults not applied: %+v", et)
	}
	if err := et.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrorsCarryContext(t *testing.T) {
	// A spec that validates but whose policy fails at run time does not
	// exist for the built-in rules on well-formed models; instead check
	// that Run refuses an invalid spec outright.
	s := testSpec()
	s.Policies = []string{"dictator"}
	if _, err := RunContext(context.Background(), s, nil); err == nil || !strings.Contains(err.Error(), "dictator") {
		t.Fatalf("Run must surface the unknown policy, got %v", err)
	}
}

// TestThresholdPastIntRange runs a spec whose threshold,
// "min_locations": 1e300, lies past the int range, exact and sampled. No
// pool of its 10 locations reaches it, so it must give the result table
// of the threshold 11, the first above every pool, where every Shapley
// share reads 0, instead of failing on a negative minimum.
func TestThresholdPastIntRange(t *testing.T) {
	run := func(method, min string) *Result {
		t.Helper()
		s, err := ParseSpec([]byte(`{
  "id": "threshold-past-int-range",
  "facilities": [
    {"name": "A", "locations": 4, "resources": 1},
    {"name": "B", "locations": 6, "resources": 2}
  ],
  "demand": [{"name": "batch", "count": 5, "min_locations": ` + min + `}],
  "method": "` + method + `",
  "axis": {"variable": "count", "from": 1, "to": 3, "step": 1}
}`))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunContext(context.Background(), s, nil)
		if err != nil {
			t.Fatalf("%s, min_locations %s: %v", method, min, err)
		}
		return res
	}
	for _, method := range []string{"exact", "approx"} {
		huge, want := run(method, "1e300"), run(method, "11")
		if huge.Table() != want.Table() {
			t.Errorf("%s: min_locations 1e300 gives\n%s\nmin_locations 11 gives\n%s", method, huge.Table(), want.Table())
		}
		for _, ser := range want.Series[:2] {
			for _, p := range ser.Points {
				if p.Y != 0 {
					t.Errorf("%s: %s at %g is %g, want 0", method, ser.Name, p.X, p.Y)
				}
			}
		}
	}
}
