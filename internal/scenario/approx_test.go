package scenario

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"fedshare/internal/core"
)

// templatedSpec declares a 9-facility federation from three templates via
// Count, with the approximation-tier knobs set.
func templatedSpec() *Spec {
	return &Spec{
		ID:     "tmpl",
		Title:  "templated federation",
		XLabel: "l",
		Facilities: []FacilitySpec{
			{Name: "S", Locations: 10, Resources: 2, Count: 4},
			{Name: "M", Locations: 30, Resources: 1, Count: 3},
			{Name: "L", Locations: 80, Resources: 1, Count: 2},
		},
		Demand: []DemandSpec{
			{Name: "batch", Count: 20, Shape: 1},
		},
		Policies: []string{"shapley-approx", "proportional"},
		Axis:     AxisSpec{Variable: VarThreshold, Values: []float64{0, 100}},
		Method:   MethodApprox,
		Samples:  256,
		Seed:     7,
	}
}

func TestExpandedFacilitiesReplication(t *testing.T) {
	s := templatedSpec()
	fs := s.expandedFacilities()
	if len(fs) != 9 {
		t.Fatalf("expanded to %d facilities, want 9", len(fs))
	}
	wantNames := []string{"S-1", "S-2", "S-3", "S-4", "M-1", "M-2", "M-3", "L-1", "L-2"}
	for i, f := range fs {
		if f.Name != wantNames[i] {
			t.Errorf("facility %d named %q, want %q", i, f.Name, wantNames[i])
		}
	}
	// Count <= 1 keeps the declared name untouched (golden compatibility).
	s.Facilities = []FacilitySpec{{Name: "solo", Locations: 5, Resources: 1}}
	fs = s.expandedFacilities()
	if len(fs) != 1 || fs[0].Name != "solo" {
		t.Fatalf("singleton entry expanded to %+v", fs)
	}
}

func TestFacilityGroups(t *testing.T) {
	s := templatedSpec()
	got := s.facilityGroups()
	want := [][]int{{0, 1, 2, 3}, {4, 5, 6}, {7, 8}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
}

func TestTrackIndexSkipsTemplateReplicas(t *testing.T) {
	s := templatedSpec()
	s.Kind = KindProfit
	s.Policies = []string{"proportional"}
	s.Track = "L"
	idx, err := s.trackIndex()
	if err != nil {
		t.Fatal(err)
	}
	if idx != 7 {
		t.Fatalf("track index %d, want 7 (first L replica after 4 S + 3 M)", idx)
	}
}

func TestParameterizeRoutesShapleyPolicies(t *testing.T) {
	s := templatedSpec()
	s.CITarget = 0.02
	policies, err := s.resolvedPolicies()
	if err != nil {
		t.Fatal(err)
	}
	ap, ok := policies[0].(core.ApproxShapleyPolicy)
	if !ok {
		t.Fatalf("shapley-approx resolved to %T", policies[0])
	}
	if ap.Samples != 256 || ap.Seed != 7 || ap.CITarget != 0.02 {
		t.Errorf("spec knobs not threaded: %+v", ap)
	}
	if _, ok := policies[1].(core.ProportionalPolicy); !ok {
		t.Errorf("proportional rewired to %T", policies[1])
	}

	// method approx rewires plain "shapley" too; without it the exact
	// policy stays.
	s.Policies = []string{"shapley"}
	policies, err = s.resolvedPolicies()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := policies[0].(core.ApproxShapleyPolicy); !ok {
		t.Errorf("method approx left shapley as %T", policies[0])
	}
	s.Method = ""
	policies, err = s.resolvedPolicies()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := policies[0].(core.ShapleyPolicy); !ok {
		t.Errorf("default method rewired shapley to %T", policies[0])
	}
}

// TestExactMethodNeverSamples: "method": "exact" holds every Shapley
// policy to an exact engine. Thirty facilities of distinct sizes fit
// neither the lattice kernel nor a collapsed lattice, so the run fails
// with coalition's error instead of returning sampled shares. Where an
// exact engine fits (the kernel at 5 facilities, the collapsed lattice at
// 30 from three templates), exact prints what auto prints, under the same
// series names.
func TestExactMethodNeverSamples(t *testing.T) {
	distinct := func(n int) *Spec {
		s := &Spec{
			ID:     "distinct",
			Demand: []DemandSpec{{Name: "batch", Count: 20, Shape: 1}},
			Axis:   AxisSpec{Variable: VarThreshold, Values: []float64{0, 100}},
		}
		for i := 0; i < n; i++ {
			s.Facilities = append(s.Facilities, FacilitySpec{Name: fmt.Sprintf("F%d", i+1), Locations: 10 + i, Resources: 1})
		}
		return s
	}
	for _, policy := range []string{"shapley", "shapley-approx"} {
		s := distinct(30)
		s.Policies = []string{policy}
		s.Method = MethodExact
		if _, err := RunContext(context.Background(), s, nil); err == nil || !strings.Contains(err.Error(), "no exact engine") {
			t.Errorf("%s over 30 distinct facilities, method exact: err = %v, want coalition's no-exact-engine error", policy, err)
		}
	}

	templated := templatedSpec()
	for i := range templated.Facilities {
		templated.Facilities[i].Count = 10
	}
	for _, s := range []*Spec{distinct(5), templated} {
		s.Policies = []string{"shapley", "shapley-approx", "proportional"}
		var out [2][]byte
		for i, method := range []string{MethodAuto, MethodExact} {
			s.Method = method
			res, err := RunContext(context.Background(), s, nil)
			if err != nil {
				t.Fatalf("%s, method %s: %v", s.ID, method, err)
			}
			if out[i], err = res.JSON(); err != nil {
				t.Fatal(err)
			}
			groups := len(s.facilityGroups())
			if res.Series[0].Name != "phi1" || res.Series[groups].Name != "aphi1" {
				t.Errorf("%s, method %s: series %s and %s, want phi1 and aphi1", s.ID, method, res.Series[0].Name, res.Series[groups].Name)
			}
		}
		if !bytes.Equal(out[0], out[1]) {
			t.Errorf("%s: method exact printed\n%s\nmethod auto\n%s", s.ID, out[1], out[0])
		}
	}
}

func TestValidateApproxFields(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantSub string
	}{
		{"unknown method", func(s *Spec) { s.Method = "magic" }, "unknown method"},
		{"negative samples", func(s *Spec) { s.Samples = -1 }, "negative sample budget"},
		{"negative ci target", func(s *Spec) { s.CITarget = -0.5 }, "ci_target"},
		{"ci target not relative", func(s *Spec) { s.CITarget = 1.5 }, "relative to V(N)"},
		{"negative facility count", func(s *Spec) { s.Facilities[0].Count = -2 }, "negative count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := templatedSpec()
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
	for _, m := range []string{"", MethodAuto, MethodExact, MethodApprox} {
		s := templatedSpec()
		s.Method = m
		if err := s.Validate(); err != nil {
			t.Errorf("method %q rejected: %v", m, err)
		}
	}
}

func TestTemplatedRunGroupsSeriesAndIsDeterministic(t *testing.T) {
	s := templatedSpec()
	res, err := RunContext(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One series per template entry per policy, policy-major.
	wantNames := []string{"aphi1", "aphi2", "aphi3", "pi1", "pi2", "pi3"}
	if len(res.Series) != len(wantNames) {
		t.Fatalf("%d series, want %d", len(res.Series), len(wantNames))
	}
	for i, ser := range res.Series {
		if ser.Name != wantNames[i] {
			t.Errorf("series %d named %q, want %q", i, ser.Name, wantNames[i])
		}
	}
	// Sampled group means still satisfy efficiency: 4·aphi1 + 3·aphi2 +
	// 2·aphi3 = 1 at every point (shares are normalized by V(N)).
	counts := []float64{4, 3, 2}
	for _, x := range []float64{0, 100} {
		sum := 0.0
		for i, c := range counts {
			y, ok := res.Series[i].YAt(x)
			if !ok {
				t.Fatalf("series %s missing x=%g", res.Series[i].Name, x)
			}
			sum += c * y
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("weighted share sum at x=%g is %.12f, want 1", x, sum)
		}
	}
	// Seeded sampling: a second run is byte-identical.
	again, err := RunContext(context.Background(), templatedSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Table() != res.Table() {
		t.Error("seeded templated run is not deterministic")
	}
}

func TestApproxSpecJSONRoundTrip(t *testing.T) {
	s := templatedSpec()
	s.CITarget = 0.05
	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := ParseSpec(data)
	if err != nil {
		t.Fatalf("decode of own encoding failed: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(s, decoded) {
		t.Fatalf("approx spec round-trip mismatch:\n got %+v\nwant %+v", decoded, s)
	}
}
