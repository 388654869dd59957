package policy

import (
	"math"
	"testing"

	"fedshare/internal/core"
)

func fig4Facilities() []core.Facility {
	return []core.Facility{
		{Name: "F1", Locations: 100, Resources: 1},
		{Name: "F2", Locations: 400, Resources: 1},
		{Name: "F3", Locations: 800, Resources: 1},
	}
}

func TestBuildWeightTable(t *testing.T) {
	tbl, err := BuildWeightTable(fig4Facilities(), []float64{0, 500, 1250}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 || len(tbl.Facilities) != 3 {
		t.Fatalf("table shape: %d rows, %d facilities", len(tbl.Rows), len(tbl.Facilities))
	}
	// Rows sorted by threshold; anchors from Fig 4.
	wantShares := [][]float64{
		{1.0 / 13, 4.0 / 13, 8.0 / 13},
		{4.0 / 39, 17.0 / 78, 53.0 / 78},
		{1.0 / 3, 1.0 / 3, 1.0 / 3},
	}
	for r, want := range wantShares {
		for i := range want {
			if math.Abs(tbl.Rows[r].Shares[i]-want[i]) > 1e-9 {
				t.Errorf("row %d shares %v, want %v", r, tbl.Rows[r].Shares, want)
				break
			}
		}
	}
}

func TestBuildWeightTableValidation(t *testing.T) {
	if _, err := BuildWeightTable(fig4Facilities(), nil, []int{1}); err == nil {
		t.Error("empty thresholds must fail")
	}
	if _, err := BuildWeightTable(fig4Facilities(), []float64{0}, nil); err == nil {
		t.Error("empty volumes must fail")
	}
	if _, err := BuildWeightTable(fig4Facilities(), []float64{-1}, []int{1}); err == nil {
		t.Error("negative threshold must fail")
	}
	if _, err := BuildWeightTable(fig4Facilities(), []float64{0}, []int{0}); err == nil {
		t.Error("zero volume must fail")
	}
}
