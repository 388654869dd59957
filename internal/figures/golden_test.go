package figures

import (
	"os"
	"path/filepath"
	"testing"
)

// TestFiguresMatchPreRefactorGoldens is the refactor's regression gate:
// the declarative scenario engine must reproduce every paper figure's
// rendered table byte for byte against the output captured from the
// pre-refactor bespoke builders (testdata/*.golden). fig-approx, the one
// registered figure on the sampled collapsed-game path, is pinned the same
// way, against the table rendered before its prefix walks moved onto the
// incremental allocation solver.
func TestFiguresMatchPreRefactorGoldens(t *testing.T) {
	ids := []string{
		"fig2", "fig4", "fig4-strict", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig-market", "fig-approx",
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			f, err := runFigure(id)
			if err != nil {
				t.Fatal(err)
			}
			got := f.Table()
			if got != string(want) {
				t.Errorf("%s table diverged from pre-refactor golden\n got %d bytes:\n%s\nwant %d bytes:\n%s",
					id, len(got), clip(got), len(want), clip(string(want)))
			}
		})
	}
}

// clip bounds failure output to the first kilobyte.
func clip(s string) string {
	if len(s) > 1024 {
		return s[:1024] + "..."
	}
	return s
}
