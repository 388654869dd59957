package obs

import (
	"bytes"
	"log"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestSpanRecordsHistogram(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("solve")
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d < time.Millisecond {
		t.Errorf("duration = %v", d)
	}
	h := r.spanSeconds().With("solve")
	if h.Count() != 1 {
		t.Errorf("histogram count = %d, want 1", h.Count())
	}
	if h.Sum() < 0.001 {
		t.Errorf("histogram sum = %g", h.Sum())
	}
}

// TestSpanLogsDebugRecord swaps slog's default logger, so it must not run
// in parallel; it restores the logger, and the log package's output that
// slog.SetDefault redirects, when it ends.
func TestSpanLogsDebugRecord(t *testing.T) {
	prev, out, flags := slog.Default(), log.Writer(), log.Flags()
	t.Cleanup(func() {
		slog.SetDefault(prev)
		log.SetOutput(out)
		log.SetFlags(flags)
	})
	var buf bytes.Buffer
	slog.SetDefault(slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug})))
	r := NewRegistry()
	r.StartSpan("embed").Attr("slice", "exp1").Attr("sites", 5).Attr("note", "two words").End()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("lines = %q", lines)
	}
	l := lines[0]
	for _, want := range []string{"level=DEBUG", "msg=span", "span=embed", "dur=", "slice=exp1", "sites=5", `note="two words"`} {
		if !strings.Contains(l, want) {
			t.Errorf("record %q missing %q", l, want)
		}
	}
	if r.spanSeconds().With("embed").Count() != 1 {
		t.Error("histogram must record beside the debug record")
	}
}

func TestSpanNoSinkIsQuiet(t *testing.T) {
	r := NewRegistry()
	// With slog's default logger at info, attrs are dropped unkept.
	sp := r.StartSpan("quiet").Attr("k", "v")
	if len(sp.attrs) != 0 {
		t.Error("attrs should not be retained while debug is off")
	}
	sp.End()
	if r.spanSeconds().With("quiet").Count() != 1 {
		t.Error("histogram must still record while debug is off")
	}
}
