package scenario_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	// Registers the figure specs the corpus is seeded from.
	_ "fedshare/internal/figures"

	"fedshare/internal/scenario"
)

// FuzzParseSpec feeds arbitrary bytes to ParseSpec: it must never panic,
// and the encoding of any spec it accepts must parse again and re-encode
// to the same bytes. The seeds are every registered figure's spec and the
// example spec files.
func FuzzParseSpec(f *testing.F) {
	for _, e := range scenario.Entries() {
		data, err := e.Spec.JSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("example specs: %v (%d files)", err, len(files))
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := scenario.ParseSpec(data)
		if err != nil {
			return
		}
		enc, err := s.JSON()
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		again, err := scenario.ParseSpec(enc)
		if err != nil {
			t.Fatalf("encoding of an accepted spec is rejected: %v\n%s", err, enc)
		}
		enc2, err := again.JSON()
		if err != nil {
			t.Fatalf("re-parsed spec does not encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding differs:\n%s\nthen\n%s", enc, enc2)
		}
	})
}
