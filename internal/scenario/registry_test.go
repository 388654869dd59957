package scenario

import (
	"context"
	"strings"
	"testing"
)

func TestRegisterRejectsMalformedEntries(t *testing.T) {
	if err := Register(Entry{}); err == nil {
		t.Error("entry with no id must be rejected")
	}
	if err := Register(Entry{ID: "no-spec"}); err == nil ||
		!strings.Contains(err.Error(), "has no spec") {
		t.Errorf("entry with no spec: got %v", err)
	}
	mismatch := testSpec()
	if err := Register(Entry{ID: "other-id", Spec: mismatch}); err == nil ||
		!strings.Contains(err.Error(), "does not match spec id") {
		t.Errorf("entry/spec id mismatch: got %v", err)
	}
	invalid := testSpec()
	invalid.ID = "invalid-entry"
	invalid.Policies = []string{"dictator"}
	if err := Register(Entry{ID: "invalid-entry", Spec: invalid}); err == nil {
		t.Error("registration must validate the spec eagerly")
	}
	if _, err := ByID("invalid-entry"); err == nil {
		t.Error("failed registration must not leave a registry entry behind")
	}
}

func TestRegisterDuplicateAndOrder(t *testing.T) {
	a := testSpec()
	a.ID = "reg-test-a"
	b := testSpec()
	b.ID = "reg-test-b"
	if err := Register(Entry{ID: "reg-test-a", Spec: a}); err != nil {
		t.Fatal(err)
	}
	if err := Register(Entry{ID: "reg-test-b", Spec: b}); err != nil {
		t.Fatal(err)
	}
	dup := testSpec()
	dup.ID = "reg-test-a"
	if err := Register(Entry{ID: "reg-test-a", Spec: dup}); err == nil ||
		!strings.Contains(err.Error(), "duplicate registration") {
		t.Errorf("duplicate registration: got %v", err)
	}

	ids := IDs()
	posA, posB := -1, -1
	for i, id := range ids {
		switch id {
		case "reg-test-a":
			posA = i
		case "reg-test-b":
			posB = i
		}
	}
	if posA == -1 || posB == -1 || posA >= posB {
		t.Errorf("registration order not preserved in IDs(): %v", ids)
	}
	entries := Entries()
	if len(entries) != len(ids) {
		t.Fatalf("Entries()/IDs() length mismatch: %d vs %d", len(entries), len(ids))
	}
	for i, e := range entries {
		if e.ID != ids[i] {
			t.Errorf("Entries()[%d].ID = %s, want %s", i, e.ID, ids[i])
		}
	}

	e, err := ByID("reg-test-a")
	if err != nil {
		t.Fatal(err)
	}
	if e.Title != "test scenario" {
		t.Errorf("entry title not defaulted from spec: %q", e.Title)
	}
	res, err := RunContext(context.Background(), e.Spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "reg-test-a" || len(res.Series) == 0 {
		t.Errorf("entry run produced unexpected result: id=%s series=%d", res.ID, len(res.Series))
	}
}

func TestByIDUnknownListsKnownIDs(t *testing.T) {
	s := testSpec()
	s.ID = "reg-test-known"
	if err := Register(Entry{ID: "reg-test-known", Spec: s}); err != nil {
		t.Fatal(err)
	}
	_, err := ByID("no-such-scenario")
	if err == nil {
		t.Fatal("unknown id must error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"no-such-scenario"`) || !strings.Contains(msg, "reg-test-known") {
		t.Errorf("error should name the bad id and enumerate known ids: %q", msg)
	}
}
