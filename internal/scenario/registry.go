package scenario

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Entry is one registered scenario: a declarative Spec plus its listing
// marks.
type Entry struct {
	// ID is the registry key (fedsim -fig / -list).
	ID string
	// Title describes the scenario in listings; it defaults to the spec
	// title.
	Title string
	// Spec is the declarative definition.
	Spec *Spec
	// Variant marks an alternate convention of another scenario (e.g.
	// fig4-strict): listed and runnable by ID, excluded from "run all".
	Variant bool
	// Extension marks a scenario beyond the paper's evaluation.
	Extension bool
}

var (
	regMu    sync.RWMutex
	regOrder []string
	regByID  = map[string]Entry{}
)

// Register adds a scenario to the registry, validating its spec eagerly.
// Registration order is preserved in IDs and Entries.
func Register(e Entry) error {
	if e.ID == "" {
		return fmt.Errorf("scenario: registering entry with no id")
	}
	if e.Spec == nil {
		return fmt.Errorf("scenario: entry %s has no spec", e.ID)
	}
	if e.Spec.ID != e.ID {
		return fmt.Errorf("scenario: entry id %s does not match spec id %s", e.ID, e.Spec.ID)
	}
	if err := e.Spec.Validate(); err != nil {
		return err
	}
	if e.Title == "" {
		e.Title = e.Spec.Title
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := regByID[e.ID]; dup {
		return fmt.Errorf("scenario: duplicate registration of %s", e.ID)
	}
	regByID[e.ID] = e
	regOrder = append(regOrder, e.ID)
	return nil
}

// MustRegister is Register, panicking on error — for package-init
// registration of the built-in figure set.
func MustRegister(e Entry) {
	if err := Register(e); err != nil {
		panic(err)
	}
}

// ByID looks up a registered scenario; the error enumerates the known IDs
// so CLI messages stay in sync with the registry.
func ByID(id string) (Entry, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	if e, ok := regByID[id]; ok {
		return e, nil
	}
	known := append([]string(nil), regOrder...)
	sort.Strings(known)
	return Entry{}, fmt.Errorf("scenario: unknown scenario %q (have %s)", id, strings.Join(known, ", "))
}

// IDs returns the registered scenario IDs in registration order.
func IDs() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]string(nil), regOrder...)
}

// Entries returns the registered scenarios in registration order.
func Entries() []Entry {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Entry, 0, len(regOrder))
	for _, id := range regOrder {
		out = append(out, regByID[id])
	}
	return out
}
