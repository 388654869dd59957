package allocation

// Memo, DefaultMemo and MemoStats are an empty stand-in for the
// allocation memo, which is gone: every V(S) is solved from its own pool.
// They exist only because cmd/fedbench, which resets the memo before each
// pass and reports its counters, names them; ROADMAP item 9 deletes them
// with those calls.

// MemoStats is the stand-in's counter snapshot; it is always zero.
type MemoStats struct{ Hits, Misses int64 }

// HitRate returns 0: there is no memo to hit.
func (MemoStats) HitRate() float64 { return 0 }

// Memo is the stand-in's type; it holds nothing.
type Memo struct{}

// DefaultMemo is the stand-in cmd/fedbench resets and reads.
var DefaultMemo Memo

// Stats returns zero counters.
func (*Memo) Stats() MemoStats { return MemoStats{} }

// Reset does nothing.
func (*Memo) Reset() {}
