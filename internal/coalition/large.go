package coalition

// MemberGame is a coalitional game whose characteristic function is
// evaluated over explicit member lists instead of combin.Set bitmasks. It
// is the interface of the large-n tier: a Set caps the exact engines at 64
// players, while a member list represents coalitions of any size, which is
// what the sampler walks.
//
// Implementations must treat the member slice as read-only and must not
// retain it — the samplers pass reused permutation-prefix buffers. The
// member order carries no meaning; implementations must return the same
// value for any ordering of the same players. V(∅) must be 0, and Value
// calls must be safe for concurrent use (the samplers are parallel).
type MemberGame interface {
	// N returns the number of players.
	N() int
	// ValueMembers returns V(S) for the coalition listing exactly the
	// players in members (no duplicates).
	ValueMembers(members []int) float64
}

// MemberFunc adapts a plain function to the MemberGame interface.
type MemberFunc struct {
	Players int
	V       func(members []int) float64
}

// N implements MemberGame.
func (f MemberFunc) N() int { return f.Players }

// ValueMembers implements MemberGame.
func (f MemberFunc) ValueMembers(members []int) float64 { return f.V(members) }
