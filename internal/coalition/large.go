package coalition

// MemberGame is the coalitional game interface: a player count and a
// characteristic function evaluated over explicit member lists. A member
// list represents coalitions of any size, where a combin.Set bitmask stops
// at 64 players, and it is what the sampler walks. A game that keeps its
// own dense Table (core.Model does) hands it to the exact kernel through a
// Table method.
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
