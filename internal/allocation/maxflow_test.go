package allocation

import (
	"fmt"
	"testing"

	"fedshare/internal/stats"
)

// Dinic's maximum-flow algorithm on small integer networks: the independent
// engine behind the flow oracles in verify_oracle_test.go (verifyAssignment
// and solveFlow), kept next to them with its own tests.

// flowGraph is a flow network under construction. Vertices are dense
// integers; add edges with addEdge, then call maxFlow.
type flowGraph struct {
	n     int
	heads [][]int // adjacency: indices into edges
	edges []flowEdge
}

type flowEdge struct {
	to, rev int // rev: index of the reverse edge in heads[to]
	cap     int
}

// newFlowGraph creates a network with n vertices.
func newFlowGraph(n int) *flowGraph {
	if n <= 0 {
		panic("maxflow: need at least one vertex")
	}
	return &flowGraph{n: n, heads: make([][]int, n)}
}

// addEdge adds a directed edge u -> v with the given capacity and returns
// its handle for later flow inspection.
func (g *flowGraph) addEdge(u, v, capacity int) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("maxflow: edge (%d,%d) out of range", u, v))
	}
	if capacity < 0 {
		panic("maxflow: negative capacity")
	}
	id := len(g.edges)
	g.edges = append(g.edges, flowEdge{to: v, rev: len(g.heads[v]), cap: capacity})
	g.heads[u] = append(g.heads[u], id)
	rid := len(g.edges)
	g.edges = append(g.edges, flowEdge{to: u, rev: len(g.heads[u]) - 1, cap: 0})
	g.heads[v] = append(g.heads[v], rid)
	return id
}

// flow returns the flow currently routed through the edge handle returned
// by addEdge (call after maxFlow).
func (g *flowGraph) flow(edgeID int) int {
	// Flow on a forward edge equals the residual capacity of its twin.
	return g.edges[edgeID^1].cap
}

// maxFlow computes the maximum s-t flow (Dinic's algorithm: BFS level
// graph + DFS blocking flows). It may be called once per graph.
func (g *flowGraph) maxFlow(s, t int) int {
	if s == t {
		panic("maxflow: source equals sink")
	}
	total := 0
	level := make([]int, g.n)
	iter := make([]int, g.n)
	queue := make([]int, 0, g.n)

	bfs := func() bool {
		for i := range level {
			level[i] = -1
		}
		level[s] = 0
		queue = queue[:0]
		queue = append(queue, s)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, id := range g.heads[u] {
				e := g.edges[id]
				if e.cap > 0 && level[e.to] < 0 {
					level[e.to] = level[u] + 1
					queue = append(queue, e.to)
				}
			}
		}
		return level[t] >= 0
	}

	var dfs func(u, limit int) int
	dfs = func(u, limit int) int {
		if u == t {
			return limit
		}
		for ; iter[u] < len(g.heads[u]); iter[u]++ {
			id := g.heads[u][iter[u]]
			e := &g.edges[id]
			if e.cap <= 0 || level[e.to] != level[u]+1 {
				continue
			}
			pushed := limit
			if e.cap < pushed {
				pushed = e.cap
			}
			got := dfs(e.to, pushed)
			if got > 0 {
				e.cap -= got
				g.edges[g.heads[e.to][e.rev]].cap += got
				return got
			}
		}
		return 0
	}

	const inf = int(^uint(0) >> 1)
	for bfs() {
		for i := range iter {
			iter[i] = 0
		}
		for {
			f := dfs(s, inf)
			if f == 0 {
				break
			}
			total += f
		}
	}
	return total
}

// bMatching solves the degree-constrained bipartite assignment underlying
// the d = 1 allocation problem: left vertices (experiments) with capacities
// leftCap, right vertices (locations) with capacities rightCap, unit edges
// between every pair. It returns the maximum number of (experiment,
// location) pairs and the per-left degrees.
func bMatching(leftCap, rightCap []int) (total int, leftDeg []int) {
	nl, nr := len(leftCap), len(rightCap)
	leftDeg = make([]int, nl)
	if nl == 0 || nr == 0 {
		return 0, leftDeg
	}
	// Vertices: 0 = source, 1..nl = left, nl+1..nl+nr = right, last = sink.
	g := newFlowGraph(nl + nr + 2)
	s, t := 0, nl+nr+1
	leftEdges := make([]int, nl)
	for i, c := range leftCap {
		leftEdges[i] = g.addEdge(s, 1+i, c)
	}
	for j, c := range rightCap {
		g.addEdge(1+nl+j, t, c)
	}
	for i := 0; i < nl; i++ {
		for j := 0; j < nr; j++ {
			g.addEdge(1+i, 1+nl+j, 1)
		}
	}
	total = g.maxFlow(s, t)
	for i := range leftDeg {
		leftDeg[i] = g.flow(leftEdges[i])
	}
	return total, leftDeg
}

func TestMaxflowSimplePath(t *testing.T) {
	g := newFlowGraph(3)
	g.addEdge(0, 1, 5)
	g.addEdge(1, 2, 3)
	if got := g.maxFlow(0, 2); got != 3 {
		t.Errorf("flow = %d, want 3", got)
	}
}

func TestMaxflowClassicNetwork(t *testing.T) {
	// CLRS figure: max flow 23.
	g := newFlowGraph(6)
	g.addEdge(0, 1, 16)
	g.addEdge(0, 2, 13)
	g.addEdge(1, 2, 10)
	g.addEdge(2, 1, 4)
	g.addEdge(1, 3, 12)
	g.addEdge(3, 2, 9)
	g.addEdge(2, 4, 14)
	g.addEdge(4, 3, 7)
	g.addEdge(3, 5, 20)
	g.addEdge(4, 5, 4)
	if got := g.maxFlow(0, 5); got != 23 {
		t.Errorf("flow = %d, want 23", got)
	}
}

func TestMaxflowDisconnected(t *testing.T) {
	g := newFlowGraph(4)
	g.addEdge(0, 1, 10)
	g.addEdge(2, 3, 10)
	if got := g.maxFlow(0, 3); got != 0 {
		t.Errorf("flow = %d, want 0", got)
	}
}

func TestMaxflowEdgeFlowInspection(t *testing.T) {
	g := newFlowGraph(4)
	a := g.addEdge(0, 1, 2)
	b := g.addEdge(0, 2, 2)
	g.addEdge(1, 3, 1)
	g.addEdge(2, 3, 5)
	if got := g.maxFlow(0, 3); got != 3 {
		t.Fatalf("flow = %d, want 3", got)
	}
	if g.flow(a) != 1 || g.flow(b) != 2 {
		t.Errorf("edge flows = %d, %d; want 1, 2", g.flow(a), g.flow(b))
	}
}

func TestMaxflowPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { newFlowGraph(0) },
		func() { newFlowGraph(2).addEdge(0, 5, 1) },
		func() { newFlowGraph(2).addEdge(0, 1, -1) },
		func() { newFlowGraph(2).maxFlow(1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestBMatchingBasics(t *testing.T) {
	// 2 experiments wanting up to 3 locations each; 3 locations with 1
	// slot each -> max 3 pairs.
	total, deg := bMatching([]int{3, 3}, []int{1, 1, 1})
	if total != 3 {
		t.Errorf("total = %d, want 3", total)
	}
	if deg[0]+deg[1] != 3 {
		t.Errorf("degrees %v", deg)
	}
	// Degenerate inputs.
	if total, _ := bMatching(nil, []int{1}); total != 0 {
		t.Error("empty left must be 0")
	}
	if total, _ := bMatching([]int{1}, nil); total != 0 {
		t.Error("empty right must be 0")
	}
}

func TestBMatchingAgainstFormula(t *testing.T) {
	// With uniform unconstrained left caps, max pairs = Σ min(rightCap, m).
	rng := stats.NewRand(19)
	for trial := 0; trial < 50; trial++ {
		m := 1 + rng.Intn(6)
		nr := 1 + rng.Intn(6)
		left := make([]int, m)
		for i := range left {
			left[i] = nr // can use every location once
		}
		right := make([]int, nr)
		want := 0
		for j := range right {
			right[j] = 1 + rng.Intn(4)
			k := right[j]
			if k > m {
				k = m
			}
			want += k
		}
		got, deg := bMatching(left, right)
		if got != want {
			t.Fatalf("trial %d: flow %d != formula %d (right=%v)", trial, got, want, right)
		}
		sum := 0
		for _, d := range deg {
			sum += d
		}
		if sum != got {
			t.Fatalf("trial %d: degrees sum %d != total %d", trial, sum, got)
		}
	}
}

func TestBMatchingCappedLeft(t *testing.T) {
	// Left caps bind: 3 experiments each capped at 2, 10 abundant slots.
	total, deg := bMatching([]int{2, 2, 2}, []int{10, 10})
	// Each experiment can use each location once: cap min(2, 2 locations)=2.
	if total != 6 {
		t.Errorf("total = %d, want 6", total)
	}
	for i, d := range deg {
		if d != 2 {
			t.Errorf("deg[%d] = %d, want 2", i, d)
		}
	}
}

func BenchmarkBMatching50x100(b *testing.B) {
	left := make([]int, 50)
	right := make([]int, 100)
	for i := range left {
		left[i] = 100
	}
	for j := range right {
		right[j] = 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bMatching(left, right)
	}
}
