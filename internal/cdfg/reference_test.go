package cdfg

import (
	"fmt"
	"slices"
	"testing"
)

// The references below are the precedence walks as they were written
// before TopoOrder got a heap frontier and the longest-path and
// reachability walks stopped deduplicating neighbours through a map. The
// production walks must agree with them exactly.

// refNeighbours lists v's distinct precedence neighbours over all edge
// kinds (predecessors when in is set), data first, then control, then
// temporal.
func refNeighbours(g *Graph, v NodeID, in bool) []NodeID {
	lists := [][]NodeID{g.dataOut[v], g.ctrlOut[v], g.tempOut[v]}
	if in {
		lists = [][]NodeID{g.dataIn[v], g.ctrlIn[v], g.tempIn[v]}
	}
	seen := map[NodeID]bool{}
	var out []NodeID
	for _, l := range lists {
		for _, u := range l {
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	return out
}

// refTopoOrder is Kahn's algorithm over deduplicated in-degrees with a
// linear min-scan frontier.
func refTopoOrder(g *Graph) ([]NodeID, error) {
	n := g.Len()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(refNeighbours(g, NodeID(v), true))
	}
	var frontier []NodeID
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			frontier = append(frontier, NodeID(v))
		}
	}
	order := make([]NodeID, 0, n)
	for len(frontier) > 0 {
		best := 0
		for i := 1; i < len(frontier); i++ {
			if frontier[i] < frontier[best] {
				best = i
			}
		}
		v := frontier[best]
		frontier[best] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		order = append(order, v)
		for _, w := range refNeighbours(g, v, false) {
			indeg[w]--
			if indeg[w] == 0 {
				frontier = append(frontier, w)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("cycle")
	}
	return order, nil
}

// refTemporalWeighted is the longest-path recurrence over deduplicated
// neighbours, charging tempW for a pair joined by a temporal edge.
func refTemporalWeighted(g *Graph, weight WeightFunc, tempW int) (to, from []int) {
	order, err := refTopoOrder(g)
	if err != nil {
		panic(err)
	}
	edgeW := func(a, b NodeID) int {
		if contains(g.tempOut[a], b) {
			return tempW
		}
		return 0
	}
	to = make([]int, g.Len())
	for _, v := range order {
		best := 0
		for _, p := range refNeighbours(g, v, true) {
			best = max(best, to[p]+edgeW(p, v))
		}
		to[v] = best + g.NodeWeight(weight, v)
	}
	from = make([]int, g.Len())
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		best := 0
		for _, w := range refNeighbours(g, v, false) {
			best = max(best, from[w]+edgeW(v, w))
		}
		from[v] = best + g.NodeWeight(weight, v)
	}
	return to, from
}

// refHasPath is a breadth-first search over deduplicated successors.
func refHasPath(g *Graph, src, dst NodeID) bool {
	seen := map[NodeID]bool{src: true}
	queue := []NodeID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if v == dst {
			return true
		}
		for _, w := range refNeighbours(g, v, false) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return false
}

// randomPrecedenceDAG extends randomDAG with duplicate data edges, control
// edges, and temporal edges, all from lower to higher IDs so the graph
// stays acyclic. Node IDs are then reversed half of the time so the
// topological order is not simply ascending.
func randomPrecedenceDAG(seed uint32, n int) *Graph {
	base := randomDAG(seed, n)
	rng := seed ^ 0x9e3779b9
	next := func(m int) int {
		rng = rng*1664525 + 1013904223
		return int(rng>>16) % m
	}
	reverse := seed%2 == 1
	id := func(v NodeID) NodeID {
		if reverse {
			return NodeID(base.Len()-1) - v
		}
		return v
	}
	g := New(base.Len())
	for i := 0; i < base.Len(); i++ {
		n := base.Node(id(NodeID(i)))
		g.AddNode(n.Name, n.Op)
	}
	for v := 0; v < base.Len(); v++ {
		for _, u := range base.DataIn(NodeID(v)) {
			g.MustAddEdge(id(u), id(NodeID(v)), DataEdge)
		}
	}
	for k := 0; k < n; k++ {
		a, b := NodeID(next(base.Len())), NodeID(next(base.Len()))
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		switch next(3) {
		case 0:
			g.MustAddEdge(id(a), id(b), DataEdge)
		case 1:
			_ = g.AddEdge(id(a), id(b), ControlEdge) // duplicates refused
		case 2:
			_ = g.AddEdge(id(a), id(b), TemporalEdge)
		}
	}
	return g
}

func TestTopoOrderMatchesReference(t *testing.T) {
	for seed := uint32(0); seed < 200; seed++ {
		g := randomPrecedenceDAG(seed, 10+int(seed%40))
		got, err := g.TopoOrder()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := refTopoOrder(g)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: TopoOrder = %v, reference %v", seed, got, want)
		}
	}
}

func TestTopoOrderCycleMatchesReference(t *testing.T) {
	for seed := uint32(0); seed < 50; seed++ {
		g := randomPrecedenceDAG(seed, 20)
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		// Close a cycle from the last node back to the first.
		first, last := order[0], order[len(order)-1]
		if !g.HasPath(first, last) {
			g.MustAddEdge(first, last, TemporalEdge)
		}
		g.MustAddEdge(last, first, TemporalEdge)
		if _, err := g.TopoOrder(); err == nil {
			t.Fatalf("seed %d: cycle not detected", seed)
		}
		if _, err := refTopoOrder(g); err == nil {
			t.Fatalf("seed %d: reference missed the cycle", seed)
		}
		if _, err := g.LongestTo(PathOpts{}); err == nil {
			t.Fatalf("seed %d: LongestTo accepted a cyclic graph", seed)
		}
	}
}

func TestLongestPathsMatchReference(t *testing.T) {
	weights := []WeightFunc{nil, func(op Op) int { return 1 + int(op)%3 }}
	for seed := uint32(0); seed < 100; seed++ {
		g := randomPrecedenceDAG(seed, 10+int(seed%30))
		for wi, weight := range weights {
			for _, tempW := range []int{0, 2} {
				to, from, err := g.temporalWeightedPaths(weight, tempW)
				if err != nil {
					t.Fatal(err)
				}
				wantTo, wantFrom := refTemporalWeighted(g, weight, tempW)
				if !slices.Equal(to, wantTo) || !slices.Equal(from, wantFrom) {
					t.Fatalf("seed %d weight %d tempW %d: temporal-weighted paths differ from the reference", seed, wi, tempW)
				}
				if tempW != 0 {
					continue
				}
				// With free temporal edges the weighted model is plain
				// LongestTo/LongestFrom over all edge kinds.
				lt, err := g.LongestTo(PathOpts{IncludeTemporal: true, Weight: weight})
				if err != nil {
					t.Fatal(err)
				}
				lf, err := g.LongestFrom(PathOpts{IncludeTemporal: true, Weight: weight})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(lt, wantTo) || !slices.Equal(lf, wantFrom) {
					t.Fatalf("seed %d weight %d: LongestTo/From differ from the reference", seed, wi)
				}
			}
		}
	}
}

func TestReachMatchesReference(t *testing.T) {
	for seed := uint32(0); seed < 60; seed++ {
		g := randomPrecedenceDAG(seed, 12+int(seed%20))
		r := g.NewReach()
		for a := 0; a < g.Len(); a++ {
			for b := 0; b < g.Len(); b++ {
				src, dst := NodeID(a), NodeID(b)
				want := refHasPath(g, src, dst)
				if got := r.Path(src, dst, nil); got != want {
					t.Fatalf("seed %d: Reach.Path(%d,%d) = %v, reference %v", seed, a, b, got, want)
				}
				if got := g.HasPath(src, dst); got != want {
					t.Fatalf("seed %d: HasPath(%d,%d) = %v, reference %v", seed, a, b, got, want)
				}
			}
		}
	}
}

// Extra edges extend reachability as if they were inserted.
func TestReachConsidersExtraEdges(t *testing.T) {
	for seed := uint32(0); seed < 40; seed++ {
		g := randomPrecedenceDAG(seed, 16)
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		var extra []Edge
		withExtra := g.Clone()
		for i := 0; i+3 < len(order); i += 5 {
			a, b := order[i], order[i+3]
			if contains(withExtra.tempOut[a], b) {
				continue
			}
			extra = append(extra, Edge{From: a, To: b, Kind: TemporalEdge})
			withExtra.MustAddEdge(a, b, TemporalEdge)
		}
		r := g.NewReach()
		for a := 0; a < g.Len(); a++ {
			for b := 0; b < g.Len(); b++ {
				if got, want := r.Path(NodeID(a), NodeID(b), extra), refHasPath(withExtra, NodeID(a), NodeID(b)); got != want {
					t.Fatalf("seed %d: Path(%d,%d) with extra edges = %v, want %v", seed, a, b, got, want)
				}
			}
		}
	}
}

// refLevels is Levels as it was written before ConeLevels: two fresh
// O(|V|) arrays per call, the cone marked by level >= 0.
func refLevels(g *Graph, root NodeID) ([]int, error) {
	level := make([]int, len(g.nodes))
	for i := range level {
		level[i] = -1
	}
	level[root] = 0
	cone := []NodeID{root}
	for i := 0; i < len(cone); i++ {
		for _, u := range g.dataIn[cone[i]] {
			if level[u] < 0 {
				level[u] = 0
				cone = append(cone, u)
			}
		}
	}
	pending := make([]int32, len(g.nodes))
	for _, v := range cone {
		for _, w := range g.dataOut[v] {
			if level[w] >= 0 {
				pending[v]++
			}
		}
	}
	ready := []NodeID{root}
	if pending[root] != 0 {
		ready = nil
	}
	for i := 0; i < len(ready); i++ {
		w := ready[i]
		for _, u := range g.dataIn[w] {
			if level[w]+1 > level[u] {
				level[u] = level[w] + 1
			}
			if pending[u]--; pending[u] == 0 {
				ready = append(ready, u)
			}
		}
	}
	if len(ready) != len(cone) {
		return nil, fmt.Errorf("data cycle")
	}
	return level, nil
}

// TestConeLevelsMatchReference reuses one ConeLevels across random graphs
// of growing and shrinking size (duplicate data edges included) and
// requires every root's levels to equal the reference, through both
// ConeLevels.Level and Graph.Levels.
func TestConeLevelsMatchReference(t *testing.T) {
	var c ConeLevels
	for i, size := range []int{40, 8, 25, 60, 5, 33} {
		g := randomPrecedenceDAG(uint32(i+1), size)
		for root := NodeID(0); int(root) < g.Len(); root++ {
			want, err := refLevels(g, root)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Compute(g, root); err != nil {
				t.Fatal(err)
			}
			full, err := g.Levels(root)
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if got := c.Level(NodeID(v)); got != want[v] || full[v] != want[v] {
					t.Fatalf("graph %d root %d: level[%d] = %d (Levels %d), want %d", i, root, v, got, full[v], want[v])
				}
			}
		}
	}
}

// When the stamp wraps, marks left under small stamps must not leak into
// later cones: the first cone marks every node with stamp 1, and the
// roots after the wrap must still match the reference.
func TestConeLevelsStampWrap(t *testing.T) {
	g := randomPrecedenceDAG(3, 30)
	topo, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	var c ConeLevels
	if err := c.Compute(g, topo[len(topo)-1]); err != nil {
		t.Fatal(err)
	}
	c.stamp = ^uint32(0)
	for root := NodeID(0); int(root) < g.Len(); root++ {
		want, err := refLevels(g, root)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Compute(g, root); err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if got := c.Level(NodeID(v)); got != want[v] {
				t.Fatalf("root %d after the wrap: level[%d] = %d, want %d", root, v, got, want[v])
			}
		}
	}
}

// A data cycle inside the cone fails Compute as it fails the reference,
// and the next Compute on an acyclic cone is unaffected.
func TestConeLevelsCycleMatchesReference(t *testing.T) {
	g := randomPrecedenceDAG(7, 20)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	a, b := order[len(order)/2], order[len(order)/2+1]
	g.MustAddEdge(a, b, DataEdge)
	g.MustAddEdge(b, a, DataEdge)
	var c ConeLevels
	cyclic := 0
	for root := NodeID(0); int(root) < g.Len(); root++ {
		_, refErr := refLevels(g, root)
		if err := c.Compute(g, root); (err != nil) != (refErr != nil) {
			t.Fatalf("root %d: Compute error %v, reference error %v", root, err, refErr)
		}
		if refErr != nil {
			cyclic++
			continue
		}
		want, _ := refLevels(g, root)
		for v := range want {
			if got := c.Level(NodeID(v)); got != want[v] {
				t.Fatalf("root %d: level[%d] = %d, want %d", root, v, got, want[v])
			}
		}
	}
	if cyclic == 0 || cyclic == g.Len() {
		t.Fatalf("%d of %d cones cyclic; the test needs both kinds", cyclic, g.Len())
	}
}
