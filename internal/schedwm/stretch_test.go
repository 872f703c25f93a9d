package schedwm

import (
	"fmt"
	"slices"
	"testing"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/prng"
)

// succsAll lists v's distinct precedence successors over all edge kinds.
func succsAll(g *cdfg.Graph, v cdfg.NodeID) []cdfg.NodeID {
	seen := map[cdfg.NodeID]bool{}
	var out []cdfg.NodeID
	for _, l := range [][]cdfg.NodeID{g.DataOut(v), g.ControlOut(v), g.TemporalOut(v)} {
		for _, u := range l {
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	return out
}

// pathsWithPending is the full recompute encode once ran after every
// drawn edge, kept as the reference for noStretch: weighted longest paths
// over g (all edge kinds) extended by the pending watermark edges, each
// temporal or pending edge charged unitW.
func pathsWithPending(g *cdfg.Graph, weight cdfg.WeightFunc, pending []cdfg.Edge, unitW int) (toW, fromW []int, err error) {
	n := g.Len()
	succ := make([][]cdfg.NodeID, n)
	pred := make([][]cdfg.NodeID, n)
	extra := make(map[[2]cdfg.NodeID]bool, len(pending))
	for v := 0; v < n; v++ {
		succ[v] = succsAll(g, cdfg.NodeID(v))
		for _, w := range g.TemporalOut(cdfg.NodeID(v)) {
			extra[[2]cdfg.NodeID{cdfg.NodeID(v), w}] = true
		}
	}
	for _, e := range pending {
		succ[e.From] = append(succ[e.From], e.To)
		extra[[2]cdfg.NodeID{e.From, e.To}] = true
	}
	indeg := make([]int, n)
	for v := range succ {
		for _, w := range succ[v] {
			pred[w] = append(pred[w], cdfg.NodeID(v))
			indeg[w]++
		}
	}
	wOf := func(v cdfg.NodeID) int {
		op := g.Node(v).Op
		if !op.IsComputational() {
			return 0
		}
		if weight != nil {
			return weight(op)
		}
		return 1
	}
	edgeW := func(a, b cdfg.NodeID) int {
		if extra[[2]cdfg.NodeID{a, b}] {
			return unitW
		}
		return 0
	}
	var frontier, order []cdfg.NodeID
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			frontier = append(frontier, cdfg.NodeID(v))
		}
	}
	for len(frontier) > 0 {
		v := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		order = append(order, v)
		for _, w := range succ[v] {
			indeg[w]--
			if indeg[w] == 0 {
				frontier = append(frontier, w)
			}
		}
	}
	if len(order) != n {
		return nil, nil, fmt.Errorf("schedwm: pending edges create a cycle")
	}
	toW = make([]int, n)
	for _, v := range order {
		best := 0
		for _, p := range pred[v] {
			best = max(best, toW[p]+edgeW(p, v))
		}
		toW[v] = best + wOf(v)
	}
	fromW = make([]int, n)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		best := 0
		for _, w := range succ[v] {
			best = max(best, fromW[w]+edgeW(v, w))
		}
		fromW[v] = best + wOf(v)
	}
	return toW, fromW, nil
}

// Property: after every edge drawn the way encode draws them (no cycle,
// not already ordered), the incrementally raised toW/fromW equal the full
// recompute exactly, and the oracle's shared slices stay untouched. The
// designs are random layered ones, half of them carrying the temporal
// edges of earlier watermarks, under unit and non-unit weights.
func TestNoStretchMatchesFullRecompute(t *testing.T) {
	mix := designs.OpMix{Add: 1, Mul: 1, Logic: 1, Shift: 1, Cmp: 1, Load: 1, Store: 1, Branch: 1}
	weights := []cdfg.WeightFunc{nil, func(op cdfg.Op) int { return 1 + int(op)%4 }}
	for seed := 0; seed < 24; seed++ {
		ops := 60 + seed*37%240
		g := designs.Layered(designs.LayeredConfig{
			Name: fmt.Sprintf("nostretch-%d", seed), Ops: ops, Width: 3 + seed%7, Inputs: 4 + seed%5, Mix: mix,
		})
		if seed%2 == 1 {
			cp := mustCP(t, g)
			cfg := Config{Tau: 12, K: 3, Epsilon: 0.2, Budget: cp + cp/2 + 2}
			if _, err := EmbedMany(g, prng.Signature(fmt.Sprintf("earlier-%d", seed)), cfg, 3); err != nil {
				t.Fatalf("seed %d: earlier watermarks: %v", seed, err)
			}
			if len(g.TemporalEdges()) == 0 {
				t.Fatalf("seed %d: earlier watermarks left no temporal edge", seed)
			}
		}
		comp := g.Computational()
		for wi, weight := range weights {
			unitW := 1
			if weight != nil {
				unitW = weight(cdfg.OpUnit)
			}
			toW, fromW, err := g.Oracle().TemporalWeighted(weight, unitW)
			if err != nil {
				t.Fatal(err)
			}
			sharedTo, sharedFrom := slices.Clone(toW), slices.Clone(fromW)
			s := &noStretch{g: g, weight: weight, unitW: unitW, toW: toW, fromW: fromW}
			reach := g.NewReach()
			bs := prng.MustBitstream([]byte(fmt.Sprintf("draws-%d-%d", seed, wi)))
			var pending []cdfg.Edge
			for try := 0; try < 400 && len(pending) < 16; try++ {
				a, b := comp[bs.Intn(len(comp))], comp[bs.Intn(len(comp))]
				if reach.Path(b, a, pending) || reach.Path(a, b, pending) {
					continue
				}
				pending = append(pending, cdfg.Edge{From: a, To: b, Kind: cdfg.TemporalEdge})
				s.add(pending, a, b)
				wantTo, wantFrom, err := pathsWithPending(g, weight, pending, unitW)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(s.toW, wantTo) || !slices.Equal(s.fromW, wantFrom) {
					t.Fatalf("seed %d weight %d: paths differ from the full recompute after %d edges", seed, wi, len(pending))
				}
			}
			if len(pending) < 8 {
				t.Fatalf("seed %d weight %d: only %d edges drawn", seed, wi, len(pending))
			}
			if !slices.Equal(toW, sharedTo) || !slices.Equal(fromW, sharedFrom) {
				t.Fatalf("seed %d weight %d: the oracle's shared paths were written", seed, wi)
			}
		}
	}
}

// Before any edge is drawn the oracle's temporal-weighted paths are the
// full recompute with no pending edge.
func TestTemporalWeightedMatchesFullRecompute(t *testing.T) {
	g := designs.Layered(designs.MediaBench()[0].Cfg)
	cp := mustCP(t, g)
	if _, err := EmbedMany(g, prng.Signature("earlier"), Config{Tau: 12, K: 3, Epsilon: 0.2, Budget: cp + cp/2 + 2}, 4); err != nil {
		t.Fatal(err)
	}
	toW, fromW, err := g.Oracle().TemporalWeighted(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantTo, wantFrom, err := pathsWithPending(g, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(toW, wantTo) || !slices.Equal(fromW, wantFrom) {
		t.Fatal("oracle temporal-weighted paths differ from the full recompute")
	}
}

// A watermark whose edges would close a cycle is refused, whether the
// cycle runs through the design's own precedence or through the
// watermark's earlier edges.
func TestCommitEdgesRefusesCycle(t *testing.T) {
	g := designs.Layered(designs.MediaBench()[0].Cfg)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	var a, b cdfg.NodeID = cdfg.None, cdfg.None
	for _, v := range order {
		if u := g.DataIn(v); len(u) > 0 && g.Node(u[0]).Op.IsComputational() && g.Node(v).Op.IsComputational() {
			a, b = u[0], v
			break
		}
	}
	if a == cdfg.None {
		t.Fatal("no computational data edge")
	}
	against := &Watermark{Edges: []cdfg.Edge{{From: b, To: a, Kind: cdfg.TemporalEdge}}}
	if err := CommitEdges(g.Clone(), against); err == nil {
		t.Fatal("edge against a data edge committed")
	}

	// Two mutually unordered nodes: x->y commits, then y->x is refused.
	var x, y cdfg.NodeID = cdfg.None, cdfg.None
	comp := g.Computational()
	for i := 0; i < len(comp) && x == cdfg.None; i++ {
		for j := i + 1; j < len(comp); j++ {
			if !g.HasPath(comp[i], comp[j]) && !g.HasPath(comp[j], comp[i]) {
				x, y = comp[i], comp[j]
				break
			}
		}
	}
	if x == cdfg.None {
		t.Fatal("no unordered pair")
	}
	h := g.Clone()
	loop := &Watermark{Edges: []cdfg.Edge{
		{From: x, To: y, Kind: cdfg.TemporalEdge},
		{From: y, To: x, Kind: cdfg.TemporalEdge},
	}}
	if err := CommitEdges(h, loop); err == nil {
		t.Fatal("self-cycling watermark committed")
	}
	if _, err := h.TopoOrder(); err != nil {
		t.Fatalf("refused commit left a cycle: %v", err)
	}

	ok := &Watermark{Edges: loop.Edges[:1]}
	k := g.Clone()
	if err := CommitEdges(k, ok); err != nil {
		t.Fatalf("acyclic watermark refused: %v", err)
	}
	if len(k.TemporalEdges()) != 1 {
		t.Fatalf("committed %d temporal edges, want 1", len(k.TemporalEdges()))
	}
}
