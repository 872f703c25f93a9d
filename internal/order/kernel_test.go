package order

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
)

// randomDAG builds a seeded random acyclic graph with n nodes whose IDs
// are a random permutation of a topological order. It has primary
// inputs, operations with one to three data inputs (some consuming the
// same value twice), and control and temporal edges, which the ordering
// kernel must ignore.
func randomDAG(seed int64, n int) *cdfg.Graph {
	r := rand.New(rand.NewSource(seed))
	ops := []cdfg.Op{cdfg.OpAdd, cdfg.OpSub, cdfg.OpMul, cdfg.OpMulConst, cdfg.OpShift, cdfg.OpAnd, cdfg.OpCmp}
	pos := r.Perm(n) // pos[id] is the node's topological position
	atPos := make([]cdfg.NodeID, n)
	g := cdfg.New(n)
	inputs := 1 + n/8
	for id := 0; id < n; id++ {
		op := ops[r.Intn(len(ops))]
		if pos[id] < inputs {
			op = cdfg.OpInput
		}
		g.AddNode(fmt.Sprintf("n%d", id), op)
		atPos[pos[id]] = cdfg.NodeID(id)
	}
	for p := inputs; p < n; p++ {
		v := atPos[p]
		for i, fanin := 0, 1+r.Intn(3); i < fanin; i++ {
			g.MustAddEdge(atPos[r.Intn(p)], v, cdfg.DataEdge)
		}
		if r.Intn(4) == 0 { // a second use of an existing input slot
			g.MustAddEdge(g.DataIn(v)[0], v, cdfg.DataEdge)
		}
		// AddEdge rejects a duplicate control or temporal edge; skipping
		// one leaves a valid graph.
		if r.Intn(3) == 0 {
			_ = g.AddEdge(atPos[r.Intn(p)], v, cdfg.ControlEdge)
		}
		if r.Intn(3) == 0 {
			_ = g.AddEdge(atPos[r.Intn(p)], v, cdfg.TemporalEdge)
		}
	}
	return g
}

func TestFaninStatsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g := randomDAG(seed, 20+int(seed)*7)
		var fi faninScratch
		for v := cdfg.NodeID(0); int(v) < g.Len(); v++ {
			for x := 0; x <= 8; x++ {
				k, phi := fi.stats(g, v, x)
				wantK, err := g.FaninCount(v, x)
				if err != nil {
					t.Fatal(err)
				}
				wantPhi, err := g.FaninFunctionalitySum(v, x)
				if err != nil {
					t.Fatal(err)
				}
				if k != wantK || phi != wantPhi {
					t.Fatalf("seed %d node %d x=%d: (K, φ) = (%d, %d), want (%d, %d)",
						seed, v, x, k, phi, wantK, wantPhi)
				}
			}
		}
	}
}

// When the fan-in search stamp wraps, marks left under small stamps must
// not leak into later searches: the first search marks a whole fan-in
// tree with stamp 1, and every search after the wrap must still match
// the reference.
func TestFaninStatsStampWrap(t *testing.T) {
	g := randomDAG(4, 60)
	topo, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	var fi faninScratch
	fi.stats(g, topo[len(topo)-1], g.Len())
	fi.cur = ^uint32(0)
	for v := cdfg.NodeID(0); int(v) < g.Len(); v++ {
		k, phi := fi.stats(g, v, 4)
		wantK, _ := g.FaninCount(v, 4)
		wantPhi, _ := g.FaninFunctionalitySum(v, 4)
		if k != wantK || phi != wantPhi {
			t.Fatalf("node %d after the wrap: (K, φ) = (%d, %d), want (%d, %d)", v, k, phi, wantK, wantPhi)
		}
	}
}

// referenceLevels is the whole-graph definition of L_i: longest path over
// reversed data edges from root, in reverse topological order of the
// full precedence relation.
func referenceLevels(t *testing.T, g *cdfg.Graph, root cdfg.NodeID) []int {
	t.Helper()
	topo, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	level := make([]int, g.Len())
	for i := range level {
		level[i] = -1
	}
	level[root] = 0
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		if v == root {
			continue
		}
		for _, w := range g.DataOut(v) {
			if level[w] >= 0 && level[w]+1 > level[v] {
				level[v] = level[w] + 1
			}
		}
	}
	return level
}

func TestConeLevelsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g := randomDAG(seed, 20+int(seed)*7)
		for root := cdfg.NodeID(0); int(root) < g.Len(); root++ {
			got, err := g.Levels(root)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceLevels(t, g, root)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("seed %d root %d: level[%d] = %d, want %d", seed, root, v, got[v], want[v])
				}
			}
		}
	}
}

// referenceRank is the ranking as the paper states it: every node's key
// grows by (K, φ) for D_x = 1, 2, … while any two keys tie, then one
// stable sort on the full keys with the operation-kind and node-ID
// fallbacks. It builds the fan-in statistics from cdfg.FaninCount and
// cdfg.FaninFunctionalitySum.
func referenceRank(t *testing.T, g *cdfg.Graph, nodes []cdfg.NodeID, c1 []int, maxDepth int) *Result {
	t.Helper()
	keys := make(map[cdfg.NodeID][]int, len(nodes))
	for i, v := range nodes {
		keys[v] = []int{c1[i]}
	}
	unique := func() bool {
		for i := range nodes {
			for j := i + 1; j < len(nodes); j++ {
				if compareKeys(keys[nodes[i]], keys[nodes[j]]) == 0 {
					return false
				}
			}
		}
		return true
	}
	canonical := false
	depthUsed := 0
	for dx := 1; dx <= maxDepth; dx++ {
		if unique() {
			canonical = true
			break
		}
		depthUsed = dx
		for _, v := range nodes {
			k, err := g.FaninCount(v, dx)
			if err != nil {
				t.Fatal(err)
			}
			phi, err := g.FaninFunctionalitySum(v, dx)
			if err != nil {
				t.Fatal(err)
			}
			keys[v] = append(keys[v], k, phi)
		}
	}
	if !canonical {
		canonical = unique()
	}
	ordered := append([]cdfg.NodeID(nil), nodes...)
	sort.SliceStable(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if c := compareKeys(keys[a], keys[b]); c != 0 {
			return c > 0
		}
		if g.Node(a).Op != g.Node(b).Op {
			return g.Node(a).Op > g.Node(b).Op
		}
		return a < b
	})
	return &Result{Ordered: ordered, Canonical: canonical, MaxDepth: depthUsed}
}

func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if got.Canonical != want.Canonical || got.MaxDepth != want.MaxDepth {
		t.Fatalf("%s: canonical=%v depth=%d, want canonical=%v depth=%d",
			what, got.Canonical, got.MaxDepth, want.Canonical, want.MaxDepth)
	}
	if len(got.Ordered) != len(want.Ordered) {
		t.Fatalf("%s: %d nodes ordered, want %d", what, len(got.Ordered), len(want.Ordered))
	}
	for i, v := range want.Ordered {
		if got.Ordered[i] != v {
			t.Fatalf("%s: position %d holds node %d, want %d", what, i, got.Ordered[i], v)
		}
		if got.Rank(v) != i {
			t.Fatalf("%s: rank of node %d is %d, want %d", what, v, got.Rank(v), i)
		}
	}
}

// TestOrderMatchesReference checks Order, at default and small depth
// caps, against the reference ranking on random subsets of random cones.
func TestOrderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g := randomDAG(seed, 20+int(seed)*7)
		r := rand.New(rand.NewSource(seed))
		for root := cdfg.NodeID(0); int(root) < g.Len(); root++ {
			levels, err := g.Levels(root)
			if err != nil {
				t.Fatal(err)
			}
			sub := []cdfg.NodeID{root}
			for v, l := range levels {
				if l > 0 && r.Intn(4) != 0 {
					sub = append(sub, cdfg.NodeID(v))
				}
			}
			r.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
			c1 := make([]int, len(sub))
			for i, v := range sub {
				c1[i] = levels[v]
			}
			for _, depth := range []int{0, 1, 2} {
				got, err := Order(g, root, sub, depth)
				if err != nil {
					t.Fatal(err)
				}
				maxDepth := depth
				if maxDepth == 0 {
					maxDepth = min(12, len(sub))
				}
				sameResult(t, "order", got, referenceRank(t, g, sub, c1, maxDepth))
			}
		}
	}
}

// TestRankerReuseMatchesReference ranks random subsets of random cones
// through one Ranker reused across graphs of growing and shrinking size,
// and requires each result to equal the reference ranking.
func TestRankerReuseMatchesReference(t *testing.T) {
	var rk Ranker
	for i, n := range []int{90, 20, 60, 12, 140} {
		g := randomDAG(int64(100+i), n)
		r := rand.New(rand.NewSource(int64(i)))
		for root := cdfg.NodeID(0); int(root) < g.Len(); root++ {
			levels, err := g.Levels(root)
			if err != nil {
				t.Fatal(err)
			}
			sub := []cdfg.NodeID{root}
			for v, l := range levels {
				if l > 0 && r.Intn(3) != 0 {
					sub = append(sub, cdfg.NodeID(v))
				}
			}
			c1 := make([]int, len(sub))
			for j, v := range sub {
				c1[j] = levels[v]
			}
			got, err := rk.Order(g, root, sub, 0)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("graph %d root %d", i, root), got, referenceRank(t, g, sub, c1, min(12, len(sub))))
		}
	}
}

func TestGlobalMatchesReference(t *testing.T) {
	graphs := []*cdfg.Graph{designs.EighthOrderCFIIR(), designs.FourthOrderParallelIIR(), designs.WaveletFilter()}
	for seed := int64(1); seed <= 20; seed++ {
		graphs = append(graphs, randomDAG(seed, 20+int(seed)*7))
	}
	for i, g := range graphs {
		got, err := Global(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		nodes := g.Computational()
		from, err := g.LongestFrom(cdfg.PathOpts{})
		if err != nil {
			t.Fatal(err)
		}
		c1 := make([]int, len(nodes))
		for j, v := range nodes {
			c1[j] = from[v]
		}
		sameResult(t, fmt.Sprintf("global #%d", i), got, referenceRank(t, g, nodes, c1, min(8, len(nodes))))
	}
}

func compareKeys(a, b []int) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		switch {
		case a[i] > b[i]:
			return 1
		case a[i] < b[i]:
			return -1
		}
	}
	return 0
}
