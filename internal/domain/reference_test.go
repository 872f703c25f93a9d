package domain

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"localwm/internal/cdfg"
	"localwm/internal/order"
	"localwm/internal/prng"
)

// The references below are domain selection as it was written before
// Selector: the candidate tree as a node → distance map with a seen map
// per BFS level, and the walk's membership in a map. The production
// selection must agree with them exactly.

func refCappedFaninTree(g *cdfg.Graph, root cdfg.NodeID, maxDist, maxNodes int) map[cdfg.NodeID]int {
	dist := map[cdfg.NodeID]int{root: 0}
	frontier := []cdfg.NodeID{root}
	for d := 1; d <= maxDist && len(frontier) > 0 && len(dist) < maxNodes; d++ {
		var next []cdfg.NodeID
		seen := map[cdfg.NodeID]bool{}
		for _, v := range frontier {
			for _, u := range g.DataIn(v) {
				if _, ok := dist[u]; !ok && !seen[u] {
					seen[u] = true
					next = append(next, u)
				}
			}
		}
		next = cdfg.SortedIDs(next)
		for _, u := range next {
			if len(dist) >= maxNodes {
				return dist
			}
			dist[u] = d
		}
		frontier = next
	}
	return dist
}

func refSelect(g *cdfg.Graph, bs *prng.Bitstream, root cdfg.NodeID, cfg Config) (*Domain, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	tree := refCappedFaninTree(g, root, cfg.MaxDist, cfg.MaxTreeSize)
	to := make([]cdfg.NodeID, 0, len(tree))
	for v := range tree {
		to = append(to, v)
	}
	ord, err := order.Order(g, root, cdfg.SortedIDs(to), 0)
	if err != nil {
		return nil, err
	}
	rank := map[cdfg.NodeID]int{}
	for i, v := range ord.Ordered {
		rank[v] = i
	}
	d := &Domain{Root: root, To: ord.Ordered, Order: ord}
	inT := map[cdfg.NodeID]bool{root: true}
	d.T = append(d.T, root)
	queue := []cdfg.NodeID{root}
	for len(queue) > 0 && len(d.T) < cfg.Tau {
		v := queue[0]
		queue = queue[1:]
		var cands []cdfg.NodeID
		for _, u := range g.DataIn(v) {
			if _, inTree := tree[u]; inTree && !inT[u] {
				cands = append(cands, u)
			}
		}
		if len(cands) == 0 {
			continue
		}
		slices.SortStableFunc(cands, func(a, b cdfg.NodeID) int { return rank[a] - rank[b] })
		mandatory := bs.Intn(len(cands))
		for i, u := range cands {
			if i != mandatory && !bs.Coin(cfg.IncludeNum, cfg.IncludeDen) {
				continue
			}
			inT[u] = true
			d.T = append(d.T, u)
			queue = append(queue, u)
			if len(d.T) >= cfg.Tau {
				break
			}
		}
	}
	return d, nil
}

// randomDAG builds a seeded random acyclic graph with n nodes whose IDs
// are a random permutation of a topological order: primary inputs, then
// operations with one to three data inputs, a quarter of them consuming
// one value twice, plus control and temporal edges selection must ignore.
func randomDAG(seed int64, n int) *cdfg.Graph {
	r := rand.New(rand.NewSource(seed))
	ops := []cdfg.Op{cdfg.OpAdd, cdfg.OpSub, cdfg.OpMul, cdfg.OpMulConst, cdfg.OpShift, cdfg.OpAnd, cdfg.OpCmp}
	pos := r.Perm(n)
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
		if r.Intn(4) == 0 {
			g.MustAddEdge(g.DataIn(v)[0], v, cdfg.DataEdge)
		}
		if r.Intn(3) == 0 {
			_ = g.AddEdge(atPos[r.Intn(p)], v, cdfg.ControlEdge)
		}
		if r.Intn(3) == 0 {
			_ = g.AddEdge(atPos[r.Intn(p)], v, cdfg.TemporalEdge)
		}
	}
	return g
}

func sameDomain(t *testing.T, what string, got, want *Domain) {
	t.Helper()
	if got.Root != want.Root || !slices.Equal(got.To, want.To) || !slices.Equal(got.T, want.T) {
		t.Fatalf("%s: domain (root %d, To %v, T %v), want (root %d, To %v, T %v)",
			what, got.Root, got.To, got.T, want.Root, want.To, want.T)
	}
	if got.Order.Canonical != want.Order.Canonical || got.Order.MaxDepth != want.Order.MaxDepth {
		t.Fatalf("%s: ordering canonical=%v depth=%d, want canonical=%v depth=%d",
			what, got.Order.Canonical, got.Order.MaxDepth, want.Order.Canonical, want.Order.MaxDepth)
	}
	for i, v := range want.To {
		if got.Order.Rank(v) != i {
			t.Fatalf("%s: rank of node %d is %d, want %d", what, v, got.Order.Rank(v), i)
		}
	}
}

// TestSelectMatchesReference selects at every root of random graphs
// through one Selector reused across graphs of growing and shrinking size,
// and through the package-level Select,
// and requires both to equal the reference. The configurations include
// tree caps small enough to cut a BFS level, whose ascending-ID
// truncation the reference defines.
func TestSelectMatchesReference(t *testing.T) {
	cfgs := []Config{
		{Tau: 6},
		{Tau: 4, MaxTreeSize: 7},
		{Tau: 5, MaxDist: 2, MaxTreeSize: 5},
		{Tau: 12, MaxDist: 3, IncludeNum: 1, IncludeDen: 3},
		{Tau: 20, MaxTreeSize: 30},
	}
	var sel Selector
	truncated := 0
	for i, n := range []int{80, 15, 50, 9, 120} {
		g := randomDAG(int64(i+1), n)
		for ci, cfg := range cfgs {
			full, err := cfg.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			for root := cdfg.NodeID(0); int(root) < g.Len(); root++ {
				what := fmt.Sprintf("graph %d cfg %d root %d", i, ci, root)
				sig := prng.Signature(fmt.Sprintf("ref-%d-%d", i, root))
				want, wantErr := refSelect(g, prng.MustBitstream(sig), root, cfg)
				got, err := sel.Select(g, prng.MustBitstream(sig), root, cfg)
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("%s: error %v, reference error %v", what, err, wantErr)
				}
				if err != nil {
					continue
				}
				sameDomain(t, what+" (Selector)", got, want)
				own, err := Select(g, prng.MustBitstream(sig), root, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameDomain(t, what+" (Select)", own, want)
				if len(want.To) == full.MaxTreeSize {
					if tree, _ := g.FaninTree(root, full.MaxDist); len(tree) > full.MaxTreeSize {
						truncated++
					}
				}
			}
		}
	}
	if truncated == 0 {
		t.Fatal("no candidate tree hit its cap; the truncation rule went untested")
	}
}

// When the stamp wraps, tree and walk marks left under small stamps must
// not leak into later selections: the first selection marks a large tree
// with stamp 1, and every selection after the wrap must still match the
// reference.
func TestSelectStampWrap(t *testing.T) {
	g := randomDAG(8, 70)
	topo, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Tau: 40, MaxTreeSize: 70}
	var sel Selector
	if _, err := sel.Select(g, prng.MustBitstream([]byte("wrap")), topo[len(topo)-1], cfg); err != nil {
		t.Fatal(err)
	}
	sel.stamp = ^uint32(0)
	for _, root := range Roots(g) {
		want, err := refSelect(g, prng.MustBitstream([]byte("wrap")), root, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sel.Select(g, prng.MustBitstream([]byte("wrap")), root, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameDomain(t, fmt.Sprintf("root %d after the wrap", root), got, want)
	}
}

// A Domain from the package-level Select is the caller's own: later
// selections must not overwrite it.
func TestSelectResultIsOwned(t *testing.T) {
	g := randomDAG(3, 60)
	roots := Roots(g)
	first, err := Select(g, prng.MustBitstream([]byte("own")), roots[len(roots)-1], Config{Tau: 8})
	if err != nil {
		t.Fatal(err)
	}
	to, tt := slices.Clone(first.To), slices.Clone(first.T)
	for _, r := range roots {
		if _, err := Select(g, prng.MustBitstream([]byte("own")), r, Config{Tau: 8}); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(first.To, to) || !slices.Equal(first.T, tt) {
		t.Fatal("a later Select changed an earlier Domain")
	}
}

// RootIndex groups exactly the roots RootFingerprint would admit, in
// ascending ID order, including fingerprints of more inputs than the
// formatter's inline buffer holds.
func TestRootIndexMatchesFilter(t *testing.T) {
	graphs := []*cdfg.Graph{randomDAG(5, 90), randomDAG(6, 30)}
	wide := randomDAG(7, 40)
	topo, err := wide.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	sink := topo[len(topo)-1]
	for _, u := range topo[:len(topo)-1] {
		if wide.Node(u).Op.IsComputational() && len(wide.DataIn(sink)) < 11 {
			wide.MustAddEdge(u, sink, cdfg.DataEdge)
		}
	}
	if !slices.Contains(Roots(wide), sink) || len(wide.DataIn(sink)) <= 8 {
		t.Fatalf("wide root has %d inputs", len(wide.DataIn(sink)))
	}
	graphs = append(graphs, wide)
	for gi, g := range graphs {
		ix := NewRootIndex(g)
		roots := Roots(g)
		if !slices.Equal(ix.Candidates(""), roots) {
			t.Fatalf("graph %d: Candidates(\"\") differs from Roots", gi)
		}
		if got := ix.Candidates("no/such/[fingerprint]"); len(got) != 0 {
			t.Fatalf("graph %d: unknown fingerprint matched %v", gi, got)
		}
		seen := 0
		for _, r := range roots {
			fp := RootFingerprint(g, r)
			var want []cdfg.NodeID
			for _, u := range roots {
				if RootFingerprint(g, u) == fp {
					want = append(want, u)
				}
			}
			if got := ix.Candidates(fp); !slices.Equal(got, want) {
				t.Fatalf("graph %d: Candidates(%q) = %v, want %v", gi, fp, got, want)
			}
			seen++
		}
		if seen == 0 {
			t.Fatalf("graph %d has no roots", gi)
		}
	}
}
