package domain

import (
	"testing"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/prng"
)

func TestSelectDeterministicForSignature(t *testing.T) {
	g := designs.FourthOrderParallelIIR()
	root, _ := designs.IIRSubtree(g)
	sel := func() []cdfg.NodeID {
		bs := prng.MustBitstream([]byte("author-a"))
		d, err := Select(g, bs, root, Config{Tau: 8})
		if err != nil {
			t.Fatal(err)
		}
		return d.T
	}
	a, b := sel(), sel()
	if len(a) != len(b) {
		t.Fatalf("selection sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("selection differs at %d", i)
		}
	}
}

func TestSelectDiffersAcrossSignatures(t *testing.T) {
	g := designs.EighthOrderCFIIR()
	root := g.MustNode("s3_ay")
	pick := func(sig string) string {
		bs := prng.MustBitstream([]byte(sig))
		d, err := Select(g, bs, root, Config{Tau: 10})
		if err != nil {
			t.Fatal(err)
		}
		s := ""
		for _, v := range d.T {
			s += g.Node(v).Name + ","
		}
		return s
	}
	// Across many signature pairs at least most should differ; check a few.
	diff := 0
	sigs := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < len(sigs); i++ {
		for j := i + 1; j < len(sigs); j++ {
			if pick(sigs[i]) != pick(sigs[j]) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("all signatures selected identical subtrees")
	}
}

func TestSelectRespectsTau(t *testing.T) {
	g := designs.LongEchoCanceler()
	root := g.MustNode("err")
	for _, tau := range []int{1, 4, 16, 64} {
		bs := prng.MustBitstream([]byte("tau-test"))
		d, err := Select(g, bs, root, Config{Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		if len(d.T) > tau {
			t.Fatalf("tau=%d: |T| = %d", tau, len(d.T))
		}
		if d.T[0] != root {
			t.Fatal("T must start at the root")
		}
	}
}

func TestSelectSubsetOfCandidateTree(t *testing.T) {
	g := designs.WaveletFilter()
	bs := prng.MustBitstream([]byte("subset"))
	root, err := PickRoot(Roots(g), bs)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Select(g, bs, root, Config{Tau: 12})
	if err != nil {
		t.Fatal(err)
	}
	inTo := map[cdfg.NodeID]bool{}
	for _, v := range d.To {
		inTo[v] = true
	}
	for _, v := range d.T {
		if !inTo[v] {
			t.Fatalf("T contains %s outside T_o", g.Node(v).Name)
		}
		if !d.Contains(v) {
			t.Fatal("Contains inconsistent")
		}
	}
	if d.Contains(cdfg.NodeID(g.Len()-1)) && g.Node(cdfg.NodeID(g.Len()-1)).Op == cdfg.OpOutput {
		t.Fatal("output node selected")
	}
}

func TestSelectConnectivity(t *testing.T) {
	// Every selected node other than the root must have a data consumer
	// already in T (the walk goes top-down along reversed edges).
	g := designs.DAConverter()
	bs := prng.MustBitstream([]byte("conn"))
	root, err := PickRoot(Roots(g), bs)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Select(g, bs, root, Config{Tau: 20})
	if err != nil {
		t.Fatal(err)
	}
	in := map[cdfg.NodeID]bool{}
	for _, v := range d.T {
		if v != d.Root {
			hasConsumer := false
			for _, w := range g.DataOut(v) {
				if in[w] {
					hasConsumer = true
					break
				}
			}
			if !hasConsumer {
				t.Fatalf("selected node %s has no consumer in T", g.Node(v).Name)
			}
		}
		in[v] = true
	}
}

func TestPickRootEligibility(t *testing.T) {
	g := designs.ModemFilter()
	bs := prng.MustBitstream([]byte("roots"))
	for i := 0; i < 20; i++ {
		root, err := PickRoot(Roots(g), bs)
		if err != nil {
			t.Fatal(err)
		}
		n := g.Node(root)
		if !n.Op.IsComputational() {
			t.Fatalf("picked non-computational root %s", n.Name)
		}
		hasCompIn := false
		for _, u := range g.DataIn(root) {
			if g.Node(u).Op.IsComputational() {
				hasCompIn = true
			}
		}
		if !hasCompIn {
			t.Fatalf("picked root %s without computational fan-in", n.Name)
		}
	}
}

func TestPickRootNoEligibleNodes(t *testing.T) {
	g := cdfg.New(4)
	in := g.AddNode("in", cdfg.OpInput)
	a := g.AddNode("a", cdfg.OpMulConst) // fan-in is only the input
	g.MustAddEdge(in, a, cdfg.DataEdge)
	bs := prng.MustBitstream([]byte("x"))
	if _, err := PickRoot(Roots(g), bs); err == nil {
		t.Fatal("graph without eligible roots accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	g := designs.ModemFilter()
	bs := prng.MustBitstream([]byte("cfg"))
	root, err := PickRoot(Roots(g), bs)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Tau: 0},
		{Tau: 5, MaxDist: -1},
		{Tau: 5, IncludeNum: 3, IncludeDen: 2},
		{Tau: 5, IncludeNum: -1, IncludeDen: 2},
	}
	for _, cfg := range bad {
		if _, err := Select(g, bs, root, cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

func TestRootFingerprint(t *testing.T) {
	g := designs.FourthOrderParallelIIR()
	a7 := g.MustNode("A7")
	fpA := RootFingerprint(g, a7)
	if fpA == "" {
		t.Fatal("empty fingerprint")
	}
	// Deterministic.
	if RootFingerprint(g, a7) != fpA {
		t.Fatal("fingerprint not deterministic")
	}
	// Operand-order independent: the two symmetric section outputs feed
	// A7; the IIR's A3 and A6 adders are structurally alike too, so their
	// fingerprints match each other but differ from A7's inputs' mix only
	// if structure differs. Check a known-different node.
	if RootFingerprint(g, g.MustNode("C1")) == fpA {
		t.Fatal("add and cmul share a fingerprint")
	}
	// Identical local neighborhoods give identical fingerprints (the two
	// sections' output adders).
	if RootFingerprint(g, g.MustNode("A3")) != RootFingerprint(g, g.MustNode("A6")) {
		t.Fatal("symmetric nodes fingerprint differently")
	}
	// Detection records store the text, so it is pinned exactly:
	// "op/arity/[sorted input ops]".
	if fpA != "4/2/[4 4]" {
		t.Fatalf("fingerprint of A7 = %q, want %q", fpA, "4/2/[4 4]")
	}
	h := cdfg.New(4)
	in := h.AddNode("in", cdfg.OpInput)
	k := h.AddNode("k", cdfg.OpConst)
	m := h.AddNode("m", cdfg.OpMulConst)
	s := h.AddNode("s", cdfg.OpAdd)
	h.MustAddEdge(in, m, cdfg.DataEdge)
	for _, u := range []cdfg.NodeID{m, k, in, m} {
		h.MustAddEdge(u, s, cdfg.DataEdge)
	}
	for v, want := range map[cdfg.NodeID]string{in: "1/0/[]", m: "7/1/[1]", s: "4/4/[1 3 7 7]"} {
		if got := RootFingerprint(h, v); got != want {
			t.Errorf("fingerprint of %s = %q, want %q", h.Node(v).Name, got, want)
		}
	}
}

func TestInclusionProbabilityExtremes(t *testing.T) {
	g := designs.LongEchoCanceler()
	root := g.MustNode("err")
	// Probability 1: the walk becomes a full breadth-first expansion, so
	// |T| reaches min(tau, cone size).
	bs := prng.MustBitstream([]byte("full"))
	dFull, err := Select(g, bs, root, Config{Tau: 30, IncludeNum: 1, IncludeDen: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(dFull.T) != 30 {
		t.Fatalf("full inclusion selected %d of 30", len(dFull.T))
	}
	// Near-zero inclusion: only the mandatory chain survives, T is thin
	// but still at least 2 nodes deep from a root with fan-in.
	bs2 := prng.MustBitstream([]byte("thin"))
	dThin, err := Select(g, bs2, root, Config{Tau: 30, IncludeNum: 0, IncludeDen: 1000000})
	if err != nil {
		t.Fatal(err)
	}
	if len(dThin.T) < 2 {
		t.Fatalf("thin walk selected %d nodes", len(dThin.T))
	}
	if len(dThin.T) > len(dFull.T) {
		t.Fatal("thin walk selected more than full walk")
	}
}
