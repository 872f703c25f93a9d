package tmwm

import (
	"testing"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/domain"
	"localwm/internal/prng"
	"localwm/internal/tmatch"
)

// reversedIDs rebuilds g with every node ID reversed (node i becomes
// n-1-i), keeping names, operations, and data and control edges in their
// input-slot order.
func reversedIDs(g *cdfg.Graph) (*cdfg.Graph, []cdfg.NodeID) {
	n := g.Len()
	rev := cdfg.New(n)
	toNew := make([]cdfg.NodeID, n)
	nodes := g.Nodes()
	for i := n - 1; i >= 0; i-- {
		toNew[i] = rev.AddNode(nodes[i].Name, nodes[i].Op)
	}
	for _, node := range nodes {
		for _, u := range g.DataIn(node.ID) {
			rev.MustAddEdge(toNew[u], toNew[node.ID], cdfg.DataEdge)
		}
		for _, u := range g.ControlIn(node.ID) {
			rev.MustAddEdge(toNew[u], toNew[node.ID], cdfg.ControlEdge)
		}
	}
	return rev, toNew
}

// TestDetectSurvivesRenumbering marks a layered MediaBench design in
// domain mode, covers it, and detects every record in a copy whose node
// IDs are reversed, against the same cover renumbered. Every watermark
// whose domain ordering was separated by C1–C3 alone must be found again,
// at the same root.
func TestDetectSurvivesRenumbering(t *testing.T) {
	g := designs.Layered(designs.MediaBench()[0].Cfg)
	lib := tmatch.StandardLibrary()
	// A short fan-in distance keeps the candidate trees under their cap
	// (whose truncation follows node IDs) and clear of most primary
	// inputs, so the run mixes canonical and non-canonical orderings.
	cfg := Config{Z: 2, Epsilon: 0.4, Tau: 24, Lib: lib, Domain: domain.Config{MaxDist: 5}}
	wms, err := EmbedMany(g, prng.Signature("renumber-owner"), cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	enforced, cons := CombineConstraints(wms)
	cover, err := tmatch.GreedyCover(g, lib, cons, enforced)
	if err != nil {
		t.Fatal(err)
	}

	rev, toNew := reversedIDs(g)
	rcover := &tmatch.Cover{Owner: map[cdfg.NodeID]int{}}
	for i, m := range cover.Matchings {
		rm := tmatch.Matching{Template: m.Template}
		for _, v := range m.Nodes {
			rm.Nodes = append(rm.Nodes, toNew[v])
			rcover.Owner[toNew[v]] = i
		}
		rcover.Matchings = append(rcover.Matchings, rm)
	}

	canonical := 0
	for _, wm := range wms {
		if !wm.Order.Canonical {
			continue
		}
		canonical++
		det, err := Detect(rev, lib, rcover, wm.Record())
		if err != nil {
			t.Fatal(err)
		}
		if !det.Found {
			t.Errorf("watermark %d (root %s, canonical ordering) not found after renumbering; best %d/%d",
				wm.Index, g.Node(wm.Root).Name, det.Matched, det.Total)
			continue
		}
		if det.Root != toNew[wm.Root] {
			t.Errorf("watermark %d found at %s, not at its renumbered root %s",
				wm.Index, rev.Node(det.Root).Name, g.Node(wm.Root).Name)
		}
	}
	if canonical == 0 {
		t.Fatalf("none of %d watermarks has a canonical domain ordering; the test checks nothing", len(wms))
	}
	if !t.Failed() {
		t.Logf("%d of %d watermarks canonically ordered; all found after renumbering", canonical, len(wms))
	}
}
