package schedwm

import (
	"testing"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/domain"
	"localwm/internal/prng"
	"localwm/internal/sched"
)

// reversedIDs rebuilds g with every node ID reversed (node i becomes
// n-1-i), keeping names, operations, and data and control edges in their
// input-slot order. Temporal edges are dropped: a thief ships the
// schedule, not the constraints that shaped it.
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

// TestDetectSurvivesRenumbering marks a layered MediaBench design,
// schedules it, and detects every record in a copy whose node IDs are
// reversed. Canonical ordering (paper §IV-A) exists for exactly this:
// every watermark whose domain ordering was separated by C1–C3 alone
// must be found again, at the same root.
func TestDetectSurvivesRenumbering(t *testing.T) {
	g := designs.Layered(designs.MediaBench()[0].Cfg)
	if ops := len(g.Computational()); ops < 300 {
		t.Fatalf("design has %d operations, want at least 300", ops)
	}
	// A short fan-in distance keeps most domains clear of the primary
	// inputs, structurally identical leaves no criterion can separate, so
	// the run mixes canonical and non-canonical orderings.
	cfg := Config{Tau: 20, K: 4, Epsilon: 0.05, Budget: mustCP(t, g) + 7, Domain: domain.Config{MaxDist: 5}}
	wms, err := EmbedMany(g, prng.Signature("renumber-owner"), cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ListSchedule(g, sched.ListOpts{UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}

	rev, toNew := reversedIDs(g)
	rs := &sched.Schedule{Steps: make([]int, g.Len()), Budget: s.Budget}
	for old, step := range s.Steps {
		rs.Steps[toNew[old]] = step
	}
	if err := sched.Verify(rev, rs, sched.Unlimited, false); err != nil {
		t.Fatalf("renumbered schedule invalid: %v", err)
	}

	canonical := 0
	for _, wm := range wms {
		if !wm.Domain.Order.Canonical {
			continue
		}
		canonical++
		det, err := Detect(rev, rs, wm.Record())
		if err != nil {
			t.Fatal(err)
		}
		if !det.Found {
			t.Errorf("watermark %d (root %s, canonical ordering) not found after renumbering; best %d/%d",
				wm.Index, g.Node(wm.Root).Name, det.Best.Satisfied, det.Best.Total)
			continue
		}
		atRoot := false
		for _, m := range det.Matches {
			atRoot = atRoot || m.Root == toNew[wm.Root]
		}
		if !atRoot {
			t.Errorf("watermark %d found, but not at its renumbered root %s", wm.Index, g.Node(wm.Root).Name)
		}
	}
	if canonical == 0 {
		t.Fatalf("none of %d watermarks has a canonical domain ordering; the test checks nothing", len(wms))
	}
	t.Logf("%d of %d watermarks canonically ordered; all found after renumbering", canonical, len(wms))
}
