package order

import (
	"testing"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
)

// BenchmarkOrder measures one canonical ordering (C1–C3) per op on a
// 528-op layered MediaBench design: Order cycles through domain-sized
// fan-in subtrees of many roots, Global ranks the whole design.
func BenchmarkOrder(b *testing.B) {
	g := designs.Layered(designs.MediaBench()[0].Cfg)
	var roots []cdfg.NodeID
	var subs [][]cdfg.NodeID
	for i, v := range g.Computational() {
		if i%4 != 0 {
			continue
		}
		tree, err := g.FaninTree(v, 6)
		if err != nil {
			b.Fatal(err)
		}
		if len(tree) < 12 {
			continue
		}
		sub := make([]cdfg.NodeID, 0, len(tree))
		for u := range tree {
			sub = append(sub, u)
		}
		roots = append(roots, v)
		subs = append(subs, cdfg.SortedIDs(sub))
	}
	b.Run("subtree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i % len(roots)
			if _, err := Order(g, roots[j], subs[j], 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("global", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Global(g, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
