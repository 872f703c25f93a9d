package domain

import (
	"testing"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/prng"
)

// BenchmarkSelect measures one domain selection per op under the sched
// family defaults (τ = 20) on the 528-op layered MediaBench design,
// cycling through every candidate root: "fresh" is the package-level
// Select an embedder calls, "reused" one Selector across roots as a
// detection scan uses it.
func BenchmarkSelect(b *testing.B) {
	g := designs.Layered(designs.MediaBench()[0].Cfg)
	roots := Roots(g)
	key := prng.MustBitstream([]byte("bench-select"))
	cfg := Config{Tau: 20}
	var bs prng.Bitstream
	run := func(b *testing.B, sel func(root cdfg.NodeID) (*Domain, error)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bs.CopyFrom(key)
			if _, err := sel(roots[i%len(roots)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("fresh", func(b *testing.B) {
		run(b, func(root cdfg.NodeID) (*Domain, error) { return Select(g, &bs, root, cfg) })
	})
	b.Run("reused", func(b *testing.B) {
		var s Selector
		run(b, func(root cdfg.NodeID) (*Domain, error) { return s.Select(g, &bs, root, cfg) })
	})
}
