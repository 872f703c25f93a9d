package schedwm

import (
	"fmt"
	"testing"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/prng"
)

// BenchmarkEmbedMark is the embed kernel under the service benchmark's
// mark parameters: n=4 watermarks at ε=0.1, budget 1.5·CP+2 and the sched
// defaults τ=20, K=4, over layered designs of 110–790 operations (width
// one op per 40, 8 inputs, an even operation mix). Each iteration embeds
// into a fresh clone of every design, so the path cache starts cold as it
// does for a parsed request.
func BenchmarkEmbedMark(b *testing.B) {
	mix := designs.OpMix{Add: 1, Mul: 1, Logic: 1, Shift: 1, Cmp: 1, Load: 1, Store: 1, Branch: 1}
	var gs []*cdfg.Graph
	var cfgs []Config
	for ops := 110; ops <= 790; ops += 85 {
		g := designs.Layered(designs.LayeredConfig{
			Name: fmt.Sprintf("embed-mark-%d", ops), Ops: ops, Width: max(3, ops/40), Inputs: 8, Mix: mix,
		})
		cp, err := g.CriticalPath()
		if err != nil {
			b.Fatal(err)
		}
		gs = append(gs, g)
		cfgs = append(cfgs, Config{Tau: 20, K: 4, Epsilon: 0.1, Budget: cp + cp/2 + 2})
	}
	sig := prng.Signature("embed-mark")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, g := range gs {
			if _, err := EmbedMany(g.Clone(), sig, cfgs[j], 4); err != nil {
				b.Fatal(err)
			}
		}
	}
}
