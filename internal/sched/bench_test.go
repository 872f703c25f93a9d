package sched

import (
	"strings"
	"testing"

	"localwm/internal/designs"
)

// BenchmarkParseSchedule decodes the list schedule of the 528-op layered
// MediaBench design (one line per scheduled operation) per op: the
// schedule half of every detect and verify request.
func BenchmarkParseSchedule(b *testing.B) {
	g := designs.Layered(designs.MediaBench()[0].Cfg)
	s, err := ListSchedule(g, ListOpts{})
	if err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteSchedule(&sb, g, s); err != nil {
		b.Fatal(err)
	}
	text := sb.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseSchedule(g, strings.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}
