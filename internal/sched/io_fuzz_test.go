package sched

import (
	"bytes"
	"strings"
	"testing"

	"localwm/internal/designs"
)

// FuzzParseSchedule drives the schedule-text decoder with arbitrary input
// against one fixed design. ParseSchedule is reachable from the wire (the
// lwmd detect and verify endpoints) and from the lwm CLI, so beyond
// "never panic" the fuzzer checks the format's round-trip contract: any
// input it accepts must survive Write∘Parse with a byte-identical second
// dump.
func FuzzParseSchedule(f *testing.F) {
	g := designs.WaveletFilter()
	s, err := ListSchedule(g, ListOpts{})
	if err != nil {
		f.Fatal(err)
	}
	var seed strings.Builder
	if err := WriteSchedule(&seed, g, s); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	// Hand-written seeds: comments, blank lines, a missing budget, a
	// zero step, duplicates, and near-miss malformed lines.
	f.Add("# comment\n\nstep lo_m0 4\nstep lo_a1 7\n")
	f.Add("budget 0\nstep lo_m0 0\nstep lo_m0 2\n")
	f.Add("budget 12\n  step\tlo_m0   3  \n")
	f.Add("step lo_m0 0x10\n")
	f.Add("step lo_m0 3 extra\n")
	f.Add("budget -3\n")
	f.Add("step nosuch 1\n")

	f.Fuzz(func(t *testing.T, input string) {
		s, err := ParseSchedule(g, strings.NewReader(input))
		if err != nil {
			return // rejected input: any error is fine, panics are not
		}
		var first bytes.Buffer
		if err := WriteSchedule(&first, g, s); err != nil {
			t.Fatalf("Write of parsed schedule failed: %v", err)
		}
		s2, err := ParseSchedule(g, bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reparse of Write output failed: %v\ninput:\n%s\ndump:\n%s", err, input, first.String())
		}
		var second bytes.Buffer
		if err := WriteSchedule(&second, g, s2); err != nil {
			t.Fatalf("second Write failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Write∘Parse not a fixed point\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
		}
	})
}
