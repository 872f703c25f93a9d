package sched

import (
	"fmt"
	"strings"
	"testing"

	"localwm/internal/designs"
)

func TestScheduleTextRoundTrip(t *testing.T) {
	g := designs.WaveletFilter()
	s, err := ListSchedule(g, ListOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteSchedule(&sb, g, s); err != nil {
		t.Fatal(err)
	}
	back, err := ParseSchedule(g, strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Budget != s.Budget {
		t.Fatalf("budget %d, want %d", back.Budget, s.Budget)
	}
	for v, st := range s.Steps {
		if back.Steps[v] != st {
			t.Fatalf("node %d: step %d, want %d", v, back.Steps[v], st)
		}
	}

	// Writing the re-parsed schedule must reproduce the bytes: the format
	// is canonical for a given schedule.
	var sb2 strings.Builder
	if err := WriteSchedule(&sb2, g, back); err != nil {
		t.Fatal(err)
	}
	if sb.String() != sb2.String() {
		t.Fatal("text round trip not canonical")
	}
}

func TestParseScheduleDefaultsAndComments(t *testing.T) {
	g := designs.WaveletFilter()
	in := "# comment\n\nstep lo_m0 4\nstep lo_a1 7\n"
	s, err := ParseSchedule(g, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Budget != 7 {
		t.Fatalf("defaulted budget = %d, want makespan 7", s.Budget)
	}
}

// TestParseScheduleErrors covers the line grammar's failure modes. The
// malformed numbers were once accepted with a silently wrong step (0x10
// read as 0, 1_0 as 1, 3x and "3 extra" as 3) or a negative one; each
// must now fail with the line-numbered "unparseable" error.
func TestParseScheduleErrors(t *testing.T) {
	g := designs.FourthOrderParallelIIR()
	if _, err := ParseSchedule(g, strings.NewReader("budget 9\nstep A1 3\n")); err != nil {
		t.Fatalf("well-formed schedule rejected: %v", err)
	}
	for name, in := range map[string]string{
		"unknown-node": "step nosuch 3\n",
		"garbage":      "frobnicate\n",
	} {
		if _, err := ParseSchedule(g, strings.NewReader(in)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	for _, line := range []string{
		"step A1 0x10",
		"step A1 1_0",
		"step A1 3x",
		"step A1 3 extra",
		"budget -3",
		"step A1 -2",
		"step A1 +3",
		"step A1",
		"budget",
		"budget 3 4",
		"step A1 99999999999999999999999",
	} {
		_, err := ParseSchedule(g, strings.NewReader("budget 9\n"+line+"\n"))
		want := fmt.Sprintf("sched: schedule line 2: unparseable %q", line)
		if err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %s", line, err, want)
		}
	}
}
