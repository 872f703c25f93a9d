package sched

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"localwm/internal/cdfg"
)

// Schedule text format
//
// The serialization is the line-oriented companion of the cdfg text
// format, shared by the lwm CLI and the lwmd daemon:
//
//	budget <n>
//	step <node-name> <control-step>
//
// Rows are emitted sorted by (step, name) so the output is deterministic
// for a given schedule; Parse accepts the lines in any order. Nodes
// absent from the file keep step 0 (the unscheduled kinds: inputs,
// outputs, constants, delays). Fields are separated by whitespace and
// every <n> is a non-negative base-10 integer (digits only: no sign, no
// base prefix, no digit separators, no trailing text); blank lines and
// lines starting with '#' are skipped, and any other line is an error.

// WriteSchedule serializes s against g in the text schedule format.
func WriteSchedule(w io.Writer, g *cdfg.Graph, s *Schedule) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "budget %d\n", s.Budget)
	type row struct {
		name string
		step int
	}
	var rows []row
	for _, node := range g.Nodes() {
		if st := s.Steps[node.ID]; st > 0 {
			rows = append(rows, row{node.Name, st})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].step != rows[j].step {
			return rows[i].step < rows[j].step
		}
		return rows[i].name < rows[j].name
	})
	for _, r := range rows {
		fmt.Fprintf(bw, "step %s %d\n", r.name, r.step)
	}
	return bw.Flush()
}

// ParseSchedule reads a schedule in the text format, resolving node names
// against g. A missing budget line defaults to the makespan of the parsed
// steps.
func ParseSchedule(g *cdfg.Graph, r io.Reader) (*Schedule, error) {
	s := &Schedule{Steps: make([]int, g.Len())}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<22)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case len(fields) == 2 && fields[0] == "budget":
			if n, ok := parseStep(fields[1]); ok {
				s.Budget = n
				continue
			}
		case len(fields) == 3 && fields[0] == "step":
			if n, ok := parseStep(fields[2]); ok {
				node, found := g.NodeByName(fields[1])
				if !found {
					return nil, fmt.Errorf("sched: schedule line %d: unknown node %q", lineno, fields[1])
				}
				s.Steps[node.ID] = n
				continue
			}
		}
		return nil, fmt.Errorf("sched: schedule line %d: unparseable %q", lineno, line)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sched: reading schedule: %v", err)
	}
	if s.Budget == 0 {
		s.Budget = s.Makespan()
	}
	return s, nil
}

// parseStep parses a non-negative base-10 integer made of digits only.
func parseStep(f string) (int, bool) {
	for i := 0; i < len(f); i++ {
		if f[i] < '0' || f[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(f)
	return n, err == nil
}
