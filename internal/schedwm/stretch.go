package schedwm

import "localwm/internal/cdfg"

// noStretch keeps the weighted longest paths of encode's no-stretch test
// exact while edges are drawn. toW[v] is the longest path ending at v and
// fromW[v] the longest path starting at v, over every edge of the graph
// plus the pending (drawn, not yet committed) edges. Nodes weigh what
// weight charges them, and a temporal or pending edge costs unitW: the
// unit operation that will realize it.
//
// Drawing ni→nk can only lengthen paths through the new edge, so toW
// changes only in nk's forward cone and fromW only in ni's backward cone.
// add updates each cone in place, visiting it in topological order (Kahn
// over the cone) so every node is relaxed once, after all of its in-cone
// predecessors. A node's value is the max over its predecessors; those
// outside the cone keep their values, and those inside are final when it
// is visited, so the result equals a full recompute.
type noStretch struct {
	g          *cdfg.Graph
	weight     cdfg.WeightFunc
	unitW      int
	toW, fromW []int

	owned bool     // toW/fromW are private copies (the oracle's are shared)
	indeg []int32  // in-cone edges not yet relaxed; all zero between walks
	mark  []uint32 // mark[v] == stamp: v is in the current cone
	stamp uint32
	cone  []cdfg.NodeID
	arcs  []arc
}

// arc is one edge leaving a node in the walk direction, with its cost.
type arc struct {
	to cdfg.NodeID
	w  int
}

// add records that ni→nk was drawn; pending must already include it.
func (s *noStretch) add(pending []cdfg.Edge, ni, nk cdfg.NodeID) {
	if !s.owned {
		s.toW = append([]int(nil), s.toW...)
		s.fromW = append([]int(nil), s.fromW...)
		s.indeg = make([]int32, s.g.Len())
		s.mark = make([]uint32, s.g.Len())
		s.owned = true
	}
	// ni is not in nk's forward cone, nor nk in ni's backward one (the
	// edge closes no cycle), so each seed reads a value the other walk
	// leaves alone.
	if t := s.toW[ni] + s.unitW + s.g.NodeWeight(s.weight, nk); t > s.toW[nk] {
		s.toW[nk] = t
		s.relax(nk, s.toW, true, pending)
	}
	if f := s.g.NodeWeight(s.weight, ni) + s.unitW + s.fromW[nk]; f > s.fromW[ni] {
		s.fromW[ni] = f
		s.relax(ni, s.fromW, false, pending)
	}
}

// relax propagates a raised val[root] over root's cone: successors when
// fwd is set, predecessors otherwise.
func (s *noStretch) relax(root cdfg.NodeID, val []int, fwd bool, pending []cdfg.Edge) {
	s.stamp++
	s.mark[root] = s.stamp
	s.cone = append(s.cone[:0], root)
	for i := 0; i < len(s.cone); i++ {
		for _, a := range s.next(s.cone[i], fwd, pending) {
			s.indeg[a.to]++
			if s.mark[a.to] != s.stamp {
				s.mark[a.to] = s.stamp
				s.cone = append(s.cone, a.to)
			}
		}
	}
	// The cone is acyclic and root its only source: Kahn from root
	// reaches every member and leaves indeg all zero again.
	queue := append(s.cone[:0], root)
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		for _, a := range s.next(v, fwd, pending) {
			val[a.to] = max(val[a.to], val[v]+a.w+s.g.NodeWeight(s.weight, a.to))
			if s.indeg[a.to]--; s.indeg[a.to] == 0 {
				queue = append(queue, a.to)
			}
		}
	}
	s.cone = queue
}

// next lists v's edges in the walk direction into a reused buffer.
func (s *noStretch) next(v cdfg.NodeID, fwd bool, pending []cdfg.Edge) []arc {
	g := s.g
	data, ctrl, temp := g.DataOut(v), g.ControlOut(v), g.TemporalOut(v)
	if !fwd {
		data, ctrl, temp = g.DataIn(v), g.ControlIn(v), g.TemporalIn(v)
	}
	out := s.arcs[:0]
	for _, w := range data {
		out = append(out, arc{w, 0})
	}
	for _, w := range ctrl {
		out = append(out, arc{w, 0})
	}
	for _, w := range temp {
		out = append(out, arc{w, s.unitW})
	}
	for _, e := range pending {
		if fwd && e.From == v {
			out = append(out, arc{e.To, s.unitW})
		} else if !fwd && e.To == v {
			out = append(out, arc{e.From, s.unitW})
		}
	}
	s.arcs = out
	return out
}
