package cdfg

import "fmt"

// Path-length convention: a path's length is the number of computational
// nodes on it (unit-latency operations, i.e. the number of control steps a
// chained execution needs). Inputs, outputs, constants, and delays
// contribute zero. This matches the paper's usage, where the critical path
// and laxities are quoted "in operations" and compared against control-step
// budgets.

// WeightFunc gives the path-length contribution of an operation. The
// default (nil) charges 1 per computational node — the control-step
// metric of behavioral synthesis. A machine model can supply its latency
// table instead (e.g. vliw.Machine.OpWeight) so that laxity and critical
// path reflect cycles rather than steps; the watermark embedders accept
// such a function to keep constraints off machine-critical paths.
type WeightFunc func(Op) int

// NodeWeight is the contribution of node v to path length under weight:
// zero for a non-computational node, else weight's value (1 when weight
// is nil).
func (g *Graph) NodeWeight(weight WeightFunc, v NodeID) int {
	op := g.nodes[v].Op
	if !op.IsComputational() {
		return 0
	}
	if weight != nil {
		return weight(op)
	}
	return 1
}

// PathOpts selects which edge kinds participate in longest-path queries
// and how nodes are weighted.
type PathOpts struct {
	// IncludeTemporal makes temporal (watermark) edges part of the
	// precedence relation. Scheduling-related queries set this; the
	// specification's own critical path does not.
	IncludeTemporal bool
	// Weight overrides the unit node weight (see WeightFunc). Only
	// computational nodes are charged either way.
	Weight WeightFunc
}

// LongestTo returns, for every node v, the length of the longest path
// ending at v, including v's own weight. The graph must be acyclic over
// the selected edge kinds.
func (g *Graph) LongestTo(opts PathOpts) ([]int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	return g.longest(order, false, opts, 0), nil
}

// LongestFrom returns, for every node v, the length of the longest path
// starting at v, including v's own weight.
func (g *Graph) LongestFrom(opts PathOpts) ([]int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	return g.longest(order, true, opts, 0), nil
}

// longest computes longest paths along a topological order: ending at
// each node, or starting at it when fromEnd is set (the order is then
// walked backwards). A temporal edge, when opts includes them, adds tempW
// to the paths through it. It takes a max over the raw adjacency lists;
// a parallel edge cannot change a max.
func (g *Graph) longest(order []NodeID, fromEnd bool, opts PathOpts, tempW int) []int {
	data, ctrl, temp := g.dataIn, g.ctrlIn, g.tempIn
	if fromEnd {
		data, ctrl, temp = g.dataOut, g.ctrlOut, g.tempOut
	}
	out := make([]int, len(g.nodes))
	for i := range order {
		v := order[i]
		if fromEnd {
			v = order[len(order)-1-i]
		}
		best := 0
		for _, u := range data[v] {
			best = max(best, out[u])
		}
		for _, u := range ctrl[v] {
			best = max(best, out[u])
		}
		if opts.IncludeTemporal {
			for _, u := range temp[v] {
				best = max(best, out[u]+tempW)
			}
		}
		out[v] = best + g.NodeWeight(opts.Weight, v)
	}
	return out
}

// CriticalPath returns the length of the longest path in the graph over
// data+control edges (the specification's critical path C, in operations).
func (g *Graph) CriticalPath() (int, error) { return g.CriticalPathW(nil) }

// CriticalPathW is CriticalPath under a custom operation weighting (e.g.
// machine latencies).
func (g *Graph) CriticalPathW(weight WeightFunc) (int, error) {
	to, err := g.LongestTo(PathOpts{Weight: weight})
	if err != nil {
		return 0, err
	}
	best := 0
	for _, l := range to {
		if l > best {
			best = l
		}
	}
	return best, nil
}

// Laxities returns, for every node v, the length of the longest path in
// the graph that contains v (the paper's laxity: "a node n_i has a laxity
// of x if the longest path that contains n_i traverses the CDFG and has a
// length of x"). Computed as longest-to(v) + longest-from(v) - weight(v),
// over data+control edges.
//
// Note the paper's convention: a node with HIGH laxity lies on a LONG path
// (is timing-critical); the watermark protocols therefore keep nodes whose
// laxity is at most C·(1-ε) away from critical, where C is the critical
// path length.
func (g *Graph) Laxities() ([]int, error) { return g.LaxitiesW(nil) }

// LaxitiesW is Laxities under a custom operation weighting (e.g. machine
// latencies), so a watermark embedder can judge criticality in cycles.
func (g *Graph) LaxitiesW(weight WeightFunc) ([]int, error) {
	opts := PathOpts{Weight: weight}
	to, err := g.LongestTo(opts)
	if err != nil {
		return nil, err
	}
	from, err := g.LongestFrom(opts)
	if err != nil {
		return nil, err
	}
	lax := make([]int, len(g.nodes))
	for v := range lax {
		lax[v] = to[v] + from[v] - g.NodeWeight(weight, NodeID(v))
	}
	return lax, nil
}

// Levels returns the level L_i of every node with respect to root: the
// length (in edges, over reversed data edges) of the longest path in the
// fan-in cone from root to the node. Nodes outside root's transitive
// fan-in get level -1. This is the quantity used by ordering criterion C1.
// It is ConeLevels.Compute spread over a fresh per-node slice.
func (g *Graph) Levels(root NodeID) ([]int, error) {
	var c ConeLevels
	if err := c.Compute(g, root); err != nil {
		return nil, err
	}
	level := make([]int, len(g.nodes))
	for i := range level {
		level[i] = -1
	}
	for _, v := range c.cone {
		level[v] = int(c.level[v])
	}
	return level, nil
}

// ConeLevels holds the levels of one root's data fan-in cone in storage
// that is reused from one Compute to the next, so ranking many roots of
// a graph allocates once. Per-node entries are valid only where mark
// equals the current stamp, which makes a new cone cost its own size,
// not the graph's. The zero value is ready to use; a ConeLevels must not
// be shared between goroutines.
type ConeLevels struct {
	level   []int32
	pending []int32
	mark    []uint32 // mark[v] == stamp: v is in the current cone
	stamp   uint32
	cone    []NodeID // members in discovery order
	ready   []NodeID // Kahn's finalization order
}

// Compute finds the levels of root's cone in g (see Graph.Levels).
//
// Only the cone is visited: a breadth-first search over data inputs
// collects it, and Kahn's algorithm over the cone's reversed data edges
// finalizes each node once all of its in-cone consumers are. A data cycle
// inside the cone is reported as an error; edges of other kinds, and
// nodes outside the cone, are never looked at.
func (c *ConeLevels) Compute(g *Graph, root NodeID) error {
	if err := g.checkID(root); err != nil {
		return err
	}
	if n := len(g.nodes); len(c.mark) < n {
		c.level = make([]int32, n)
		c.pending = make([]int32, n)
		c.mark = make([]uint32, n)
		c.stamp = 0
	}
	if c.stamp++; c.stamp == 0 {
		clear(c.mark)
		c.stamp = 1
	}
	// Collect the cone, every member at level 0 for now.
	c.mark[root] = c.stamp
	c.level[root] = 0
	c.cone = append(c.cone[:0], root)
	for i := 0; i < len(c.cone); i++ {
		for _, u := range g.dataIn[c.cone[i]] {
			if c.mark[u] != c.stamp {
				c.mark[u] = c.stamp
				c.level[u] = 0
				c.cone = append(c.cone, u)
			}
		}
	}
	// pending[v] counts v's data-out edges into the cone whose target is
	// not final yet; v becomes final when it drops to zero.
	for _, v := range c.cone {
		c.pending[v] = 0
		for _, w := range g.dataOut[v] {
			if c.mark[w] == c.stamp {
				c.pending[v]++
			}
		}
	}
	if c.pending[root] != 0 {
		return c.cycle(g, root, 0) // root lies on a data cycle
	}
	c.ready = append(c.ready[:0], root)
	for i := 0; i < len(c.ready); i++ {
		w := c.ready[i]
		for _, u := range g.dataIn[w] {
			if c.level[w]+1 > c.level[u] {
				c.level[u] = c.level[w] + 1
			}
			if c.pending[u]--; c.pending[u] == 0 {
				c.ready = append(c.ready, u)
			}
		}
	}
	if len(c.ready) != len(c.cone) {
		return c.cycle(g, root, len(c.ready))
	}
	return nil
}

func (c *ConeLevels) cycle(g *Graph, root NodeID, ordered int) error {
	return fmt.Errorf("cdfg: data cycle in the fan-in cone of %s (%d of %d nodes ordered)",
		g.nodes[root].Name, ordered, len(c.cone))
}

// Level returns v's level from the last Compute, or -1 when v lies
// outside that cone.
func (c *ConeLevels) Level(v NodeID) int {
	if int(v) >= len(c.mark) || c.mark[v] != c.stamp {
		return -1
	}
	return int(c.level[v])
}

// FaninTree returns the set of nodes whose shortest backward data-edge
// distance from root is at most maxDist (root itself included, at distance
// zero), as a map from node to distance. This is the subtree T_o of the
// domain-selection step.
func (g *Graph) FaninTree(root NodeID, maxDist int) (map[NodeID]int, error) {
	if err := g.checkID(root); err != nil {
		return nil, err
	}
	if maxDist < 0 {
		return nil, fmt.Errorf("cdfg: negative fan-in distance %d", maxDist)
	}
	dist := map[NodeID]int{root: 0}
	frontier := []NodeID{root}
	for d := 1; d <= maxDist && len(frontier) > 0; d++ {
		var next []NodeID
		for _, v := range frontier {
			for _, u := range g.dataIn[v] {
				if _, ok := dist[u]; !ok {
					dist[u] = d
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return dist, nil
}

// FaninCount returns K_i(x): the number of nodes in the transitive fan-in
// tree of v within maximal distance x (v excluded). Ordering criterion C2.
// It is the readable reference definition; package order computes K and φ
// together in one allocation-free search and is tested against this.
func (g *Graph) FaninCount(v NodeID, x int) (int, error) {
	tree, err := g.FaninTree(v, x)
	if err != nil {
		return 0, err
	}
	return len(tree) - 1, nil
}

// FaninFunctionalitySum returns φ(v, x): the sum of operation identifiers
// f(n_a) over the fan-in tree of v within maximal distance x (v included,
// matching the paper's T_i(x) which "consists of all nodes with maximal
// distance D_x from n_i"). Ordering criterion C3. Like FaninCount, it is
// the reference definition, off the ordering hot path.
func (g *Graph) FaninFunctionalitySum(v NodeID, x int) (int, error) {
	tree, err := g.FaninTree(v, x)
	if err != nil {
		return 0, err
	}
	sum := 0
	for u := range tree {
		sum += int(g.nodes[u].Op)
	}
	return sum, nil
}

// SubgraphResult is the outcome of InducedSubgraph: the new graph plus the
// two-way node mapping.
type SubgraphResult struct {
	Graph  *Graph
	ToSub  map[NodeID]NodeID // original ID -> subgraph ID
	ToOrig []NodeID          // subgraph ID -> original ID
}

// InducedSubgraph builds the subgraph induced by keep (all edges of every
// kind whose endpoints are both kept). Nodes are renumbered densely in
// ascending original-ID order, preserving deterministic identity.
func (g *Graph) InducedSubgraph(keep []NodeID) (*SubgraphResult, error) {
	ids := SortedIDs(keep)
	for i, v := range ids {
		if err := g.checkID(v); err != nil {
			return nil, err
		}
		if i > 0 && ids[i-1] == v {
			return nil, fmt.Errorf("cdfg: duplicate node %d in subgraph set", v)
		}
	}
	res := &SubgraphResult{
		Graph:  New(len(ids)),
		ToSub:  make(map[NodeID]NodeID, len(ids)),
		ToOrig: make([]NodeID, 0, len(ids)),
	}
	for _, v := range ids {
		n := g.nodes[v]
		sid := res.Graph.AddNode(n.Name, n.Op)
		res.ToSub[v] = sid
		res.ToOrig = append(res.ToOrig, v)
	}
	addEdges := func(in [][]NodeID, kind EdgeKind) error {
		for _, v := range ids {
			for _, u := range in[v] {
				su, ok := res.ToSub[u]
				if !ok {
					continue
				}
				if err := res.Graph.AddEdge(su, res.ToSub[v], kind); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := addEdges(g.dataIn, DataEdge); err != nil {
		return nil, err
	}
	if err := addEdges(g.ctrlIn, ControlEdge); err != nil {
		return nil, err
	}
	if err := addEdges(g.tempIn, TemporalEdge); err != nil {
		return nil, err
	}
	return res, nil
}
