package cdfg

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// NodeID indexes a node within one Graph. IDs are dense: the first node
// added receives 0, the next 1, and so on. A NodeID is meaningless outside
// the graph that issued it.
type NodeID int

// None is the invalid NodeID.
const None NodeID = -1

// Node is a primitive operation in a CDFG.
type Node struct {
	ID   NodeID
	Name string // human-readable label, e.g. "A5" or "C3"; unique per graph
	Op   Op
}

// EdgeKind distinguishes the three edge classes of the model.
type EdgeKind int

const (
	// DataEdge carries a value from producer to consumer.
	DataEdge EdgeKind = iota
	// ControlEdge sequences two operations without value flow (part of the
	// original specification).
	ControlEdge
	// TemporalEdge is an additional precedence constraint: its source must
	// be scheduled strictly before its destination. Temporal edges are the
	// carrier of the scheduling watermark and are "standard nomenclatures
	// for behavioral descriptions (e.g., HYPER)".
	TemporalEdge
)

func (k EdgeKind) String() string {
	switch k {
	case DataEdge:
		return "data"
	case ControlEdge:
		return "ctrl"
	case TemporalEdge:
		return "temp"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Edge is a directed edge of a CDFG.
type Edge struct {
	From, To NodeID
	Kind     EdgeKind
}

// Graph is a mutable CDFG. The zero value is an empty graph ready to use.
//
// Structural edges (data + control) define the specification's precedence
// relation and value flow; temporal edges add watermark or user precedence
// on top. Methods that reason about "precedence" consider all three kinds
// unless documented otherwise; methods that reason about value flow
// (fan-in trees, template matching) consider data edges only.
type Graph struct {
	nodes []Node

	// names maps a node name to the first node that carries it. It is
	// built by the first NodeByName and dropped by AddNode, so a graph
	// nobody looks names up in (most designs resident in the registry)
	// carries none. The pointer is atomic because a shared graph's first
	// lookups may come from concurrent readers; each builds the same map.
	names atomic.Pointer[map[string]NodeID]

	// dataIn[v] lists, in input-slot order, the data-edge sources of v.
	// Slot order is meaningful: it is how the domain-identification step
	// disambiguates "each node input".
	dataIn  [][]NodeID
	dataOut [][]NodeID

	ctrlIn  [][]NodeID
	ctrlOut [][]NodeID

	temporal []Edge // explicit list, in insertion order
	tempIn   [][]NodeID
	tempOut  [][]NodeID

	// Generation counters version the graph for the PathOracle cache.
	// structGen advances on any change that can alter structural (data +
	// control) path analyses: node additions, data/control edges, and
	// operation rewrites. tempGen advances on temporal-edge changes only.
	// Queries that exclude temporal edges are keyed by structGen alone, so
	// watermark embedding (which only adds temporal edges) never evicts
	// them.
	structGen uint64
	tempGen   uint64

	// oracle is the lazily created longest-path cache; see Oracle. It is
	// deliberately not part of Clone: a cloned graph starts with a cold
	// cache of its own.
	oracle atomic.Pointer[PathOracle]

	// pathObserver, when set, is called after every longest-path
	// (re)computation the oracle performs on a cache miss; see
	// OnPathRecompute. Not copied by Clone.
	pathObserver func(kind string, start time.Time, elapsed time.Duration)
}

// OnPathRecompute registers fn to be called after every longest-path
// recomputation the graph's PathOracle performs (cache hits are not
// reported — they do no path work). kind names the analysis family
// ("longest" for the structural to/from/laxity bundle,
// "temporal_weighted" for the watermark no-stretch model). fn may be
// invoked from any goroutine querying the oracle and must be safe for
// concurrent use; register it before concurrent queries begin, like any
// other graph mutation. A nil fn removes the observer. The observer is
// per-graph state and is not copied by Clone.
func (g *Graph) OnPathRecompute(fn func(kind string, start time.Time, elapsed time.Duration)) {
	g.pathObserver = fn
}

// New returns an empty graph with capacity hints for n nodes.
func New(n int) *Graph {
	g := &Graph{}
	g.grow(n)
	return g
}

func (g *Graph) grow(n int) {
	if cap(g.nodes) < n {
		nodes := make([]Node, len(g.nodes), n)
		copy(nodes, g.nodes)
		g.nodes = nodes
	}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// AddNode appends a node with the given name and operation and returns its
// ID. Names should be unique; Validate enforces this.
func (g *Graph) AddNode(name string, op Op) NodeID {
	g.structGen++
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Op: op})
	g.names.Store(nil)
	g.dataIn = append(g.dataIn, nil)
	g.dataOut = append(g.dataOut, nil)
	g.ctrlIn = append(g.ctrlIn, nil)
	g.ctrlOut = append(g.ctrlOut, nil)
	g.tempIn = append(g.tempIn, nil)
	g.tempOut = append(g.tempOut, nil)
	return id
}

// Node returns the node record for id. It panics on an out-of-range ID;
// IDs are only ever produced by the graph itself, so a bad ID is a
// programming error rather than an input error.
func (g *Graph) Node(id NodeID) Node {
	return g.nodes[id]
}

// SetOp rewrites the operation kind of an existing node. Used by design
// integration (e.g. turning a core's primary input into a forwarding op
// when wiring it into a host system); callers are responsible for
// re-validating arity afterwards.
func (g *Graph) SetOp(v NodeID, op Op) {
	g.structGen++
	g.nodes[v].Op = op
}

// NodeByName returns the node with the given name; when several nodes
// share it, the one added first. After the first call on a graph it is
// a map lookup.
func (g *Graph) NodeByName(name string) (Node, bool) {
	names := g.names.Load()
	if names == nil {
		m := make(map[string]NodeID, len(g.nodes))
		for i := len(g.nodes) - 1; i >= 0; i-- { // the first node added wins
			m[g.nodes[i].Name] = NodeID(i)
		}
		names = &m
		g.names.Store(names)
	}
	id, ok := (*names)[name]
	if !ok {
		return Node{}, false
	}
	return g.nodes[id], true
}

// MustNode returns the ID of the node with the given name, panicking if it
// does not exist. It is a convenience for constructing the hand-built
// example designs.
func (g *Graph) MustNode(name string) NodeID {
	n, ok := g.NodeByName(name)
	if !ok {
		panic(fmt.Sprintf("cdfg: no node named %q", name))
	}
	return n.ID
}

// Nodes returns all nodes in ID order. The returned slice is a copy.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

func (g *Graph) checkID(id NodeID) error {
	if id < 0 || int(id) >= len(g.nodes) {
		return fmt.Errorf("cdfg: node id %d out of range [0,%d)", id, len(g.nodes))
	}
	return nil
}

// AddEdge inserts a directed edge. Duplicate data/control edges between the
// same pair are allowed only for data edges (an operation may consume the
// same value on two input slots); duplicate temporal edges are rejected, as
// are self-loops.
func (g *Graph) AddEdge(from, to NodeID, kind EdgeKind) error {
	if err := g.checkID(from); err != nil {
		return err
	}
	if err := g.checkID(to); err != nil {
		return err
	}
	if from == to {
		return fmt.Errorf("cdfg: self-loop on node %d (%s)", from, g.nodes[from].Name)
	}
	switch kind {
	case DataEdge:
		g.structGen++
		g.dataIn[to] = append(g.dataIn[to], from)
		g.dataOut[from] = append(g.dataOut[from], to)
	case ControlEdge:
		if contains(g.ctrlOut[from], to) {
			return fmt.Errorf("cdfg: duplicate control edge %s->%s", g.nodes[from].Name, g.nodes[to].Name)
		}
		g.structGen++
		g.ctrlIn[to] = append(g.ctrlIn[to], from)
		g.ctrlOut[from] = append(g.ctrlOut[from], to)
	case TemporalEdge:
		if contains(g.tempOut[from], to) {
			return fmt.Errorf("cdfg: duplicate temporal edge %s->%s", g.nodes[from].Name, g.nodes[to].Name)
		}
		g.tempGen++
		g.temporal = append(g.temporal, Edge{From: from, To: to, Kind: TemporalEdge})
		g.tempIn[to] = append(g.tempIn[to], from)
		g.tempOut[from] = append(g.tempOut[from], to)
	default:
		return fmt.Errorf("cdfg: unknown edge kind %v", kind)
	}
	return nil
}

// MustAddEdge is AddEdge that panics on error; used by builders of
// hand-constructed designs where an edge error is a bug.
func (g *Graph) MustAddEdge(from, to NodeID, kind EdgeKind) {
	if err := g.AddEdge(from, to, kind); err != nil {
		panic(err)
	}
}

// DataIn returns the data-edge sources of v in input-slot order.
// The returned slice must not be modified.
func (g *Graph) DataIn(v NodeID) []NodeID { return g.dataIn[v] }

// DataOut returns the data-edge sinks of v in insertion order.
// The returned slice must not be modified.
func (g *Graph) DataOut(v NodeID) []NodeID { return g.dataOut[v] }

// ControlIn returns the control-edge sources of v in insertion order.
// The returned slice must not be modified.
func (g *Graph) ControlIn(v NodeID) []NodeID { return g.ctrlIn[v] }

// ControlOut returns the control-edge sinks of v in insertion order.
// The returned slice must not be modified.
func (g *Graph) ControlOut(v NodeID) []NodeID { return g.ctrlOut[v] }

// TemporalIn returns the temporal-edge sources of v in insertion order.
// The returned slice must not be modified.
func (g *Graph) TemporalIn(v NodeID) []NodeID { return g.tempIn[v] }

// TemporalOut returns the temporal-edge sinks of v in insertion order.
// The returned slice must not be modified.
func (g *Graph) TemporalOut(v NodeID) []NodeID { return g.tempOut[v] }

// TemporalEdges returns the temporal edges in insertion order as a copy.
func (g *Graph) TemporalEdges() []Edge {
	out := make([]Edge, len(g.temporal))
	copy(out, g.temporal)
	return out
}

// ClearTemporalEdges removes every temporal edge; the paper's flow removes
// the added constraints from the optimized specification after synthesis.
func (g *Graph) ClearTemporalEdges() {
	g.tempGen++
	g.temporal = g.temporal[:0]
	for i := range g.tempIn {
		g.tempIn[i] = nil
		g.tempOut[i] = nil
	}
}

// Clone returns a deep copy of the graph. The clone carries the source's
// generation counters but starts with a cold PathOracle of its own, so
// cached analyses never leak across graph identities.
func (g *Graph) Clone() *Graph {
	c := New(len(g.nodes))
	c.nodes = append(c.nodes[:0], g.nodes...)
	c.dataIn = cloneAdj(g.dataIn)
	c.dataOut = cloneAdj(g.dataOut)
	c.ctrlIn = cloneAdj(g.ctrlIn)
	c.ctrlOut = cloneAdj(g.ctrlOut)
	c.tempIn = cloneAdj(g.tempIn)
	c.tempOut = cloneAdj(g.tempOut)
	c.temporal = append([]Edge(nil), g.temporal...)
	c.structGen = g.structGen
	c.tempGen = g.tempGen
	return c
}

func cloneAdj(a [][]NodeID) [][]NodeID {
	out := make([][]NodeID, len(a))
	for i, l := range a {
		if l != nil {
			out[i] = append([]NodeID(nil), l...)
		}
	}
	return out
}

// EdgeCount returns the number of edges of each kind.
func (g *Graph) EdgeCount() (data, ctrl, temporal int) {
	for v := range g.nodes {
		data += len(g.dataIn[v])
		ctrl += len(g.ctrlIn[v])
	}
	return data, ctrl, len(g.temporal)
}

// Inputs returns the IDs of all primary-input nodes in ID order.
func (g *Graph) Inputs() []NodeID { return g.opNodes(OpInput) }

// Outputs returns the IDs of all primary-output nodes in ID order.
func (g *Graph) Outputs() []NodeID { return g.opNodes(OpOutput) }

func (g *Graph) opNodes(op Op) []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Op == op {
			out = append(out, n.ID)
		}
	}
	return out
}

// Computational returns the IDs of all computational nodes in ID order.
func (g *Graph) Computational() []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Op.IsComputational() {
			out = append(out, n.ID)
		}
	}
	return out
}

// TopoOrder returns a topological order over the full precedence relation
// (data + control + temporal edges). It returns an error if the graph has
// a cycle; adding a watermark temporal edge must never create one, and the
// scheduler refuses cyclic inputs.
//
// The order is deterministic: among ready nodes, the smallest NodeID is
// emitted first (Kahn's algorithm with a min-heap frontier). In-degrees
// count every edge, parallel ones included, and each edge releases its
// target once, so a node becomes ready exactly when its last distinct
// predecessor is emitted.
func (g *Graph) TopoOrder() ([]NodeID, error) {
	n := len(g.nodes)
	indeg := make([]int32, n)
	// Ascending IDs already form a valid min-heap.
	var frontier idHeap
	for v := 0; v < n; v++ {
		indeg[v] = int32(len(g.dataIn[v]) + len(g.ctrlIn[v]) + len(g.tempIn[v]))
		if indeg[v] == 0 {
			frontier = append(frontier, NodeID(v))
		}
	}
	order := make([]NodeID, 0, n)
	release := func(ws []NodeID) {
		for _, w := range ws {
			if indeg[w]--; indeg[w] == 0 {
				frontier.push(w)
			}
		}
	}
	for len(frontier) > 0 {
		v := frontier.pop()
		order = append(order, v)
		release(g.dataOut[v])
		release(g.ctrlOut[v])
		release(g.tempOut[v])
	}
	if len(order) != n {
		return nil, fmt.Errorf("cdfg: graph has a precedence cycle (%d of %d nodes ordered)", len(order), n)
	}
	return order, nil
}

// idHeap is a binary min-heap of node IDs.
type idHeap []NodeID

func (h *idHeap) push(v NodeID) {
	*h = append(*h, v)
	a := *h
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if a[p] <= a[i] {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *idHeap) pop() NodeID {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(a) {
			break
		}
		if c+1 < len(a) && a[c+1] < a[c] {
			c++
		}
		if a[i] <= a[c] {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	*h = a
	return top
}

// HasPath reports whether there is a precedence path (over all edge kinds)
// from src to dst. It is a one-off query; a caller asking many should
// reuse one Reach.
func (g *Graph) HasPath(src, dst NodeID) bool {
	return g.NewReach().Path(src, dst, nil)
}

// Reach answers precedence-reachability queries over one graph, optionally
// extended by edges not (yet) inserted into it. The visited marks are a
// stamp array reused across queries, so a run of queries allocates once.
// A Reach stays valid while the graph's node set is unchanged; edges may
// be added between queries.
type Reach struct {
	g     *Graph
	mark  []uint32 // mark[v] == stamp: v visited by the current query
	stamp uint32
	stack []NodeID
}

// NewReach returns a reachability query helper for g.
func (g *Graph) NewReach() *Reach {
	return &Reach{g: g, mark: make([]uint32, len(g.nodes))}
}

// Path reports whether there is a precedence path from src to dst over
// every edge kind of the graph plus the extra edges.
func (r *Reach) Path(src, dst NodeID, extra []Edge) bool {
	if src == dst {
		return true
	}
	if r.stamp++; r.stamp == 0 {
		clear(r.mark)
		r.stamp = 1
	}
	g := r.g
	r.mark[src] = r.stamp
	r.stack = append(r.stack[:0], src)
	for len(r.stack) > 0 {
		v := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		for _, l := range [3][]NodeID{g.dataOut[v], g.ctrlOut[v], g.tempOut[v]} {
			for _, w := range l {
				if r.visit(w, dst) {
					return true
				}
			}
		}
		for _, e := range extra {
			if e.From == v && r.visit(e.To, dst) {
				return true
			}
		}
	}
	return false
}

// visit pushes an unvisited w and reports whether it is dst.
func (r *Reach) visit(w, dst NodeID) bool {
	if w == dst {
		return true
	}
	if r.mark[w] != r.stamp {
		r.mark[w] = r.stamp
		r.stack = append(r.stack, w)
	}
	return false
}

// SortedIDs returns ids sorted ascending (a convenience for deterministic
// set handling).
func SortedIDs(ids []NodeID) []NodeID {
	out := append([]NodeID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func contains(l []NodeID, v NodeID) bool {
	for _, x := range l {
		if x == v {
			return true
		}
	}
	return false
}
