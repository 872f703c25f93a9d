// Package domain implements the first two steps shared by both
// local-watermarking protocols (paper §IV-A):
//
//   - domain selection — pick a root node n_o and identify its fan-in tree
//     T_o of bounded distance;
//   - domain identification — assign every node of T_o a unique structural
//     identifier (package order), then walk T_o top-down breadth-first,
//     letting the author-keyed bitstream decide which inputs enter the
//     final subtree T.
//
// Because every choice consumes the signature-keyed bitstream and every
// node is named by its structural rank, the same (signature, design) pair
// always reproduces the same T — which is exactly what the detector does.
package domain

import (
	"fmt"
	"slices"
	"strconv"

	"localwm/internal/cdfg"
	"localwm/internal/order"
	"localwm/internal/prng"
)

// Config parameterizes subtree selection.
type Config struct {
	// Tau is the desired cardinality τ = |T| of the selected subtree. The
	// walk stops once τ nodes are selected; if the fan-in tree is smaller,
	// T is smaller too (callers that need a minimum size retry at another
	// root, as the paper's protocol does).
	Tau int
	// MaxDist bounds the fan-in distance of the candidate tree T_o. Zero
	// means τ, the paper's choice ("a fanin tree of n_o with max-distance
	// τ from n_o").
	MaxDist int
	// IncludeNum/IncludeDen give the probability with which each
	// non-mandatory input is included in the breadth-first walk ("the
	// exclusion of inputs can be done with a given probability"). Zero
	// values default to 1/2.
	IncludeNum, IncludeDen int
	// MaxTreeSize caps the candidate tree T_o at a node count, bounding
	// the cost of canonical ordering on designs whose fan-in cones blow up
	// (the BFS stops once the cap is reached, keeping whole distance
	// levels when possible). Zero defaults to max(64, 6·Tau). Embedder and
	// detector must use the same value; it is part of the public
	// watermark configuration.
	MaxTreeSize int
}

func (c Config) withDefaults() (Config, error) {
	if c.Tau <= 0 {
		return c, fmt.Errorf("domain: τ must be positive, got %d", c.Tau)
	}
	if c.MaxDist == 0 {
		c.MaxDist = c.Tau
	}
	if c.MaxDist < 0 {
		return c, fmt.Errorf("domain: negative max distance %d", c.MaxDist)
	}
	if c.IncludeDen == 0 {
		c.IncludeNum, c.IncludeDen = 1, 2
	}
	if c.IncludeDen < 0 || c.IncludeNum < 0 || c.IncludeNum > c.IncludeDen {
		return c, fmt.Errorf("domain: malformed inclusion probability %d/%d", c.IncludeNum, c.IncludeDen)
	}
	if c.MaxTreeSize == 0 {
		c.MaxTreeSize = 6 * c.Tau
		if c.MaxTreeSize < 64 {
			c.MaxTreeSize = 64
		}
	}
	if c.MaxTreeSize < c.Tau {
		return c, fmt.Errorf("domain: MaxTreeSize %d below τ %d", c.MaxTreeSize, c.Tau)
	}
	return c, nil
}

// Domain is a selected watermark locality.
type Domain struct {
	Root cdfg.NodeID
	// To is the candidate fan-in tree T_o in canonical (rank) order.
	To []cdfg.NodeID
	// T is the selected subtree, in breadth-first selection order starting
	// with the root. T ⊆ To.
	T []cdfg.NodeID
	// Order is the canonical ordering of To; Order.Rank names each node.
	Order *order.Result
}

// Contains reports whether v ∈ T.
func (d *Domain) Contains(v cdfg.NodeID) bool {
	for _, u := range d.T {
		if u == v {
			return true
		}
	}
	return false
}

// Roots returns, in ID order, the nodes that can host a domain: the
// computational nodes with at least one computational data predecessor (a
// root with an empty fan-in tree carries no watermark). The set depends
// on nodes and data edges only, so it holds while temporal edges are
// added.
func Roots(g *cdfg.Graph) []cdfg.NodeID {
	var roots []cdfg.NodeID
	for v := cdfg.NodeID(0); int(v) < g.Len(); v++ {
		if !g.Node(v).Op.IsComputational() {
			continue
		}
		for _, u := range g.DataIn(v) {
			if g.Node(u).Op.IsComputational() {
				roots = append(roots, v)
				break
			}
		}
	}
	return roots
}

// PickRoot pseudo-randomly selects a root for domain selection among
// roots, as built by Roots. It returns an error if roots is empty.
func PickRoot(roots []cdfg.NodeID, bs *prng.Bitstream) (cdfg.NodeID, error) {
	if len(roots) == 0 {
		return cdfg.None, fmt.Errorf("domain: design has no node with computational fan-in")
	}
	return roots[bs.Intn(len(roots))], nil
}

// Select performs domain selection and identification at the given root.
// The returned Domain's T is a deterministic function of (g, root, the
// bitstream state); Select consumes bitstream bits. The Domain is the
// caller's own; Selector.Select is the same selection in reused storage.
func Select(g *cdfg.Graph, bs *prng.Bitstream, root cdfg.NodeID, cfg Config) (*Domain, error) {
	var s Selector
	d, err := s.Select(g, bs, root, cfg)
	if err != nil {
		return nil, err
	}
	// Copies, so the Domain does not pin the Selector's per-node arrays.
	own := *d
	own.Order = new(order.Result)
	*own.Order = *d.Order
	return &own, nil
}

// Selector holds the storage of domain selection — tree and walk marks,
// the candidate tree, the walk queue, the canonical ordering's Ranker and
// the Domain itself — and reuses it from one Select to the next, so a
// scan over many roots of a graph allocates only while the storage grows.
// A Domain returned by a Selector aliases that storage and stays valid
// until the Selector's next call. The zero value is ready to use; a
// Selector must not be shared between goroutines.
type Selector struct {
	// mark[v] == stamp: v is in the candidate tree T_o; inT[v] == stamp:
	// the walk has selected v.
	mark, inT []uint32
	stamp     uint32
	to        []cdfg.NodeID
	next      []cdfg.NodeID
	queue     []cdfg.NodeID
	cands     []cdfg.NodeID
	ranker    order.Ranker
	d         Domain
}

// Select is the package-level Select in the Selector's storage.
func (s *Selector) Select(g *cdfg.Graph, bs *prng.Bitstream, root cdfg.NodeID, cfg Config) (*Domain, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := s.faninTree(g, root, cfg.MaxDist, cfg.MaxTreeSize); err != nil {
		return nil, err
	}
	// Ascending IDs spare the ranking its own sort of the tree by ID.
	slices.Sort(s.to)
	ord, err := s.ranker.Order(g, root, s.to, 0)
	if err != nil {
		return nil, err
	}

	d := &s.d
	*d = Domain{Root: root, To: ord.Ordered, T: d.T[:0], Order: ord}

	// Top-down breadth-first walk against edge direction. At each node the
	// bitstream picks at least one input to recurse into and then flips a
	// coin per remaining input. Candidate inputs are visited in canonical
	// rank order so the bit positions are unambiguous.
	s.inT[root] = s.stamp
	d.T = append(d.T, root)
	s.queue = append(s.queue[:0], root)
	for head := 0; head < len(s.queue) && len(d.T) < cfg.Tau; head++ {
		v := s.queue[head]

		s.cands = s.cands[:0]
		for _, u := range g.DataIn(v) {
			if s.mark[u] == s.stamp && s.inT[u] != s.stamp {
				s.cands = append(s.cands, u)
			}
		}
		if len(s.cands) == 0 {
			continue
		}
		// Canonical order of candidates.
		sortByRank(s.cands, ord)

		mandatory := bs.Intn(len(s.cands))
		for i, u := range s.cands {
			take := i == mandatory || bs.Coin(cfg.IncludeNum, cfg.IncludeDen)
			if !take {
				continue
			}
			s.inT[u] = s.stamp
			d.T = append(d.T, u)
			s.queue = append(s.queue, u)
			if len(d.T) >= cfg.Tau {
				break
			}
		}
	}
	return d, nil
}

// RootFingerprint returns a cheap structural fingerprint of a node — its
// operation, arity, and the multiset of its data-input operations — used
// by detectors to reject candidate roots before paying for a full domain
// derivation. The fingerprint depends only on the node's immediate
// neighborhood, so it survives cropping and embedding into host systems.
func RootFingerprint(g *cdfg.Graph, v cdfg.NodeID) string {
	return string(appendFingerprint(nil, g, v))
}

// appendFingerprint appends v's fingerprint text to fp.
func appendFingerprint(fp []byte, g *cdfg.Graph, v cdfg.NodeID) []byte {
	ins := g.DataIn(v)
	var small [8]int
	ops := small[:0]
	for _, u := range ins {
		ops = append(ops, int(g.Node(u).Op))
	}
	// Insertion-sort the small op multiset for order independence.
	for i := 1; i < len(ops); i++ {
		for j := i; j > 0 && ops[j] < ops[j-1]; j-- {
			ops[j], ops[j-1] = ops[j-1], ops[j]
		}
	}
	// "op/arity/[in-op in-op …]". Detection records store this text, so
	// its format must not change.
	fp = strconv.AppendInt(fp, int64(g.Node(v).Op), 10)
	fp = append(fp, '/')
	fp = strconv.AppendInt(fp, int64(len(ins)), 10)
	fp = append(fp, '/', '[')
	for i, op := range ops {
		if i > 0 {
			fp = append(fp, ' ')
		}
		fp = strconv.AppendInt(fp, int64(op), 10)
	}
	return append(fp, ']')
}

// RootIndex is the per-graph half of a detection scan: the candidate
// roots (Roots) and each one's fingerprint, computed once and grouped so
// a record visits only the roots its fingerprint admits. It only reads
// the graph and is safe for concurrent use.
type RootIndex struct {
	roots   []cdfg.NodeID
	bucket  map[string]int // fingerprint → bucket number
	start   []int          // bucket b is grouped[start[b]:start[b+1]]
	grouped []cdfg.NodeID  // the roots bucket by bucket, ascending IDs in each
}

// NewRootIndex indexes the candidate roots of g.
func NewRootIndex(g *cdfg.Graph) *RootIndex {
	ix := &RootIndex{roots: Roots(g), bucket: map[string]int{}, start: []int{0}}
	of := make([]int, len(ix.roots)) // bucket of roots[i]
	var fp []byte
	for i, v := range ix.roots {
		fp = appendFingerprint(fp[:0], g, v)
		b, ok := ix.bucket[string(fp)]
		if !ok {
			b = len(ix.bucket)
			ix.bucket[string(fp)] = b
			ix.start = append(ix.start, 0)
		}
		ix.start[b+1]++ // counts first, offsets below
		of[i] = b
	}
	for b := 1; b < len(ix.start); b++ {
		ix.start[b] += ix.start[b-1]
	}
	// A stable counting sort keeps every bucket in ascending ID order.
	ix.grouped = make([]cdfg.NodeID, len(ix.roots))
	fill := slices.Clone(ix.start)
	for i, v := range ix.roots {
		ix.grouped[fill[of[i]]] = v
		fill[of[i]]++
	}
	return ix
}

// Candidates returns, in ascending ID order, the roots whose fingerprint
// is fp, or every root when fp is empty (a record without a
// fingerprint). The slice must not be modified.
func (ix *RootIndex) Candidates(fp string) []cdfg.NodeID {
	if fp == "" {
		return ix.roots
	}
	b, ok := ix.bucket[fp]
	if !ok {
		return nil
	}
	return ix.grouped[ix.start[b]:ix.start[b+1]]
}

// faninTree collects into s.to, in BFS order, and marks with s.stamp the
// candidate tree T_o: FaninTree with a node-count cap. BFS levels are
// admitted whole while they fit, and the level that would overflow is
// admitted in ascending node-ID order up to the cap — a rule both the
// embedder and the detector apply identically. (Ascending-ID order is stable under the
// attacks the evaluation simulates: induced-subgraph cropping and host
// embedding both preserve the relative ID order of the surviving nodes.)
func (s *Selector) faninTree(g *cdfg.Graph, root cdfg.NodeID, maxDist, maxNodes int) error {
	if maxNodes <= 0 {
		return fmt.Errorf("domain: non-positive tree cap %d", maxNodes)
	}
	if n := g.Len(); len(s.mark) < n {
		s.mark = make([]uint32, n)
		s.inT = make([]uint32, n)
		s.stamp = 0
	}
	if s.stamp++; s.stamp == 0 {
		clear(s.mark)
		clear(s.inT)
		s.stamp = 1
	}
	s.mark[root] = s.stamp
	s.to = append(s.to[:0], root)
	level := s.to // the current BFS frontier, a suffix of s.to
	for d := 1; d <= maxDist && len(level) > 0 && len(s.to) < maxNodes; d++ {
		// Marking on discovery stands in for the per-level seen set; the
		// part of a level past the cap is unmarked again below.
		s.next = s.next[:0]
		for _, v := range level {
			for _, u := range g.DataIn(v) {
				if s.mark[u] != s.stamp {
					s.mark[u] = s.stamp
					s.next = append(s.next, u)
				}
			}
		}
		if room := maxNodes - len(s.to); len(s.next) > room {
			slices.Sort(s.next)
			for _, u := range s.next[room:] {
				s.mark[u] = 0
			}
			s.to = append(s.to, s.next[:room]...)
			return nil
		}
		start := len(s.to)
		s.to = append(s.to, s.next...)
		level = s.to[start:]
	}
	return nil
}

// sortByRank insertion-sorts the few inputs of one node into canonical
// rank order.
func sortByRank(nodes []cdfg.NodeID, ord *order.Result) {
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0 && ord.Rank(nodes[j]) < ord.Rank(nodes[j-1]); j-- {
			nodes[j], nodes[j-1] = nodes[j-1], nodes[j]
		}
	}
}
