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
// bitstream state); Select consumes bitstream bits.
func Select(g *cdfg.Graph, bs *prng.Bitstream, root cdfg.NodeID, cfg Config) (*Domain, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	tree, err := cappedFaninTree(g, root, cfg.MaxDist, cfg.MaxTreeSize)
	if err != nil {
		return nil, err
	}
	to := make([]cdfg.NodeID, 0, len(tree))
	for v := range tree {
		to = append(to, v)
	}
	to = cdfg.SortedIDs(to)

	ord, err := order.Order(g, root, to, 0)
	if err != nil {
		return nil, err
	}

	d := &Domain{Root: root, To: ord.Ordered, Order: ord}

	// Top-down breadth-first walk against edge direction. At each node the
	// bitstream picks at least one input to recurse into and then flips a
	// coin per remaining input. Candidate inputs are visited in canonical
	// rank order so the bit positions are unambiguous.
	inT := map[cdfg.NodeID]bool{root: true}
	d.T = append(d.T, root)
	queue := []cdfg.NodeID{root}
	for len(queue) > 0 && len(d.T) < cfg.Tau {
		v := queue[0]
		queue = queue[1:]

		var cands []cdfg.NodeID
		for _, u := range g.DataIn(v) {
			if _, inTree := tree[u]; inTree && !inT[u] {
				cands = append(cands, u)
			}
		}
		if len(cands) == 0 {
			continue
		}
		// Canonical order of candidates.
		cands = sortByRank(cands, ord.Rank)

		mandatory := bs.Intn(len(cands))
		for i, u := range cands {
			take := i == mandatory || bs.Coin(cfg.IncludeNum, cfg.IncludeDen)
			if !take {
				continue
			}
			inT[u] = true
			d.T = append(d.T, u)
			queue = append(queue, u)
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
	ins := g.DataIn(v)
	ops := make([]int, 0, len(ins))
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
	fp := make([]byte, 0, 8+3*len(ops))
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
	return string(append(fp, ']'))
}

// cappedFaninTree is FaninTree with a node-count cap: BFS levels are
// admitted whole while they fit, and the level that would overflow is
// admitted in ascending node-ID order up to the cap — a rule both the
// embedder and the detector apply identically. (Ascending-ID order is
// stable under the attacks the evaluation simulates: induced-subgraph
// cropping and host embedding both preserve the relative ID order of the
// surviving nodes.)
func cappedFaninTree(g *cdfg.Graph, root cdfg.NodeID, maxDist, maxNodes int) (map[cdfg.NodeID]int, error) {
	if maxNodes <= 0 {
		return nil, fmt.Errorf("domain: non-positive tree cap %d", maxNodes)
	}
	dist := map[cdfg.NodeID]int{root: 0}
	frontier := []cdfg.NodeID{root}
	for d := 1; d <= maxDist && len(frontier) > 0 && len(dist) < maxNodes; d++ {
		var next []cdfg.NodeID
		seen := map[cdfg.NodeID]bool{}
		for _, v := range frontier {
			for _, u := range g.DataIn(v) {
				if _, ok := dist[u]; !ok && !seen[u] {
					seen[u] = true
					next = append(next, u)
				}
			}
		}
		next = cdfg.SortedIDs(next)
		for _, u := range next {
			if len(dist) >= maxNodes {
				return dist, nil
			}
			dist[u] = d
		}
		frontier = next
	}
	return dist, nil
}

func sortByRank(nodes []cdfg.NodeID, rank map[cdfg.NodeID]int) []cdfg.NodeID {
	out := append([]cdfg.NodeID(nil), nodes...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && rank[out[j]] < rank[out[j-1]]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
