// Package order implements the canonical node-ordering routine of the
// domain-identification step (paper §IV-A). Watermark embedding and
// detection must both be able to name "the i-th node of the subtree"
// without exchanging any identifiers, so nodes are ranked purely from
// graph structure:
//
//	C1  higher level L_i first, where L_i is the length of the longest
//	    data path from the subtree root n_o back to n_i;
//	C2  ties broken by K_i(x), the cardinality of n_i's transitive fan-in
//	    tree within distance D_x, for increasing D_x;
//	C3  remaining ties broken by φ(n_i, x), the sum of the functionality
//	    identifiers over the same fan-in tree, for increasing D_x.
//
// The paper tries C2 and C3 "for increasing values of D_x until all nodes
// in the subtree are uniquely identified". Structurally isomorphic nodes
// (e.g. the two halves of a perfectly symmetric adder tree) can never be
// separated by structural criteria; Order reports whether the ordering is
// fully canonical, and falls back to operation kind and then node ID only
// to keep the output total.
package order

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"localwm/internal/cdfg"
)

// Result is the outcome of ordering a node set.
type Result struct {
	// Ordered lists the nodes from greatest to least under the paper's ">"
	// relation. Identifier i names Ordered[i]; Rank inverts it.
	Ordered []cdfg.NodeID
	// Canonical reports whether C1–C3 alone separated every pair. When
	// false, at least one tie was broken non-structurally, and a detector
	// on a renumbered copy of the design may disagree on those positions.
	Canonical bool
	// MaxDepth is the largest D_x that was consulted.
	MaxDepth int

	byID []idRank // every ordered node with its rank, ascending by ID
}

type idRank struct {
	id   cdfg.NodeID
	rank int
}

// Rank returns v's identifier (its index in Ordered), or -1 when v was
// not ordered.
func (r *Result) Rank(v cdfg.NodeID) int {
	i, ok := slices.BinarySearchFunc(r.byID, v, func(e idRank, v cdfg.NodeID) int { return int(e.id - v) })
	if !ok {
		return -1
	}
	return r.byID[i].rank
}

// Ranker holds the storage of canonical ordering — the cone levels, the
// fan-in search marks, the sort keys and the result — and reuses it from
// one call to the next, so ranking many roots of a graph allocates only
// while the storage grows. A Result returned by a Ranker aliases that
// storage and stays valid until the Ranker's next call. The zero value is
// ready to use; a Ranker must not be shared between goroutines.
type Ranker struct {
	levels     cdfg.ConeLevels
	fi         faninScratch
	c1         []int
	byC1       []uint64
	perm       []int // positions into the ranked nodes, in rank order
	k, phi     []int // the latest (K, φ) refinement, by position
	runs, next []span
	res        Result
}

// Order ranks the given subtree nodes of g with respect to root. The
// subtree must contain root. maxDepth bounds the D_x search; a value of 0
// means "up to the number of subtree nodes", which always suffices because
// fan-in trees stop growing beyond that distance. The Result is the
// caller's own; Ranker.Order is the same ranking in reused storage.
func Order(g *cdfg.Graph, root cdfg.NodeID, subtree []cdfg.NodeID, maxDepth int) (*Result, error) {
	res, err := new(Ranker).Order(g, root, subtree, maxDepth)
	if err != nil {
		return nil, err
	}
	// A copy, so the Result does not pin the Ranker's per-node arrays.
	own := *res
	return &own, nil
}

// Order is the package-level Order in the Ranker's storage.
func (r *Ranker) Order(g *cdfg.Graph, root cdfg.NodeID, subtree []cdfg.NodeID, maxDepth int) (*Result, error) {
	if len(subtree) == 0 {
		return nil, fmt.Errorf("order: empty subtree")
	}
	if !slices.Contains(subtree, root) {
		return nil, fmt.Errorf("order: subtree does not contain root %d", root)
	}
	if maxDepth <= 0 {
		// Deep refinement rarely separates what 12 hops cannot; the cap
		// bounds ordering cost on large subtrees. Residual ties are
		// reported via Result.Canonical.
		maxDepth = min(12, len(subtree))
	}

	if err := r.levels.Compute(g, root); err != nil {
		return nil, err
	}
	r.c1 = r.c1[:0]
	for _, v := range subtree {
		l := r.levels.Level(v)
		if l < 0 {
			return nil, fmt.Errorf("order: node %s is not in the fan-in cone of root %s",
				g.Node(v).Name, g.Node(root).Name)
		}
		r.c1 = append(r.c1, l)
	}
	return r.rank(g, subtree, r.c1, maxDepth), nil
}

// rank orders nodes by the key vector (c1[i], K(1), φ(1), K(2), φ(2), …),
// greatest first, then by operation kind (descending) and node ID
// (ascending) where the structural keys tie.
//
// Refinement works on runs of equal keys in the sorted order. Nodes of a
// run agree on every key entry so far, so each round computes only the
// next (K, φ) pair of the run's nodes, re-sorts the run by that pair
// alone and splits it where the pair differs. A node whose key is already
// unique is never refined again, which changes nothing — its position is
// decided by the prefix every other key differs from it in — so the
// result equals sorting the fully refined key vectors, while the fan-in
// work shrinks with every round.
func (r *Ranker) rank(g *cdfg.Graph, nodes []cdfg.NodeID, c1 []int, maxDepth int) *Result {
	n := len(nodes)
	r.perm = grow(r.perm, n)
	r.k = grow(r.k, n)
	r.phi = grow(r.phi, n)
	perm, k, phi := r.perm, r.k, r.phi
	// Sort by C1, greatest first, as plain integers: the high half of a
	// key is the inverted level, the low half the position.
	r.byC1 = grow(r.byC1, n)
	for i, l := range c1 {
		r.byC1[i] = uint64(math.MaxUint32-uint32(l))<<32 | uint64(i)
	}
	slices.Sort(r.byC1)
	for i, key := range r.byC1 {
		perm[i] = int(uint32(key))
	}
	r.runs = splitRuns(r.runs[:0], perm, 0, n, func(a, b int) bool { return c1[a] == c1[b] })

	// sameKey and byKey compare the latest refinement of two nodes of
	// one run.
	sameKey := func(a, b int) bool { return k[a] == k[b] && phi[a] == phi[b] }
	byKey := func(a, b int) int {
		if c := cmp.Compare(k[b], k[a]); c != 0 {
			return c
		}
		return cmp.Compare(phi[b], phi[a])
	}
	canonical := false
	depthUsed := 0
	for dx := 1; ; dx++ {
		if len(r.runs) == 0 {
			canonical = true
			break
		}
		if dx > maxDepth {
			break
		}
		depthUsed = dx
		r.next = r.next[:0]
		for _, run := range r.runs {
			for _, p := range perm[run.lo:run.hi] {
				k[p], phi[p] = r.fi.stats(g, nodes[p], dx)
			}
			slices.SortFunc(perm[run.lo:run.hi], byKey)
			r.next = splitRuns(r.next, perm, run.lo, run.hi, sameKey)
		}
		r.runs, r.next = r.next, r.runs
	}
	// Non-structural fallbacks for the runs still tied, reported via
	// Canonical=false.
	for _, run := range r.runs {
		slices.SortFunc(perm[run.lo:run.hi], func(a, b int) int {
			va, vb := nodes[a], nodes[b]
			if oa, ob := g.Node(va).Op, g.Node(vb).Op; oa != ob {
				return int(ob) - int(oa)
			}
			return int(va) - int(vb)
		})
	}

	res := &r.res
	res.Canonical, res.MaxDepth = canonical, depthUsed
	res.Ordered = grow(res.Ordered, n)
	res.byID = grow(res.byID, n)
	for i, p := range perm {
		res.Ordered[i] = nodes[p]
		res.byID[p] = idRank{nodes[p], i}
	}
	// nodes usually arrive in ascending ID order already (domain trees,
	// Computational), and then byID needs no sort.
	if !slices.IsSortedFunc(res.byID, cmpID) {
		slices.SortFunc(res.byID, cmpID)
	}
	return res
}

// span is a run perm[lo:hi] of nodes whose keys tie.
type span struct{ lo, hi int }

// splitRuns appends to runs every maximal run of two or more neighbours
// of perm[lo:hi] that same reports equal.
func splitRuns(runs []span, perm []int, lo, hi int, same func(a, b int) bool) []span {
	for lo < hi {
		end := lo + 1
		for end < hi && same(perm[lo], perm[end]) {
			end++
		}
		if end-lo > 1 {
			runs = append(runs, span{lo, end})
		}
		lo = end
	}
	return runs
}

func cmpID(a, b idRank) int { return int(a.id - b.id) }

// grow returns s resized to n, reallocating only when its capacity is
// short; the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// faninScratch holds the reusable state of the fan-in kernel: a visited
// stamp per graph node (a node is visited in the current search when its
// stamp equals cur) and two frontier buffers. A Ranker reuses one
// scratch across rankings and graphs: the stamps grow with the graph and
// are cleared when cur wraps.
type faninScratch struct {
	stamp          []uint32
	cur            uint32
	frontier, next []cdfg.NodeID
}

// stats returns K_i(x) and φ(n_i, x) for node v of g (criteria C2 and C3)
// from a single breadth-first search over data inputs: K counts the nodes
// within data distance x of v, v excluded; φ sums the operation
// identifiers of the same nodes, v included. It equals
// (g.FaninCount(v, x), g.FaninFunctionalitySum(v, x)) without building a
// map per call.
func (s *faninScratch) stats(g *cdfg.Graph, v cdfg.NodeID, x int) (k, phi int) {
	if len(s.stamp) < g.Len() {
		s.stamp = make([]uint32, g.Len())
		s.cur = 0
	}
	if s.cur++; s.cur == 0 {
		clear(s.stamp)
		s.cur = 1
	}
	s.stamp[v] = s.cur
	phi = int(g.Node(v).Op)
	s.frontier = append(s.frontier[:0], v)
	for d := 1; d <= x && len(s.frontier) > 0; d++ {
		s.next = s.next[:0]
		for _, w := range s.frontier {
			for _, u := range g.DataIn(w) {
				if s.stamp[u] != s.cur {
					s.stamp[u] = s.cur
					k++
					phi += int(g.Node(u).Op)
					s.next = append(s.next, u)
				}
			}
		}
		s.frontier, s.next = s.next, s.frontier
	}
	return k, phi
}
