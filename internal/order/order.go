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
	"fmt"
	"slices"

	"localwm/internal/cdfg"
)

// Result is the outcome of ordering a node set.
type Result struct {
	// Ordered lists the nodes from greatest to least under the paper's ">"
	// relation. Identifier i names Ordered[i].
	Ordered []cdfg.NodeID
	// Rank maps each node to its identifier (index in Ordered).
	Rank map[cdfg.NodeID]int
	// Canonical reports whether C1–C3 alone separated every pair. When
	// false, at least one tie was broken non-structurally, and a detector
	// on a renumbered copy of the design may disagree on those positions.
	Canonical bool
	// MaxDepth is the largest D_x that was consulted.
	MaxDepth int
}

// Order ranks the given subtree nodes of g with respect to root. The
// subtree must contain root. maxDepth bounds the D_x search; a value of 0
// means "up to the number of subtree nodes", which always suffices because
// fan-in trees stop growing beyond that distance.
func Order(g *cdfg.Graph, root cdfg.NodeID, subtree []cdfg.NodeID, maxDepth int) (*Result, error) {
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

	levels, err := g.Levels(root)
	if err != nil {
		return nil, err
	}
	c1 := make([]int, len(subtree))
	for i, v := range subtree {
		if levels[v] < 0 {
			return nil, fmt.Errorf("order: node %s is not in the fan-in cone of root %s",
				g.Node(v).Name, g.Node(root).Name)
		}
		c1[i] = levels[v]
	}
	return rank(g, subtree, c1, maxDepth), nil
}

// rank orders nodes by the key vector (c1[i], K(1), φ(1), K(2), φ(2), …),
// greatest first, then by operation kind (descending) and node ID
// (ascending) where the structural keys tie.
//
// Refinement works on runs of equal keys in the sorted order: each round
// extends the keys of tied nodes only and re-sorts each run in place. A
// node whose key is already unique is never refined again, which changes
// nothing — its position is decided by the prefix every other key differs
// from it in — so the result equals sorting the fully refined key vectors,
// while the fan-in work shrinks with every round.
func rank(g *cdfg.Graph, nodes []cdfg.NodeID, c1 []int, maxDepth int) *Result {
	n := len(nodes)
	// keys[i] is the comparison vector of nodes[i]; room for one round of
	// refinement is reserved up front.
	buf := make([]int, 3*n)
	keys := make([][]int, n)
	perm := make([]int, n)
	for i := range nodes {
		keys[i] = append(buf[3*i:3*i:3*i+3], c1[i])
		perm[i] = i
	}
	desc := func(a, b int) int { return compareKeys(keys[b], keys[a]) }
	slices.SortFunc(perm, desc)

	var fi faninScratch
	canonical := false
	depthUsed := 0
	for dx := 1; ; dx++ {
		tied := false
		forEachRun(perm, keys, func(run []int) {
			tied = true
			if dx > maxDepth {
				return
			}
			for _, p := range run {
				k, phi := fi.stats(g, nodes[p], dx)
				keys[p] = append(keys[p], k, phi)
			}
			slices.SortFunc(run, desc)
		})
		if !tied {
			canonical = true
			break
		}
		if dx > maxDepth {
			break
		}
		depthUsed = dx
	}
	if !canonical {
		// Non-structural fallbacks, reported via Canonical=false.
		forEachRun(perm, keys, func(run []int) {
			slices.SortFunc(run, func(a, b int) int {
				va, vb := nodes[a], nodes[b]
				if oa, ob := g.Node(va).Op, g.Node(vb).Op; oa != ob {
					return int(ob) - int(oa)
				}
				return int(va) - int(vb)
			})
		})
	}

	res := &Result{
		Ordered:   make([]cdfg.NodeID, n),
		Rank:      make(map[cdfg.NodeID]int, n),
		Canonical: canonical,
		MaxDepth:  depthUsed,
	}
	for i, p := range perm {
		res.Ordered[i] = nodes[p]
		res.Rank[nodes[p]] = i
	}
	return res
}

// forEachRun calls fn on every maximal run of two or more neighbours of
// the sorted perm whose keys compare equal.
func forEachRun(perm []int, keys [][]int, fn func(run []int)) {
	for lo := 0; lo < len(perm); {
		hi := lo + 1
		for hi < len(perm) && compareKeys(keys[perm[lo]], keys[perm[hi]]) == 0 {
			hi++
		}
		if hi-lo > 1 {
			fn(perm[lo:hi])
		}
		lo = hi
	}
}

// faninScratch holds the reusable state of the fan-in kernel: a visited
// stamp per graph node (a node is visited in the current search when its
// stamp equals cur) and two frontier buffers. One scratch serves one
// ranking, at most len(nodes)·maxDepth searches, so cur cannot wrap.
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
	if s.stamp == nil {
		s.stamp = make([]uint32, g.Len())
	}
	s.cur++
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

func compareKeys(a, b []int) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		switch {
		case a[i] > b[i]:
			return 1
		case a[i] < b[i]:
			return -1
		}
	}
	return 0
}
