package cdfg

import (
	"strings"
	"sync"
	"testing"
)

func TestAccessors(t *testing.T) {
	g := diamond(t)
	a, b := g.MustNode("a"), g.MustNode("b")
	if !contains(g.DataOut(a), b) {
		t.Fatal("DataOut misses consumer")
	}
	c := g.MustNode("c")
	g.MustAddEdge(b, c, ControlEdge)
	if !contains(g.ControlOut(b), c) {
		t.Fatal("ControlOut misses sink")
	}
	if got := EdgeKind(DataEdge).String(); got != "data" {
		t.Fatalf("kind string %q", got)
	}
	if got := EdgeKind(99).String(); !strings.Contains(got, "99") {
		t.Fatalf("unknown kind string %q", got)
	}
	g.SetOp(a, OpSub)
	if g.Node(a).Op != OpSub {
		t.Fatal("SetOp did not stick")
	}
}

func TestMustAddEdgePanics(t *testing.T) {
	g := diamond(t)
	a := g.MustNode("a")
	defer func() {
		if recover() == nil {
			t.Fatal("MustAddEdge on self-loop did not panic")
		}
	}()
	g.MustAddEdge(a, a, DataEdge)
}

func TestOpArityTable(t *testing.T) {
	for _, op := range AllOps() {
		min, max := opArity(op)
		if min < 0 {
			t.Fatalf("%v: negative min arity", op)
		}
		if max >= 0 && max < min {
			t.Fatalf("%v: max %d below min %d", op, max, min)
		}
	}
}

// NodeByName resolves through the name index: the first node added under
// a name wins, a node added after a lookup is found by the next one, a
// clone resolves its own names, and nodes added to the clone stay out of
// the original's.
func TestNodeByNameIndex(t *testing.T) {
	g := New(0)
	a := g.AddNode("a", OpInput)
	g.AddNode("b", OpAdd)
	g.AddNode("a", OpMul) // duplicate name: Validate rejects it, lookups keep the first
	if n, ok := g.NodeByName("a"); !ok || n.ID != a || n.Op != OpInput {
		t.Fatalf("NodeByName(a) = %+v, %v; want the first node", n, ok)
	}
	if _, ok := g.NodeByName("nosuch"); ok {
		t.Fatal("NodeByName found a missing name")
	}
	late := g.AddNode("late", OpSub)
	if n, ok := g.NodeByName("late"); !ok || n.ID != late {
		t.Fatalf("NodeByName(late) = %+v, %v after AddNode", n, ok)
	}
	c := g.Clone()
	d := c.AddNode("d", OpSub)
	if c.MustNode("b") != 1 || c.MustNode("a") != a || c.MustNode("d") != d {
		t.Fatal("clone resolves names wrongly")
	}
	if _, ok := g.NodeByName("d"); ok {
		t.Fatal("a node added to the clone is visible in the original")
	}
}

// Concurrent first lookups on a shared graph each may build the index;
// all must answer correctly (run under -race in tier 2).
func TestNodeByNameConcurrentFirstUse(t *testing.T) {
	g := New(0)
	for i := 0; i < 200; i++ {
		g.AddNode("n"+itoa(i), OpAdd)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if n, ok := g.NodeByName("n" + itoa(i)); !ok || int(n.ID) != i {
					t.Errorf("NodeByName(n%d) = %+v, %v", i, n, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
}
