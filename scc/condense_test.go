package scc

import (
	"math"
	"math/rand"
	"testing"

	"repro/gen"
	"repro/graph"
)

func TestCondenseSmall(t *testing.T) {
	// A: {0,1} cycle → B: {2} → C: {3,4} cycle; extra parallel edges.
	g := graph.FromEdges(5, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 0},
		{From: 1, To: 2}, {From: 0, To: 2},
		{From: 2, To: 3}, {From: 3, To: 4}, {From: 4, To: 3}})
	res, err := Detect(g, Options{Algorithm: Tarjan})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Condense(g, res.Comp)
	if err != nil {
		t.Fatal(err)
	}
	if c.DAG.NumNodes() != 3 {
		t.Fatalf("condensation nodes = %d", c.DAG.NumNodes())
	}
	if c.DAG.NumEdges() != 2 {
		t.Fatalf("condensation edges = %d (parallel edges not deduped?)", c.DAG.NumEdges())
	}
	// Sizes: 2, 1, 2 in some order; total 5.
	var total int64
	for _, s := range c.Sizes {
		total += s
	}
	if total != 5 {
		t.Fatalf("sizes %v", c.Sizes)
	}
	// Topological order respects edges.
	pos := make(map[int32]int)
	for i, comp := range c.Topo {
		pos[comp] = i
	}
	for v := 0; v < c.DAG.NumNodes(); v++ {
		for _, w := range c.DAG.Out(graph.NodeID(v)) {
			if pos[int32(v)] >= pos[int32(w)] {
				t.Fatalf("topo order violates edge %d→%d", v, w)
			}
		}
	}
}

func TestCondenseRejectsBadLabeling(t *testing.T) {
	g := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 0}})
	// Splitting a 2-cycle creates a cyclic condensation.
	if _, err := Condense(g, []int32{0, 1}); err == nil {
		t.Fatal("cyclic condensation accepted")
	}
	if _, err := Condense(g, []int32{0}); err == nil {
		t.Fatal("wrong-length labeling accepted")
	}
}

func TestCondenseMembersAndReachable(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 0}, {From: 1, To: 2}, {From: 3, To: 0}})
	res, _ := Detect(g, Options{Algorithm: Tarjan})
	c, err := Condense(g, res.Comp)
	if err != nil {
		t.Fatal(err)
	}
	pair := c.NodeComp[0]
	members := c.Members(pair)
	if len(members) != 2 || members[0] != 0 || members[1] != 1 {
		t.Fatalf("members of {0,1} = %v", members)
	}
	// From node 3's component everything is reachable.
	reach := c.Reachable(c.NodeComp[3])
	for comp, ok := range reach {
		if !ok {
			t.Fatalf("component %d not reachable from 3's component", comp)
		}
	}
	// From node 2's component only itself.
	reach2 := c.Reachable(c.NodeComp[2])
	count := 0
	for _, ok := range reach2 {
		if ok {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d components reachable from sink", count)
	}
}

func TestCondenseRandomAgainstReachability(t *testing.T) {
	// Property: u's component reaches v's component in the DAG iff u
	// reaches v in the original graph (checked on small graphs).
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(40)
		b := graph.NewBuilder(n)
		for i := 0; i < n*2; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g := b.Build()
		res, _ := Detect(g, Options{Algorithm: Tarjan})
		c, err := Condense(g, res.Comp)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < n; u++ {
			reach := nodeReach(g, graph.NodeID(u))
			creach := c.Reachable(c.NodeComp[u])
			for v := 0; v < n; v++ {
				if reach[v] != creach[c.NodeComp[v]] {
					t.Fatalf("trial %d: reach(%d,%d)=%v but condensation says %v",
						trial, u, v, reach[v], creach[c.NodeComp[v]])
				}
			}
		}
	}
}

func nodeReach(g *graph.Graph, src graph.NodeID) []bool {
	seen := make([]bool, g.NumNodes())
	seen[src] = true
	stack := []graph.NodeID{src}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range g.Out(v) {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	return seen
}

func TestCondenseLargeGraph(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(12, 8, 4))
	res, _ := Detect(g, Options{Algorithm: Method2, Seed: 1})
	c, err := Condense(g, res.Comp)
	if err != nil {
		t.Fatal(err)
	}
	if int64(c.DAG.NumNodes()) != res.NumSCCs {
		t.Fatalf("condensation nodes %d != NumSCCs %d", c.DAG.NumNodes(), res.NumSCCs)
	}
	if len(c.Topo) != c.DAG.NumNodes() {
		t.Fatal("topo order incomplete")
	}
}

// TestReachableInto checks the scratch-reusing variant agrees with
// Reachable across reuses (including shrinking to a smaller DAG) and
// that a warm scratch allocates nothing.
func TestReachableInto(t *testing.T) {
	big := gen.RMAT(gen.DefaultRMAT(10, 8, 7))
	res, err := Detect(big, Options{Algorithm: Tarjan})
	if err != nil {
		t.Fatal(err)
	}
	cBig, err := Condense(big, res.Comp)
	if err != nil {
		t.Fatal(err)
	}
	small := graph.FromEdges(4, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 0}, {From: 1, To: 2}, {From: 3, To: 0}})
	resS, _ := Detect(small, Options{Algorithm: Tarjan})
	cSmall, err := Condense(small, resS.Comp)
	if err != nil {
		t.Fatal(err)
	}

	var s ReachScratch
	for _, c := range []*Condensed{cBig, cSmall, cBig} {
		for from := int32(0); from < int32(c.DAG.NumNodes()); from += 7 {
			got := c.ReachableInto(from, &s)
			want := c.Reachable(from)
			if len(got) != len(want) {
				t.Fatalf("length %d != %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("from %d: component %d: got %v want %v", from, i, got[i], want[i])
				}
			}
		}
	}

	// Steady state: a warm scratch must not allocate.
	warm := &ReachScratch{}
	c := cBig
	c.ReachableInto(0, warm)
	allocs := testing.AllocsPerRun(50, func() {
		c.ReachableInto(0, warm)
	})
	if allocs != 0 {
		t.Fatalf("warm ReachableInto allocates %.0f/op, want 0", allocs)
	}
}

// reachesMatchesClosure checks Reaches against the full closure of
// ReachableInto for every ordered pair of components of c.
func reachesMatchesClosure(t *testing.T, name string, c *Condensed, s *ReachScratch) {
	t.Helper()
	k := int32(c.DAG.NumNodes())
	var full ReachScratch
	for from := int32(0); from < k; from++ {
		closure := c.ReachableInto(from, &full)
		for to := int32(0); to < k; to++ {
			if got := c.Reaches(from, to, s); got != closure[to] {
				t.Fatalf("%s: Reaches(%d, %d) = %v, closure says %v", name, from, to, got, closure[to])
			}
		}
	}
}

func condenseTarjan(t *testing.T, g *graph.Graph) *Condensed {
	t.Helper()
	res, err := Detect(g, Options{Algorithm: Tarjan})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Condense(g, res.Comp)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestReachesDifferential pins the rank-pruned, early-exit search to
// the full-closure answer on every pair: random graphs (cyclic, so
// condensations of mixed SCC sizes), long chains (the worst case for
// pruning, where every query is one deep path), and a small patents
// analog (an acyclic citation graph, where the DAG is the graph
// itself). One scratch serves every graph, so shrinking and regrowing
// the stamp array is covered too.
func TestReachesDifferential(t *testing.T) {
	var s ReachScratch
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(120)
		b := graph.NewBuilder(n)
		for i := 0; i < n*(1+trial%3); i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		reachesMatchesClosure(t, "random", condenseTarjan(t, b.Build()), &s)
	}
	for _, n := range []int{1, 2, 300} {
		fwd := graph.NewBuilder(n)
		back := graph.NewBuilder(n)
		for v := 0; v+1 < n; v++ {
			fwd.AddEdge(graph.NodeID(v), graph.NodeID(v+1))
			back.AddEdge(graph.NodeID(v+1), graph.NodeID(v))
		}
		reachesMatchesClosure(t, "chain", condenseTarjan(t, fwd.Build()), &s)
		reachesMatchesClosure(t, "reverse chain", condenseTarjan(t, back.Build()), &s)
	}
	reachesMatchesClosure(t, "patents analog", condenseTarjan(t, gen.CitationDAG(400, 5, 108)), &s)
}

// TestReachesStampWrap makes the visit stamp wrap on every checked
// query: a priming query runs at round 1 and leaves its marks, then
// the round is set to MaxUint32 so the checked query wraps back onto
// round 1. Unless the wrap clears the marks, the priming query's
// visits read as visits of the checked one and cut its search short.
func TestReachesStampWrap(t *testing.T) {
	c := condenseTarjan(t, gen.CitationDAG(200, 4, 3))
	k := int32(c.DAG.NumNodes())
	var s, full ReachScratch
	for from := int32(0); from < k; from++ {
		closure := c.ReachableInto(from, &full)
		for to := int32(0); to < k; to++ {
			s.round = 0
			c.Reaches(from, to, &s)
			s.round = math.MaxUint32
			if got := c.Reaches(from, to, &s); got != closure[to] {
				t.Fatalf("after wrap: Reaches(%d, %d) = %v, closure says %v", from, to, got, closure[to])
			}
		}
	}
}

// TestReachesAllocs pins a warm Reaches at zero allocations.
func TestReachesAllocs(t *testing.T) {
	c := condenseTarjan(t, gen.CitationDAG(2000, 5, 108))
	var s ReachScratch
	from, to := c.Topo[0], c.Topo[len(c.Topo)-1]
	c.Reaches(from, to, &s)
	allocs := testing.AllocsPerRun(50, func() {
		c.Reaches(from, to, &s)
	})
	if allocs != 0 {
		t.Fatalf("warm Reaches allocates %.0f/op, want 0", allocs)
	}
}
