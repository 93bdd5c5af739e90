package trim

import (
	"context"
	"math/rand"
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/internal/events"
	"repro/internal/scratch"
)

func TestPeelFigure1b(t *testing.T) {
	// Same chain as TestParTrimFigure1b: the peel must remove all five
	// nodes. The id-ascending chain mostly falls to the cascade round;
	// the zig-zag test below pins genuinely multi-wave peeling.
	g := graph.FromEdges(5, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 3, To: 2}, {From: 2, To: 4}})
	color, comp := freshState(5)
	res, alive := Peel(nil, g, 2, color, comp, nil, nil)
	if res.Removed != 5 {
		t.Fatalf("removed %d, want 5", res.Removed)
	}
	if len(alive) != 0 {
		t.Fatalf("alive = %v, want empty", alive)
	}
	for v := 0; v < 5; v++ {
		if comp[v] != int32(v) || color[v] != Removed {
			t.Fatalf("node %d: comp=%d color=%d", v, comp[v], color[v])
		}
	}
}

// TestPeelZigZagMultiWave peels a path whose ids alternate between the
// two ends of the range, so no single scan direction cascades: the
// cascade round only takes the endpoints, and the rest must peel wave
// by wave through the counter frontier.
func TestPeelZigZagMultiWave(t *testing.T) {
	const n = 40
	id := func(pos int) graph.NodeID {
		if pos%2 == 0 {
			return graph.NodeID(pos / 2)
		}
		return graph.NodeID(n - 1 - pos/2)
	}
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{From: id(i), To: id(i + 1)}
	}
	g := graph.FromEdges(n, edges)
	for _, workers := range []int{1, 2} {
		color, comp := freshState(n)
		res, alive := Peel(nil, g, workers, color, comp, nil, nil)
		if res.Removed != n || len(alive) != 0 {
			t.Fatalf("w=%d: removed=%d alive=%d, want full trim", workers, res.Removed, len(alive))
		}
		if res.Rounds < 5 {
			t.Fatalf("w=%d: rounds = %d, want >= 5 (multi-wave peel)", workers, res.Rounds)
		}
	}
}

func TestPeelPreservesCycle(t *testing.T) {
	g := graph.FromEdges(5, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0}, // triangle
		{From: 2, To: 3}, {From: 3, To: 4}}) // tail
	color, comp := freshState(5)
	res, alive := Peel(nil, g, 4, color, comp, nil, nil)
	if res.Removed != 2 {
		t.Fatalf("removed %d, want 2", res.Removed)
	}
	if len(alive) != 3 {
		t.Fatalf("alive %v, want the triangle", alive)
	}
	for _, v := range alive {
		if v > 2 {
			t.Fatalf("trimmed-node %d survived", v)
		}
		if color[v] != 0 || comp[v] != -1 {
			t.Fatalf("survivor %d mutated: color=%d comp=%d", v, color[v], comp[v])
		}
	}
}

func TestPeelSelfLoopIsTrimmed(t *testing.T) {
	g := graph.FromEdges(1, []graph.Edge{{From: 0, To: 0}})
	color, comp := freshState(1)
	res, alive := Peel(nil, g, 1, color, comp, nil, nil)
	if res.Removed != 1 || len(alive) != 0 {
		t.Fatalf("removed=%d alive=%v", res.Removed, alive)
	}
}

func TestPeelRespectsColors(t *testing.T) {
	// 2-cycle across a color boundary: both sides count zero same-color
	// neighbors and seed the first wave.
	g := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 0}})
	color, comp := freshState(2)
	color[1] = 7
	res, _ := Peel(nil, g, 1, color, comp, nil, nil)
	if res.Removed != 2 {
		t.Fatalf("removed %d, want 2", res.Removed)
	}
}

// TestPeelDAGFullyTrims pins the ordered cascade: the citation DAG's
// ids are a topological order, so one ascending scan trims every node
// and no wave follows — at every worker count, since the cascade is
// never split across workers.
func TestPeelDAGFullyTrims(t *testing.T) {
	g := gen.CitationDAG(3000, 4, 9)
	for _, workers := range []int{1, 2, 4} {
		color, comp := freshState(3000)
		res, alive := Peel(nil, g, workers, color, comp, nil, nil)
		if res.Removed != 3000 || len(alive) != 0 {
			t.Fatalf("w=%d: removed=%d alive=%d, want full trim", workers, res.Removed, len(alive))
		}
		if res.Rounds != 1 {
			t.Fatalf("w=%d: rounds = %d, want 1 (one ordered cascade)", workers, res.Rounds)
		}
	}
}

// waveSizes records the node count of every TrimRound event.
type waveSizes []int64

func (w *waveSizes) Observe(ev events.Event) {
	if ev.Type == events.TrimRound {
		*w = append(*w, ev.Nodes)
	}
}

// TestPeelShuffledDAGParallelDrain covers the multi-worker drain. The
// cascade is one ordered scan, so only a badly ordered input leaves
// waves large enough for the gang-dispatched drain. A citation DAG
// under a random relabeling is one (reversing the ids would not do:
// any topological order, forward or backward, cascades completely):
// most of it peels through counter waves. The result must still match
// the round-based kernel exactly.
func TestPeelShuffledDAGParallelDrain(t *testing.T) {
	const n = 8000
	perm := make([]graph.NodeID, n)
	for i, p := range rand.New(rand.NewSource(3)).Perm(n) {
		perm[i] = graph.NodeID(p)
	}
	g := graph.Relabel(gen.CitationDAG(n, 8, 9), perm)
	pcolor, pcomp := freshState(n)
	Par(nil, g, 2, pcolor, pcomp, nil, nil)
	for _, workers := range []int{2, 4} {
		var waves waveSizes
		color, comp := freshState(n)
		res, alive := Peel(events.NewSink(context.Background(), &waves), g, workers, color, comp, nil, nil)
		if res.Removed != n || len(alive) != 0 {
			t.Fatalf("w=%d: removed=%d alive=%d, want full trim", workers, res.Removed, len(alive))
		}
		if res.Rounds <= 1 {
			t.Fatalf("w=%d: rounds = %d, want a multi-wave peel", workers, res.Rounds)
		}
		gang := 0
		for _, nodes := range waves[1:] {
			if nodes > 64 {
				gang++
			}
		}
		if gang == 0 {
			t.Fatalf("w=%d: no wave over 64 nodes; the parallel drain never ran", workers)
		}
		for v := 0; v < n; v++ {
			if color[v] != pcolor[v] || comp[v] != pcomp[v] {
				t.Fatalf("w=%d: node %d color/comp (%d,%d), Par got (%d,%d)",
					workers, v, color[v], comp[v], pcolor[v], pcomp[v])
			}
		}
	}
}

// TestPeelMatchesPar differentially pins the peel against the
// round-based kernel on random graphs: identical survivor sets and
// identical color/comp arrays (both kernels assign comp[v] = v to
// every node they remove), across worker counts and with restricted
// candidate lists. Every other trial is dense — out-degree 8, mostly
// acyclic edges plus a few random back edges — so the cascade's early
// exit stops mid-list both on survivors and on nodes it removes.
func TestPeelMatchesPar(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		n := 20 + rng.Intn(150)
		b := graph.NewBuilder(n)
		if trial%2 == 1 {
			for v := 1; v < n; v++ {
				for j := 0; j < 8; j++ {
					b.AddEdge(graph.NodeID(v), graph.NodeID(rng.Intn(v)))
				}
			}
			for i := 0; i < n/8; i++ {
				b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
			}
		} else {
			for i := 0; i < n*2; i++ {
				b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
			}
		}
		g := b.Build()
		var candidates []graph.NodeID
		if trial%3 == 0 {
			// A random strict subset: the peel must not touch (or be
			// confused by) non-candidate neighbors.
			for v := 0; v < n; v++ {
				if rng.Intn(4) > 0 {
					candidates = append(candidates, graph.NodeID(v))
				}
			}
		}
		pcolor, pcomp := freshState(n)
		pres, palive := Par(nil, g, 4, pcolor, pcomp, candidates, nil)
		for _, workers := range []int{1, 2, 4} {
			color, comp := freshState(n)
			res, alive := Peel(nil, g, workers, color, comp, candidates, nil)
			if res.Removed != pres.Removed || res.SCCs != pres.SCCs {
				t.Fatalf("trial %d w=%d: res=%+v, Par got %+v", trial, workers, res, pres)
			}
			if len(alive) != len(palive) {
				t.Fatalf("trial %d w=%d: %d survivors, Par got %d", trial, workers, len(alive), len(palive))
			}
			survives := map[graph.NodeID]bool{}
			for _, v := range palive {
				survives[v] = true
			}
			for _, v := range alive {
				if !survives[v] {
					t.Fatalf("trial %d w=%d: node %d survived only under Peel", trial, workers, v)
				}
			}
			for v := 0; v < n; v++ {
				if color[v] != pcolor[v] || comp[v] != pcomp[v] {
					t.Fatalf("trial %d w=%d: node %d color/comp (%d,%d), Par got (%d,%d)",
						trial, workers, v, color[v], comp[v], pcolor[v], pcomp[v])
				}
			}
		}
	}
}

// TestPeelArenaReuse runs the peel repeatedly through one arena over
// different graphs and candidate subsets, checking the marks-clearing
// contract: stale marks from a previous invocation must never leak a
// non-candidate into the next one.
func TestPeelArenaReuse(t *testing.T) {
	ar := scratch.New(2, nil)
	defer ar.Close()
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(120)
		b := graph.NewBuilder(n)
		for i := 0; i < n*2; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g := b.Build()
		var candidates []graph.NodeID
		for v := 0; v < n; v++ {
			if rng.Intn(3) > 0 {
				candidates = append(candidates, graph.NodeID(v))
			}
		}
		pcolor, pcomp := freshState(n)
		Par(nil, g, 2, pcolor, pcomp, candidates, nil)
		color, comp := freshState(n)
		_, alive := Peel(nil, g, 2, color, comp, candidates, ar)
		for v := 0; v < n; v++ {
			if color[v] != pcolor[v] || comp[v] != pcomp[v] {
				t.Fatalf("trial %d: node %d diverges from Par after arena reuse", trial, v)
			}
		}
		ar.PutNodes(alive)
	}
}
