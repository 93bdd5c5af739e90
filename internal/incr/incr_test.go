package incr

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/graph"
	"repro/internal/chaos"
	"repro/scc"
)

// kosaraju is the from-scratch oracle: an iterative two-pass SCC over
// the CSR graph, independent of both the scc package kernels and the
// maintainer.
func kosaraju(g *graph.Graph) []int32 {
	n := g.NumNodes()
	order := make([]graph.NodeID, 0, n)
	state := make([]int8, n) // 0 unvisited, 1 on stack, 2 done
	type frame struct {
		v graph.NodeID
		i int
	}
	stack := make([]frame, 0, 64)
	for s := 0; s < n; s++ {
		if state[s] != 0 {
			continue
		}
		state[s] = 1
		stack = append(stack, frame{v: graph.NodeID(s)})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			out := g.Out(f.v)
			if f.i < len(out) {
				w := out[f.i]
				f.i++
				if state[w] == 0 {
					state[w] = 1
					stack = append(stack, frame{v: w})
				}
				continue
			}
			state[f.v] = 2
			order = append(order, f.v)
			stack = stack[:len(stack)-1]
		}
	}
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var c int32
	work := make([]graph.NodeID, 0, 64)
	for i := n - 1; i >= 0; i-- {
		r := order[i]
		if comp[r] != -1 {
			continue
		}
		comp[r] = c
		work = append(work[:0], r)
		for len(work) > 0 {
			v := work[len(work)-1]
			work = work[:len(work)-1]
			for _, w := range g.In(v) {
				if comp[w] == -1 {
					comp[w] = c
					work = append(work, w)
				}
			}
		}
		c++
	}
	return comp
}

func oracleDetect(_ context.Context, g *graph.Graph) ([]int32, error) {
	return kosaraju(g), nil
}

func oracleBuild(_ context.Context, g *graph.Graph) (*scc.Condensed, error) {
	return scc.Condense(g, kosaraju(g))
}

// checkAgainstOracle asserts the maintainer's committed condensation
// is exactly what a from-scratch run over the current edge set yields.
func checkAgainstOracle(t *testing.T, m *Maintainer, tag string) {
	t.Helper()
	g := m.Materialize()
	want := kosaraju(g)
	cond := m.Cond()
	if len(cond.NodeComp) != len(want) {
		t.Fatalf("%s: %d labels, oracle %d", tag, len(cond.NodeComp), len(want))
	}
	if !LabelsEquivalent(cond.NodeComp, want) {
		t.Fatalf("%s: labeling diverges from from-scratch oracle", tag)
	}
	// Structural checks: sizes match the labeling, the DAG is exactly
	// the condensation of the current graph, topo is a valid order.
	k := len(cond.Sizes)
	counts := make([]int64, k)
	var total int64
	for _, c := range cond.NodeComp {
		counts[c]++
		total++
	}
	if int(total) != g.NumNodes() {
		t.Fatalf("%s: labels cover %d of %d nodes", tag, total, g.NumNodes())
	}
	for c := 0; c < k; c++ {
		if counts[c] != cond.Sizes[c] {
			t.Fatalf("%s: Sizes[%d]=%d, labeling has %d", tag, c, cond.Sizes[c], counts[c])
		}
		if counts[c] == 0 {
			t.Fatalf("%s: empty component %d survived commit", tag, c)
		}
	}
	wantDag := make(map[[2]int32]bool)
	for v := 0; v < g.NumNodes(); v++ {
		cv := cond.NodeComp[v]
		for _, w := range g.Out(graph.NodeID(v)) {
			if cw := cond.NodeComp[w]; cw != cv {
				wantDag[[2]int32{cv, cw}] = true
			}
		}
	}
	if int(cond.DAG.NumEdges()) != len(wantDag) {
		t.Fatalf("%s: DAG has %d edges, condensation needs %d", tag, cond.DAG.NumEdges(), len(wantDag))
	}
	for e := range wantDag {
		if !cond.DAG.HasEdge(e[0], e[1]) {
			t.Fatalf("%s: DAG missing condensation edge %v", tag, e)
		}
	}
	if len(cond.Topo) != k {
		t.Fatalf("%s: topo covers %d of %d components", tag, len(cond.Topo), k)
	}
	pos := make([]int32, k)
	for i, c := range cond.Topo {
		pos[c] = int32(i)
	}
	for c := 0; c < k; c++ {
		for _, d := range cond.DAG.Out(graph.NodeID(c)) {
			if pos[c] >= pos[d] {
				t.Fatalf("%s: topo violates DAG edge %d->%d", tag, c, d)
			}
		}
	}
	// Rank must be Topo's inverse on every commit path, including the
	// delete-only path that reuses the committed order.
	if len(cond.Rank) != k {
		t.Fatalf("%s: rank covers %d of %d components", tag, len(cond.Rank), k)
	}
	for i, c := range cond.Topo {
		if cond.Rank[c] != int32(i) {
			t.Fatalf("%s: Rank[Topo[%d]] = %d, want %d", tag, i, cond.Rank[c], i)
		}
	}
	for c := 0; c < k; c++ {
		for _, d := range cond.DAG.Out(graph.NodeID(c)) {
			if cond.Rank[c] >= cond.Rank[d] {
				t.Fatalf("%s: rank violates DAG edge %d->%d", tag, c, d)
			}
		}
	}
}

func seedMaintainer(t *testing.T, g *graph.Graph) *Maintainer {
	t.Helper()
	m := New(g, oracleDetect)
	if _, _, err := m.FullBuild(context.Background(), nil, oracleBuild); err != nil {
		t.Fatalf("seed full build: %v", err)
	}
	return m
}

// TestIncrementalDifferential drives random insert/delete batches and
// asserts after every batch that the incrementally maintained labeling
// is permutation-identical to a from-scratch run — the tentpole's
// correctness contract. Several regimes stress different class mixes.
func TestIncrementalDifferential(t *testing.T) {
	regimes := []struct {
		name    string
		n       int
		seedE   int
		delFrac int // percent deletes
		steps   int
	}{
		{"mixed", 60, 150, 33, 120},
		{"insert-heavy", 40, 60, 10, 120},
		{"delete-heavy", 40, 220, 60, 120},
		{"sparse-growth", 25, 20, 25, 100},
	}
	for _, rg := range regimes {
		rg := rg
		t.Run(rg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(rg.name)) * 7919))
			b := graph.NewBuilder(rg.n)
			for i := 0; i < rg.seedE; i++ {
				b.AddEdge(graph.NodeID(rng.Intn(rg.n)), graph.NodeID(rng.Intn(rg.n)))
			}
			m := seedMaintainer(t, b.Build())
			checkAgainstOracle(t, m, "seed")

			var total Stats
			for step := 0; step < rg.steps; step++ {
				n := m.NumNodes()
				batch := make([]graph.Update, 1+rng.Intn(6))
				for i := range batch {
					up := graph.Update{From: graph.NodeID(rng.Intn(n)), To: graph.NodeID(rng.Intn(n))}
					if rng.Intn(100) < rg.delFrac {
						up.Op = graph.EdgeDelete
					} else if rng.Intn(20) == 0 {
						// Occasional growth: reference one node past the end.
						up.From = graph.NodeID(n)
					}
					batch[i] = up
				}
				cond, st, err := m.Apply(context.Background(), batch)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if cond != m.Cond() {
					t.Fatalf("step %d: Apply returned a non-committed condensation", step)
				}
				total.Add(st)
				checkAgainstOracle(t, m, rg.name)
			}
			// Every class must actually fire across the run, or the
			// suite is not exercising the classifier.
			if total.IntraInserts == 0 || total.DagInserts == 0 || total.CycleMerges == 0 {
				t.Fatalf("insert classes under-exercised: %+v", total)
			}
			if rg.delFrac > 0 && total.NoopDeletes+total.DagDeletes+total.Partials == 0 {
				t.Fatalf("delete classes under-exercised: %+v", total)
			}
		})
	}
}

// TestClassifiedCounters pins the classification of crafted updates on
// a known topology: two 3-cycles A{0,1,2} and B{3,4,5} with a bridge
// 2->3.
func twoTriangles(t *testing.T) *Maintainer {
	t.Helper()
	g := graph.FromEdges(6, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0},
		{From: 3, To: 4}, {From: 4, To: 5}, {From: 5, To: 3},
		{From: 2, To: 3},
	})
	return seedMaintainer(t, g)
}

func applyOneUpdate(t *testing.T, m *Maintainer, up graph.Update) Stats {
	t.Helper()
	_, st, err := m.Apply(context.Background(), []graph.Update{up})
	if err != nil {
		t.Fatalf("apply %v: %v", up, err)
	}
	return st
}

func TestClassifiedCounters(t *testing.T) {
	m := twoTriangles(t)

	if st := applyOneUpdate(t, m, graph.Update{Op: graph.EdgeInsert, From: 0, To: 2}); st.IntraInserts != 1 {
		t.Fatalf("intra insert: %+v", st)
	}
	if st := applyOneUpdate(t, m, graph.Update{Op: graph.EdgeInsert, From: 0, To: 2}); st.Noops != 1 {
		t.Fatalf("duplicate insert: %+v", st)
	}
	if st := applyOneUpdate(t, m, graph.Update{Op: graph.EdgeInsert, From: 1, To: 4}); st.DagInserts != 1 {
		t.Fatalf("dag insert: %+v", st)
	}
	// With both 1->4 and 2->3 bridging A->B, deleting one leaves a
	// residual comp edge (no-op); deleting the last one removes the
	// condensation edge.
	if st := applyOneUpdate(t, m, graph.Update{Op: graph.EdgeDelete, From: 1, To: 4}); st.NoopDeletes != 1 {
		t.Fatalf("residual inter delete: %+v", st)
	}
	if st := applyOneUpdate(t, m, graph.Update{Op: graph.EdgeDelete, From: 2, To: 3}); st.DagDeletes != 1 {
		t.Fatalf("dag delete: %+v", st)
	}
	if st := applyOneUpdate(t, m, graph.Update{Op: graph.EdgeInsert, From: 2, To: 3}); st.DagInserts != 1 {
		t.Fatalf("bridge re-insert: %+v", st)
	}
	if st := applyOneUpdate(t, m, graph.Update{Op: graph.EdgeDelete, From: 9, To: 9}); st.Noops != 1 {
		t.Fatalf("absent delete: %+v", st)
	}
	checkAgainstOracle(t, m, "pre-merge")

	// Cycle-creating insert folds A and B into one SCC.
	st := applyOneUpdate(t, m, graph.Update{Op: graph.EdgeInsert, From: 4, To: 1})
	if st.CycleMerges != 1 {
		t.Fatalf("cycle merge: %+v", st)
	}
	cond := m.Cond()
	if cond.NodeComp[0] != cond.NodeComp[5] {
		t.Fatal("merge did not fold the two triangles")
	}
	checkAgainstOracle(t, m, "post-merge")

	// Deleting the merge edge splits the big SCC back apart via a
	// partial recompute; deleting a redundant intra edge is a no-op.
	if st := applyOneUpdate(t, m, graph.Update{Op: graph.EdgeDelete, From: 0, To: 2}); st.NoopDeletes != 1 {
		t.Fatalf("redundant intra delete: %+v", st)
	}
	if st := applyOneUpdate(t, m, graph.Update{Op: graph.EdgeDelete, From: 4, To: 1}); st.Partials != 1 {
		t.Fatalf("splitting delete: %+v", st)
	}
	cond = m.Cond()
	if cond.NodeComp[0] == cond.NodeComp[5] {
		t.Fatal("split did not separate the triangles")
	}
	checkAgainstOracle(t, m, "post-split")
}

// TestRankAcrossCommitPaths walks one batch down each commit path
// that sets Rank — the delete-only path reusing the committed order,
// the DAG-insert path re-deriving it, and the label-change path — and
// exercises the committed-DAG reachability probe both ways: an insert
// whose reverse probe is cut off by rank at once, and one whose probe
// finds the path that closes a cycle.
func TestRankAcrossCommitPaths(t *testing.T) {
	// Chain 0→1→2→3→4 with the shortcut 1→3; node 5 stands apart.
	m := seedMaintainer(t, graph.FromEdges(6, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4},
		{From: 1, To: 3},
	}))

	prev := m.Cond()
	if st := applyOneUpdate(t, m, graph.Update{Op: graph.EdgeDelete, From: 1, To: 3}); st.DagDeletes != 1 {
		t.Fatalf("shortcut delete: %+v", st)
	}
	if cur := m.Cond(); cur == prev || &cur.Rank[0] != &prev.Rank[0] {
		t.Fatal("delete-only commit did not reuse the committed rank")
	}
	checkAgainstOracle(t, m, "delete-only")

	if st := applyOneUpdate(t, m, graph.Update{Op: graph.EdgeInsert, From: 0, To: 4}); st.DagInserts != 1 {
		t.Fatalf("forward insert: %+v", st)
	}
	checkAgainstOracle(t, m, "forward insert")
	if st := applyOneUpdate(t, m, graph.Update{Op: graph.EdgeInsert, From: 5, To: 0}); st.DagInserts != 1 {
		t.Fatalf("insert from the stray node: %+v", st)
	}
	checkAgainstOracle(t, m, "stray insert")

	if st := applyOneUpdate(t, m, graph.Update{Op: graph.EdgeInsert, From: 3, To: 1}); st.CycleMerges != 1 {
		t.Fatalf("cycle-closing insert: %+v", st)
	}
	if cond := m.Cond(); cond.NodeComp[1] != cond.NodeComp[3] || cond.NodeComp[0] == cond.NodeComp[1] {
		t.Fatal("cycle-closing insert did not fold exactly {1,2,3}")
	}
	checkAgainstOracle(t, m, "cycle merge")
}

// TestChaosMidCollapseRollback injects a panic on the first SiteIncr
// hit of a cycle-creating batch — mid-merge, staged labels half
// folded — and requires the committed labeling, the overlay, and
// subsequent applies to be untouched by the failed attempt.
func TestChaosMidCollapseRollback(t *testing.T) {
	m := twoTriangles(t)
	before := m.Cond()
	edges := m.NumEdges()

	inj := chaos.New(chaos.Config{PanicAt: map[chaos.Site]int64{chaos.SiteIncr: 1}})
	m.SetChaos(inj)
	_, _, err := m.Apply(context.Background(), []graph.Update{
		{Op: graph.EdgeInsert, From: 0, To: 0}, // intra no-op rides along
		{Op: graph.EdgeInsert, From: 4, To: 1}, // triggers the collapse
	})
	var pe *scc.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError, got %v", err)
	}
	if m.Cond() != before {
		t.Fatal("failed apply replaced the committed condensation")
	}
	if m.NumEdges() != edges {
		t.Fatalf("failed apply leaked overlay edges: %d != %d", m.NumEdges(), edges)
	}
	checkAgainstOracle(t, m, "after-rollback")

	// The same batch succeeds once chaos is removed.
	m.SetChaos(nil)
	if st := applyOneUpdate(t, m, graph.Update{Op: graph.EdgeInsert, From: 4, To: 1}); st.CycleMerges != 1 {
		t.Fatalf("retry: %+v", st)
	}
	if c := m.Cond(); c.NodeComp[0] != c.NodeComp[5] {
		t.Fatal("retry did not merge")
	}
	checkAgainstOracle(t, m, "after-retry")
}

// TestDetectErrorRollsBack: a failing partial recompute must roll the
// whole batch back.
func TestDetectErrorRollsBack(t *testing.T) {
	boom := errors.New("boom")
	g := graph.FromEdges(6, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0},
		{From: 3, To: 4}, {From: 4, To: 5}, {From: 5, To: 3},
		{From: 2, To: 3},
	})
	m := New(g, func(context.Context, *graph.Graph) ([]int32, error) { return nil, boom })
	if _, _, err := m.FullBuild(context.Background(), nil, oracleBuild); err != nil {
		t.Fatal(err)
	}
	before := m.Cond()
	_, _, err := m.Apply(context.Background(), []graph.Update{
		{Op: graph.EdgeDelete, From: 1, To: 2}, // splits A -> partial -> detect fails
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if m.Cond() != before || !m.ov.HasEdge(1, 2) {
		t.Fatal("failed partial was not rolled back")
	}
	checkAgainstOracle(t, m, "after-detect-error")
}

// TestFullBuildRollback: a failing full build leaves overlay and
// labeling untouched.
func TestFullBuildRollback(t *testing.T) {
	boom := errors.New("boom")
	m := twoTriangles(t)
	before := m.Cond()
	edges := m.NumEdges()
	_, _, err := m.FullBuild(context.Background(), []graph.Update{
		{Op: graph.EdgeInsert, From: 7, To: 0},
	}, func(context.Context, *graph.Graph) (*scc.Condensed, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if m.Cond() != before || m.NumEdges() != edges || m.NumNodes() != 6 {
		t.Fatal("failed full build mutated state")
	}
	// And a successful one through the same path commits.
	g, cond, err := m.FullBuild(context.Background(), []graph.Update{
		{Op: graph.EdgeInsert, From: 7, To: 0},
	}, oracleBuild)
	if err != nil || g.NumNodes() != 8 || cond != m.Cond() {
		t.Fatalf("full build: g=%v cond=%v err=%v", g, cond, err)
	}
	checkAgainstOracle(t, m, "after-full-build")
}

// TestApplyBeforeSeed: Apply without a committed labeling refuses.
func TestApplyBeforeSeed(t *testing.T) {
	m := New(graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}}), oracleDetect)
	if _, _, err := m.Apply(context.Background(), nil); !errors.Is(err, ErrNoLabeling) {
		t.Fatalf("want ErrNoLabeling, got %v", err)
	}
}

// TestIntraFastPathAllocs pins the class-a fast path: a warm batch of
// intra-SCC inserts and no-op deletes must not allocate at all — that
// is what makes it ~free relative to a full rebuild.
func TestIntraFastPathAllocs(t *testing.T) {
	m := twoTriangles(t)
	ctx := context.Background()
	batch := []graph.Update{
		{Op: graph.EdgeInsert, From: 0, To: 2},
		{Op: graph.EdgeDelete, From: 0, To: 2},
		{Op: graph.EdgeDelete, From: 0, To: 2}, // absent: no-op
	}
	if _, _, err := m.Apply(ctx, batch); err != nil { // warm slices
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := m.Apply(ctx, batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("intra fast path allocates %.1f/op, want 0", allocs)
	}
	checkAgainstOracle(t, m, "after-alloc-loop")
}

// TestLabelsEquivalent covers the permutation-identity helper.
func TestLabelsEquivalent(t *testing.T) {
	if !LabelsEquivalent([]int32{0, 0, 1, 2}, []int32{5, 5, 9, 1}) {
		t.Fatal("bijective relabeling rejected")
	}
	if LabelsEquivalent([]int32{0, 0, 1}, []int32{0, 1, 1}) {
		t.Fatal("different partition accepted")
	}
	if LabelsEquivalent([]int32{0, 1}, []int32{0, 0}) {
		t.Fatal("coarser partition accepted")
	}
	if LabelsEquivalent([]int32{0}, []int32{0, 0}) {
		t.Fatal("length mismatch accepted")
	}
}
