package server

import (
	"testing"

	"repro/gen"
	"repro/scc"
)

// raceEnabled is set by race_test.go: under the race detector
// sync.Pool drops a share of Puts on purpose, so pooled-scratch
// allocation pins only hold without it.
var raceEnabled bool

func testSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	g := gen.RMAT(gen.DefaultRMAT(8, 4, 5))
	res, err := scc.Detect(g, scc.Options{Algorithm: scc.Tarjan})
	if err != nil {
		t.Fatal(err)
	}
	cond, err := scc.Condense(g, res.Comp)
	if err != nil {
		t.Fatal(err)
	}
	return &Snapshot{Nodes: g.NumNodes(), Edges: g.NumEdges(), Cond: cond}
}

// TestSnapshotReachableMatchesClosure checks the pruned per-query
// search the /reachable endpoint uses against the full closure, for
// every node pair of a graph with both large and trivial SCCs.
func TestSnapshotReachableMatchesClosure(t *testing.T) {
	sn := testSnapshot(t)
	var full scc.ReachScratch
	for u := 0; u < sn.Nodes; u++ {
		closure := sn.Cond.ReachableInto(sn.Cond.NodeComp[u], &full)
		for v := 0; v < sn.Nodes; v++ {
			if got, want := sn.Reachable(int32(u), int32(v)), closure[sn.Cond.NodeComp[v]]; got != want {
				t.Fatalf("Reachable(%d, %d) = %v, closure says %v", u, v, got, want)
			}
		}
	}
}

// TestSnapshotReachableAllocs pins a steady-state reachability query
// at zero allocations: the pooled scratch is reused, not regrown.
func TestSnapshotReachableAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	sn := testSnapshot(t)
	topo := sn.Cond.Topo
	src, dst := int32(-1), int32(-1)
	for v, c := range sn.Cond.NodeComp {
		if c == topo[0] {
			src = int32(v)
		}
		if c == topo[len(topo)-1] {
			dst = int32(v)
		}
	}
	sn.Reachable(src, dst)
	allocs := testing.AllocsPerRun(100, func() {
		sn.Reachable(src, dst)
	})
	if allocs != 0 {
		t.Fatalf("warm Snapshot.Reachable allocates %.0f/op, want 0", allocs)
	}
}
