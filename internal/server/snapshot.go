// Package server implements the SCC query service: a long-lived HTTP
// handler pinned on one scc.Engine, serving component and reachability
// queries from lock-free epoch snapshots.
//
// The serving invariant is that the query path never waits on the
// detection path. Queries read an immutable Snapshot through one atomic
// pointer load; detection runs on a background rebuild loop that
// publishes a fresh Snapshot only after the whole
// detect → condense → verify chain succeeded. A rebuild that fails —
// kernel panic, stall-watchdog abort, memory-budget rejection,
// cancellation, or sabotage of the condensation itself — publishes
// nothing: the previous epoch keeps serving, the failure is counted,
// and the loop retries. The process never crashes and the query path
// never observes a half-built epoch.
package server

import (
	"sync"
	"time"

	"repro/scc"
)

// Snapshot is one immutable epoch of the served graph: its SCC
// labeling and condensation DAG plus the graph's dimensions, and a
// pool of reachability scratch sized for that DAG. Snapshots are
// published by atomic pointer swap and never mutated afterwards;
// queries against an old epoch stay valid while a reader holds the
// pointer, even after a newer epoch is published. Since incremental
// epochs evolve the labeling without re-materializing a CSR, the
// snapshot carries counts rather than the graph itself — every query
// endpoint works off the condensation.
type Snapshot struct {
	// Epoch is the 1-based publication ordinal.
	Epoch int64
	// Built is when the epoch was published.
	Built time.Time
	// Nodes and Edges are the dimensions of the graph this epoch
	// labels.
	Nodes int
	Edges int64
	// Batches is the ordinal of the last accepted /update batch this
	// epoch reflects (0 before the first): every batch up to it is
	// visible here, none after it.
	Batches int64
	// Cond is the SCC condensation: labeling, component sizes, DAG.
	Cond *scc.Condensed
	// NumSCCs is the component count.
	NumSCCs int64
	// Detect is the wall-clock cost of the SCC detection run.
	Detect time.Duration
	// Algorithm is the detection algorithm that built the epoch.
	Algorithm scc.Algorithm

	// scratch pools ReachScratch values sized for this epoch's DAG, so
	// steady-state reachability queries allocate nothing. Per-snapshot
	// pooling keeps the buffers correctly sized: a new epoch starts a
	// new pool and the old one is garbage once its readers finish.
	scratch sync.Pool
}

// ComponentOf returns the dense component id of node v, or -1 if v is
// out of range.
func (s *Snapshot) ComponentOf(v int64) int32 {
	if v < 0 || v >= int64(s.Nodes) {
		return -1
	}
	return s.Cond.NodeComp[v]
}

// Reachable reports whether dst is reachable from src in the original
// graph, answered on the condensation DAG by the rank-pruned,
// early-exit Condensed.Reaches on pooled scratch: only components
// ranked below dst's are walked.
func (s *Snapshot) Reachable(src, dst int32) bool {
	cs, cd := s.Cond.NodeComp[src], s.Cond.NodeComp[dst]
	if cs == cd {
		return true
	}
	sc, _ := s.scratch.Get().(*scc.ReachScratch)
	if sc == nil {
		sc = new(scc.ReachScratch)
	}
	ok := s.Cond.Reaches(cs, cd, sc)
	s.scratch.Put(sc)
	return ok
}
