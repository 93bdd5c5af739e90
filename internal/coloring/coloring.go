// Package coloring implements Orzan's color-propagation SCC algorithm,
// the third classic parallel SCC approach next to FW-BW and OBF, and
// the backbone of the MultiStep/iSpan follow-on work to the paper
// being reproduced. It is included as an extension baseline: together
// with FW-BW (Fleischer), OBF (Barnat) and FW-BW-Trim (McLendon /
// Hong et al.) it completes the parallel-SCC algorithm family.
//
// One round works on all remaining nodes at once:
//
//  1. Forward max-label propagation: every node starts colored with its
//     own id; colors flow along out-edges, each node keeping the
//     maximum color that reaches it, until fixpoint. Afterwards all
//     nodes with color r are exactly the forward-reachable set of the
//     root r restricted to nodes whose own color lost to r.
//  2. For every root r (a node whose final color is its own id), the
//     backward-reachable set of r *within color r* is the SCC of r
//     (FW(r) ∩ BW(r), computed with the colors standing in for FW).
//  3. Identified SCCs are removed; the next round runs on the rest.
//
// Like FW-BW it detects many SCCs per round (one per surviving root),
// but unlike FW-BW-Trim it pays full propagation over the whole
// residual graph each round, which is why the trimming family wins on
// graphs dominated by trivial SCCs.
package coloring

import (
	"sync/atomic"
	"time"

	"repro/graph"
	"repro/internal/parallel"
)

// Removed marks nodes whose SCC has been identified.
const Removed int32 = -1

// Options configures a Run.
type Options struct {
	// Workers is the number of parallel workers; <= 0 selects
	// GOMAXPROCS.
	Workers int
}

// Result carries the decomposition and instrumentation.
type Result struct {
	// Comp maps each node to its SCC representative (the maximum node
	// id in the component — coloring's natural representative).
	Comp []int32
	// NumSCCs is the number of components.
	NumSCCs int64
	// Rounds is the number of propagate-and-collect rounds.
	Rounds int
	// PropagationSteps is the total number of propagation iterations
	// across rounds (the algorithm's depth measure).
	PropagationSteps int
	// Total is the wall time.
	Total time.Duration
}

// Run decomposes g by repeated color propagation.
func Run(g *graph.Graph, opt Options) *Result {
	n := g.NumNodes()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	alive := make([]graph.NodeID, n)
	for i := range alive {
		alive[i] = graph.NodeID(i)
	}
	return RunOn(g, opt, comp, alive)
}

// RunOn decomposes the subgraph induced by the alive nodes, writing
// into comp (entries ≥ 0 are treated as already identified and act as
// removed nodes). It is the composition point for MultiStep-style
// pipelines that run coloring after trimming and giant-SCC removal.
func RunOn(g *graph.Graph, opt Options, comp []int32, alive []graph.NodeID) *Result {
	if opt.Workers <= 0 {
		opt.Workers = parallel.DefaultWorkers()
	}
	start := time.Now()
	n := g.NumNodes()
	res := &Result{Comp: comp}
	if n == 0 || len(alive) == 0 {
		res.Total = time.Since(start)
		return res
	}
	color := make([]int32, n)
	workers := opt.Workers

	for len(alive) > 0 {
		res.Rounds++
		// 1. Forward max-propagation to fixpoint.
		for _, v := range alive {
			color[v] = int32(v)
		}
		changed := make([]bool, workers)
		for {
			res.PropagationSteps++
			for w := range changed {
				changed[w] = false
			}
			parallel.ForDynamicWorker(workers, len(alive), 256, func(w, lo, hi int) {
				ch := false
				for i := lo; i < hi; i++ {
					v := alive[i]
					c := atomic.LoadInt32(&color[v])
					for _, k := range g.Out(v) {
						if res.Comp[k] >= 0 {
							continue // removed
						}
						if atomicMax(&color[k], c) {
							ch = true
						}
					}
				}
				if ch {
					changed[w] = true
				}
			})
			any := false
			for _, c := range changed {
				any = any || c
			}
			if !any {
				break
			}
		}
		// 2. For each root, the backward closure within its color is
		// its SCC. Roots are processed in parallel; their color regions
		// are disjoint, so no two traversals touch the same node. The
		// color test comes first: only a node of this root's color
		// belongs to this worker, so only its Comp entry may be read.
		roots := make([]graph.NodeID, 0, 64)
		for _, v := range alive {
			if color[v] == int32(v) {
				roots = append(roots, v)
			}
		}
		counts := make([]int64, workers)
		parallel.ForDynamicWorker(workers, len(roots), 1, func(w, lo, hi int) {
			var stack []graph.NodeID
			for i := lo; i < hi; i++ {
				r := roots[i]
				rc := int32(r)
				res.Comp[r] = rc
				counts[w]++
				stack = append(stack[:0], r)
				for len(stack) > 0 {
					v := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					for _, k := range g.In(v) {
						if color[k] == rc && res.Comp[k] < 0 {
							res.Comp[k] = rc
							stack = append(stack, k)
						}
					}
				}
			}
		})
		for _, c := range counts {
			res.NumSCCs += c
		}
		// 3. Drop identified nodes.
		next := alive[:0]
		for _, v := range alive {
			if res.Comp[v] < 0 {
				next = append(next, v)
			}
		}
		alive = next
	}
	res.Total = time.Since(start)
	return res
}

// atomicMax raises *p to v if v is larger; reports whether it changed.
func atomicMax(p *int32, v int32) bool {
	for {
		old := atomic.LoadInt32(p)
		if v <= old {
			return false
		}
		if atomic.CompareAndSwapInt32(p, old, v) {
			return true
		}
	}
}
