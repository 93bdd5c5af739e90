package scc

import (
	"fmt"

	"repro/graph"
)

// Condensed is the condensation of a graph: one node per SCC, an edge
// between components iff the original graph has an edge between them.
// The condensation is always a DAG, which makes it the standard
// substrate for cycle-aware processing: topological scheduling of
// mutually recursive groups, reachability closure, dependency
// analysis.
type Condensed struct {
	// DAG is the component-level graph; node c is component c.
	DAG *graph.Graph
	// NodeComp maps every original node to its dense component id.
	NodeComp []int32
	// Sizes[c] is the number of original nodes in component c.
	Sizes []int64
	// Topo lists the component ids in a topological order of the DAG
	// (every edge goes from an earlier to a later position).
	Topo []int32
	// Rank is the inverse of Topo: Rank[c] is c's position in Topo,
	// so every edge c→d has Rank[c] < Rank[d]. Reaches prunes on it.
	Rank []int32
}

// Condense builds the condensation of g from a component labeling (as
// produced by Detect). The labeling is trusted; pass it through
// Validate first if it comes from an untrusted source.
func Condense(g *graph.Graph, comp []int32) (*Condensed, error) {
	if g.NumNodes() != len(comp) {
		return nil, fmt.Errorf("scc: comp length %d != node count %d", len(comp), g.NumNodes())
	}
	dense, k := Renumber(comp)
	sizes := make([]int64, k)
	for _, c := range dense {
		sizes[c]++
	}
	// Deduplicate component edges with a per-source stamp array: for
	// CSR inputs each source's targets arrive grouped, so a stamp per
	// destination component suffices and avoids a map.
	b := graph.NewBuilder(k)
	stamp := make([]int32, k)
	for i := range stamp {
		stamp[i] = -1
	}
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		cv := dense[v]
		for _, w := range g.Out(graph.NodeID(v)) {
			cw := dense[w]
			if cv != cw && stamp[cw] != cv {
				stamp[cw] = cv
				b.AddEdge(cv, cw)
			}
		}
	}
	dag := b.Build()
	topo, rank, ok := TopoOrder(dag)
	if !ok {
		return nil, fmt.Errorf("scc: labeling is not an SCC decomposition (condensation has a cycle)")
	}
	return &Condensed{DAG: dag, NodeComp: dense, Sizes: sizes, Topo: topo, Rank: rank}, nil
}

// TopoOrder computes a Kahn topological order of dag and its inverse:
// topo lists the nodes so every edge points forward, and rank[c] is
// c's position in topo. ok is false when dag has a cycle, in which
// case topo and rank are incomplete.
func TopoOrder(dag *graph.Graph) (topo, rank []int32, ok bool) {
	k := dag.NumNodes()
	indeg := make([]int32, k)
	for c := 0; c < k; c++ {
		for _, d := range dag.Out(graph.NodeID(c)) {
			indeg[d]++
		}
	}
	topo = make([]int32, 0, k)
	rank = make([]int32, k)
	// topo doubles as the FIFO queue: every node enters it exactly
	// once, when its in-degree drops to zero.
	for c := int32(0); c < int32(k); c++ {
		if indeg[c] == 0 {
			topo = append(topo, c)
		}
	}
	for i := 0; i < len(topo); i++ {
		c := topo[i]
		rank[c] = int32(i)
		for _, d := range dag.Out(graph.NodeID(c)) {
			indeg[d]--
			if indeg[d] == 0 {
				topo = append(topo, int32(d))
			}
		}
	}
	return topo, rank, len(topo) == k
}

// Members returns the original nodes of component c, in ascending id
// order.
func (c *Condensed) Members(comp int32) []graph.NodeID {
	out := make([]graph.NodeID, 0, c.Sizes[comp])
	for v, cc := range c.NodeComp {
		if cc == comp {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

// Reachable reports, for every component, whether it is reachable from
// the given component in the condensation DAG. Each call allocates a
// fresh closure array and walks the whole closure of from; to answer
// a single "does from reach to?" question use Reaches, which walks
// only the part of the closure ranked below the target.
func (c *Condensed) Reachable(from int32) []bool {
	var s ReachScratch
	seen := c.ReachableInto(from, &s)
	// Detach from the throwaway scratch so the caller owns the result,
	// preserving Reachable's historical contract.
	out := make([]bool, len(seen))
	copy(out, seen)
	return out
}

// ReachScratch holds the reusable buffers behind ReachableInto and
// Reaches. The zero value is ready to use; buffers grow to the
// condensation size on first use and are retained across calls. A
// ReachScratch serves one traversal at a time — callers running
// concurrent queries keep one per goroutine (or a pool).
type ReachScratch struct {
	seen  []bool
	stack []graph.NodeID
	// mark and round are Reaches' visit stamps: a component is
	// visited in the current query iff mark[c] == round, so a query
	// bumps round instead of clearing mark, which is cleared only
	// when round wraps.
	mark  []uint32
	round uint32
}

// ReachableInto is Reachable reusing s's buffers: the returned slice
// is owned by s, valid until its next ReachableInto call, and must be
// copied to outlive it. A warm scratch makes the call allocation-free.
// It still clears and fills an O(#components) closure per call; a
// per-request "does u reach v?" query should call Reaches instead.
func (c *Condensed) ReachableInto(from int32, s *ReachScratch) []bool {
	n := c.DAG.NumNodes()
	if cap(s.seen) < n {
		s.seen = make([]bool, n)
	} else {
		s.seen = s.seen[:n]
		clear(s.seen)
	}
	seen := s.seen
	stack := s.stack[:0]
	stack = append(stack, graph.NodeID(from))
	seen[from] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range c.DAG.Out(v) {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	s.stack = stack
	return seen
}

// Reaches reports whether component to is reachable from component
// from in the condensation DAG. Every edge raises the topological
// rank, so no component ranked at or past Rank[to] (other than to
// itself) can lie on a path to it: the search answers false at once
// when Rank[from] > Rank[to], never expands a component ranked at or
// past the target, and stops as soon as it sees to. Its cost is
// bounded by the part of from's closure ranked between from and to,
// not the whole closure ReachableInto walks. Visits are stamped, so a
// warm scratch answers without clearing or allocating anything.
func (c *Condensed) Reaches(from, to int32, s *ReachScratch) bool {
	if from == to {
		return true
	}
	limit := c.Rank[to]
	if c.Rank[from] > limit {
		return false
	}
	if n := c.DAG.NumNodes(); len(s.mark) < n {
		s.mark = make([]uint32, n)
		s.round = 0
	}
	s.round++
	if s.round == 0 {
		clear(s.mark)
		s.round = 1
	}
	mark, r := s.mark, s.round
	mark[from] = r
	stack := append(s.stack[:0], graph.NodeID(from))
	found := false
	for len(stack) > 0 && !found {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range c.DAG.Out(v) {
			if t == graph.NodeID(to) {
				found = true
				break
			}
			if c.Rank[t] < limit && mark[t] != r {
				mark[t] = r
				stack = append(stack, t)
			}
		}
	}
	s.stack = stack
	return found
}
