// Package incr maintains an SCC labeling and its condensation across a
// stream of edge updates without rerunning full detection per batch.
//
// The maintainer owns the server's current labeling (a *scc.Condensed)
// plus a graph.Overlay of deltas over the last materialized CSR base.
// Each update in a batch is classified against the current labeling:
//
//   - intra-SCC insert: both endpoints already share a component — the
//     labeling and the condensation are provably unchanged. Label
//     no-op, DAG untouched.
//   - inter-SCC insert with no reverse reachability in the
//     condensation (checked via Condensed.Reaches on a pooled
//     scratch): no cycle can form, so the update is a condensation
//     edge add and nothing else.
//   - cycle-creating insert: the condensation components on paths from
//     the target's component to the source's component collapse into
//     one. The collapse runs on staged state (union-find over
//     component ids plus copy-on-write adjacency), so a failure
//     mid-collapse discards the stage rather than corrupting the
//     committed labeling.
//   - delete with endpoints in different components: if another edge
//     between the same component pair survives, the condensation is
//     unchanged (no-op); otherwise the single condensation edge is
//     removed. Neither case can change the labeling.
//   - delete inside a component: a bounded local search (restricted to
//     the component, so cost scales with the SCC, not the graph)
//     checks whether the source still reaches the target. If yes the
//     component is intact (no-op); if not the component has split and
//     only the affected region is recomputed — full detection on the
//     induced subgraph of that component's members, stitched back into
//     the staged condensation.
//
// Commit publishes a fresh *scc.Condensed built from the staged state;
// on any error or panic the overlay is rolled back update-by-update
// and the committed labeling is untouched (publish-or-discard, the
// same contract the serving layer's full rebuilds have).
package incr

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"

	"repro/graph"
	"repro/internal/chaos"
	"repro/scc"
)

// DetectFunc runs full SCC detection on g and returns a per-node
// labeling the caller owns (implementations must copy engine-owned
// results out). The maintainer calls it only for partial recomputes,
// on the induced subgraph of one component.
type DetectFunc func(ctx context.Context, g *graph.Graph) ([]int32, error)

// BuildFunc runs full detection plus condensation on g. FullBuild
// threads the serving layer's existing rebuild pipeline through it so
// chaos injection and engine repair stay where they were.
type BuildFunc func(ctx context.Context, g *graph.Graph) (*scc.Condensed, error)

// Stats counts what one Apply classified. Fields mirror the serving
// layer's incr_* counters.
type Stats struct {
	// IntraInserts are inserts inside an existing SCC (class a).
	IntraInserts int64
	// DagInserts are inter-SCC inserts that only added a condensation
	// edge (class b).
	DagInserts int64
	// CycleMerges are inserts that collapsed a condensation path
	// (class c).
	CycleMerges int64
	// NoopDeletes are deletes that left labeling and condensation
	// intact (residual comp edge, or the component stayed connected).
	NoopDeletes int64
	// DagDeletes are deletes that only removed a condensation edge.
	DagDeletes int64
	// Partials are updates that forced a partial recompute of one
	// component's region.
	Partials int64
	// Noops are updates that did not change the edge set (duplicate
	// insert, absent delete).
	Noops int64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.IntraInserts += o.IntraInserts
	s.DagInserts += o.DagInserts
	s.CycleMerges += o.CycleMerges
	s.NoopDeletes += o.NoopDeletes
	s.DagDeletes += o.DagDeletes
	s.Partials += o.Partials
	s.Noops += o.Noops
}

// ErrNoLabeling is returned by Apply before the first successful
// FullBuild seeded a committed labeling.
var ErrNoLabeling = errors.New("incr: no committed labeling (run a full build first)")

// Maintainer owns one labeling + condensation and evolves it under
// updates. Not safe for concurrent use; its single owner is the epoch
// production loop.
type Maintainer struct {
	detect DetectFunc
	chaos  *chaos.Injector

	ov   *graph.Overlay
	cond *scc.Condensed

	// Committed-members index: mOrder holds node ids grouped by
	// component, mStart[c]..mStart[c+1] frames component c. Built
	// lazily, invalidated only by label-changing commits.
	mOrder []graph.NodeID
	mStart []int64

	reach scc.ReachScratch
	st    staged
}

// staged holds the copy-on-write view of the condensation built up
// while a batch is being applied, plus reusable scratch. Component ids
// < k are the committed ids; ids ≥ k are staged creations (new-node
// singletons, partial-recompute results).
type staged struct {
	active bool
	k      int32

	uf   []int32
	dead []bool
	size []int64
	// out/in are copy-on-write adjacency: nil falls back to the
	// committed DAG for ids < k (empty for staged ids). Entries are
	// raw component ids — map through find and skip dead/self when
	// reading; duplicates are tolerated (commit canonicalizes).
	// outTouched/inTouched list the ids whose row was materialized,
	// so a label-preserving commit patches those rows only.
	out        [][]int32
	in         [][]int32
	outTouched []int32
	inTouched  []int32
	// dagAdds records whether any condensation edge was added this
	// batch: a delete-only batch keeps the committed topological
	// order valid (removing edges cannot create a cycle or a new
	// ordering constraint), so commit skips Kahn entirely.
	dagAdds bool

	// overrides maps nodes whose component changed (new nodes,
	// partial-recompute members) to their staged component.
	overrides map[graph.NodeID]int32
	// newMembers lists the member nodes of staged components ≥ k.
	newMembers map[int32][]graph.NodeID
	// groups maps a merged root to the original component ids folded
	// into it; absent means the singleton {root}.
	groups map[int32][]int32

	undo     []graph.Update
	anyMerge bool

	// Component-level BFS scratch (stamp arrays are round-versioned so
	// they never need clearing).
	fstamp, bstamp []int32
	cround         int32
	cstack         []int32
	flist, blist   []int32

	// Node-level scratch for intra-component searches and induced
	// subgraph construction.
	nstamp []int32
	nlocal []int32
	nround int32
	nstack []graph.NodeID

	mbuf []graph.NodeID
	gbuf []int32
	one  [1]int32
}

// New builds a maintainer over base. No labeling is committed yet;
// FullBuild seeds it.
func New(base *graph.Graph, detect DetectFunc) *Maintainer {
	return &Maintainer{detect: detect, ov: graph.NewOverlay(base)}
}

// SetChaos installs (or removes, with nil) the injector whose SiteIncr
// the maintainer hits at each commit, merge union, and partial
// recompute.
func (m *Maintainer) SetChaos(in *chaos.Injector) { m.chaos = in }

// Cond returns the committed condensation (nil before the first
// FullBuild).
func (m *Maintainer) Cond() *scc.Condensed { return m.cond }

// NumNodes returns the current node count (base plus growth).
func (m *Maintainer) NumNodes() int { return m.ov.NumNodes() }

// NumEdges returns the exact current edge count.
func (m *Maintainer) NumEdges() int64 { return m.ov.NumEdges() }

// Materialize compacts the current edge set into a CSR graph (the
// base itself when no delta is staged) — the durable snapshot shape.
func (m *Maintainer) Materialize() *graph.Graph { return m.ov.Materialize() }

// FullBuild applies updates to the overlay, materializes, and runs the
// caller's full detection+condensation pipeline. On success the
// materialized graph becomes the new overlay base and the result the
// committed labeling; on failure the updates are rolled back and the
// previous state is untouched.
func (m *Maintainer) FullBuild(ctx context.Context, updates []graph.Update, build BuildFunc) (*graph.Graph, *scc.Condensed, error) {
	preN := m.ov.NumNodes()
	st := &m.st
	st.undo = st.undo[:0]
	for _, up := range updates {
		m.growNodes(up, false)
		if m.ov.Apply(up) {
			st.undo = append(st.undo, up)
		}
	}
	g := m.ov.Materialize()
	cond, err := build(ctx, g)
	if err != nil {
		m.rollback(preN)
		return nil, nil, err
	}
	m.ov.Reset(g)
	m.cond = cond
	m.invalidateMembers()
	m.resetStaged()
	st.undo = st.undo[:0]
	return g, cond, nil
}

// Apply applies one update batch incrementally and returns the new
// committed condensation (the previous one, unchanged, when the batch
// was pure no-ops/intra-inserts). On error — including a panic out of
// detection or chaos injection — the overlay is rolled back, the
// committed labeling is untouched, and the error is returned (panics
// as *scc.PanicError).
func (m *Maintainer) Apply(ctx context.Context, updates []graph.Update) (cond *scc.Condensed, stats Stats, err error) {
	if m.cond == nil {
		return nil, Stats{}, ErrNoLabeling
	}
	preN := m.ov.NumNodes()
	m.st.undo = m.st.undo[:0]
	defer func() {
		if r := recover(); r != nil {
			m.rollback(preN)
			cond, stats = nil, Stats{}
			err = &scc.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	for _, up := range updates {
		if e := m.applyOne(ctx, up, &stats); e != nil {
			m.rollback(preN)
			return nil, Stats{}, e
		}
	}
	c, e := m.commit()
	if e != nil {
		m.rollback(preN)
		return nil, Stats{}, e
	}
	return c, stats, nil
}

// rollback reverts the overlay to its pre-batch state and discards the
// stage.
func (m *Maintainer) rollback(preN int) {
	st := &m.st
	for i := len(st.undo) - 1; i >= 0; i-- {
		m.ov.Undo(st.undo[i])
	}
	st.undo = st.undo[:0]
	m.ov.ShrinkNodes(preN)
	m.resetStaged()
}

// growNodes creates the implicit nodes an update references beyond the
// current count: every id in the gap becomes an isolated singleton
// component. stage is false for FullBuild, where the rebuild will
// relabel everything anyway.
func (m *Maintainer) growNodes(up graph.Update, stage bool) {
	mx := int(max(up.From, up.To))
	if mx < m.ov.NumNodes() {
		return
	}
	if stage {
		m.ensureStaged()
		st := &m.st
		for id := m.ov.NumNodes(); id <= mx; id++ {
			c := m.newComp(1)
			st.overrides[graph.NodeID(id)] = c
			st.newMembers[c] = append(st.newMembers[c], graph.NodeID(id))
		}
	}
	m.ov.EnsureNodes(mx + 1)
}

// applyOne classifies and applies one update against the current
// staged view.
func (m *Maintainer) applyOne(ctx context.Context, up graph.Update, stats *Stats) error {
	if up.From < 0 || up.To < 0 {
		return fmt.Errorf("incr: negative node id in update %v", up)
	}
	m.growNodes(up, true)
	if !m.ov.Apply(up) {
		stats.Noops++
		return nil
	}
	m.st.undo = append(m.st.undo, up)
	cu, cv := m.compOf(up.From), m.compOf(up.To)
	switch up.Op {
	case graph.EdgeInsert:
		switch {
		case cu == cv:
			// Class a: both endpoints inside one SCC. Nothing moves.
			stats.IntraInserts++
		case !m.reaches(cv, cu):
			// Class b: no path target-comp ⇝ source-comp, so no cycle
			// can close. Condensation gains one edge.
			m.ensureStaged()
			m.addDagEdge(cu, cv)
			stats.DagInserts++
		default:
			// Class c: the new edge closes a cycle through every
			// component on a path cv ⇝ cu. Collapse them.
			m.ensureStaged()
			m.mergeCycle(cu, cv)
			stats.CycleMerges++
		}
	case graph.EdgeDelete:
		if cu != cv {
			if m.residualCompEdge(cu, cv) {
				stats.NoopDeletes++
				return nil
			}
			m.ensureStaged()
			m.removeDagEdge(cu, cv)
			stats.DagDeletes++
			return nil
		}
		if m.stillConnectedWithin(up.From, up.To, cu) {
			// The component survives the deletion: some other path
			// u ⇝ v inside it remains (a path through another
			// component would imply a condensation cycle).
			stats.NoopDeletes++
			return nil
		}
		m.ensureStaged()
		if err := m.partialRecompute(ctx, cu); err != nil {
			return err
		}
		stats.Partials++
	default:
		return fmt.Errorf("incr: unknown update op %d", up.Op)
	}
	return nil
}

// ---- component view ------------------------------------------------

func (st *staged) find(c int32) int32 {
	for st.uf[c] != c {
		st.uf[c] = st.uf[st.uf[c]]
		c = st.uf[c]
	}
	return c
}

// compOf returns the current (staged if active) component root of v.
func (m *Maintainer) compOf(v graph.NodeID) int32 {
	st := &m.st
	if st.active {
		if o, ok := st.overrides[v]; ok {
			return st.find(o)
		}
		return st.find(m.cond.NodeComp[v])
	}
	return m.cond.NodeComp[v]
}

func (m *Maintainer) compSize(c int32) int64 {
	if m.st.active {
		return m.st.size[c]
	}
	return m.cond.Sizes[c]
}

// rawOutDo iterates the raw (uncompressed, possibly duplicated)
// out-entries of component c; callers map through find and skip
// dead/self.
func (m *Maintainer) rawOutDo(c int32, fn func(d int32)) {
	st := &m.st
	if st.active && st.out[c] != nil {
		for _, d := range st.out[c] {
			fn(d)
		}
		return
	}
	if int(c) < len(m.cond.Sizes) {
		for _, d := range m.cond.DAG.Out(graph.NodeID(c)) {
			fn(int32(d))
		}
	}
}

func (m *Maintainer) rawInDo(c int32, fn func(d int32)) {
	st := &m.st
	if st.active && st.in[c] != nil {
		for _, d := range st.in[c] {
			fn(d)
		}
		return
	}
	if int(c) < len(m.cond.Sizes) {
		for _, d := range m.cond.DAG.In(graph.NodeID(c)) {
			fn(int32(d))
		}
	}
}

// materializeOut copies component c's committed out-list into the
// stage so it can be mutated.
func (m *Maintainer) materializeOut(c int32) {
	st := &m.st
	if st.out[c] != nil {
		return
	}
	var l []int32
	if c < st.k {
		dag := m.cond.DAG.Out(graph.NodeID(c))
		l = make([]int32, 0, len(dag)+2)
		for _, d := range dag {
			l = append(l, int32(d))
		}
	} else {
		l = make([]int32, 0, 2)
	}
	st.out[c] = l
	st.outTouched = append(st.outTouched, c)
}

func (m *Maintainer) materializeIn(c int32) {
	st := &m.st
	if st.in[c] != nil {
		return
	}
	var l []int32
	if c < st.k {
		dag := m.cond.DAG.In(graph.NodeID(c))
		l = make([]int32, 0, len(dag)+2)
		for _, d := range dag {
			l = append(l, int32(d))
		}
	} else {
		l = make([]int32, 0, 2)
	}
	st.in[c] = l
	st.inTouched = append(st.inTouched, c)
}

// ---- staging lifecycle ----------------------------------------------

func (m *Maintainer) ensureStaged() {
	st := &m.st
	if st.active {
		return
	}
	st.active = true
	k := len(m.cond.Sizes)
	st.k = int32(k)
	if cap(st.uf) < k {
		st.uf = make([]int32, k)
	} else {
		st.uf = st.uf[:k]
	}
	for i := range st.uf {
		st.uf[i] = int32(i)
	}
	if cap(st.dead) < k {
		st.dead = make([]bool, k)
	} else {
		st.dead = st.dead[:k]
		clear(st.dead)
	}
	if cap(st.size) < k {
		st.size = make([]int64, k)
	} else {
		st.size = st.size[:k]
	}
	copy(st.size, m.cond.Sizes)
	if cap(st.out) < k {
		st.out = make([][]int32, k)
	} else {
		st.out = st.out[:k]
		clear(st.out)
	}
	if cap(st.in) < k {
		st.in = make([][]int32, k)
	} else {
		st.in = st.in[:k]
		clear(st.in)
	}
	if st.overrides == nil {
		st.overrides = make(map[graph.NodeID]int32)
		st.newMembers = make(map[int32][]graph.NodeID)
		st.groups = make(map[int32][]int32)
	}
}

func (m *Maintainer) resetStaged() {
	st := &m.st
	st.active = false
	st.anyMerge = false
	st.dagAdds = false
	st.outTouched = st.outTouched[:0]
	st.inTouched = st.inTouched[:0]
	st.uf = st.uf[:0]
	st.dead = st.dead[:0]
	st.size = st.size[:0]
	st.out = st.out[:0]
	st.in = st.in[:0]
	if st.overrides != nil {
		clear(st.overrides)
		clear(st.newMembers)
		clear(st.groups)
	}
}

func (m *Maintainer) newComp(size int64) int32 {
	st := &m.st
	c := int32(len(st.uf))
	st.uf = append(st.uf, c)
	st.dead = append(st.dead, false)
	st.size = append(st.size, size)
	st.out = append(st.out, nil)
	st.in = append(st.in, nil)
	return c
}

func (st *staged) growComp() {
	n := len(st.uf)
	if len(st.fstamp) < n {
		st.fstamp = append(st.fstamp, make([]int32, n-len(st.fstamp))...)
	}
	if len(st.bstamp) < n {
		st.bstamp = append(st.bstamp, make([]int32, n-len(st.bstamp))...)
	}
}

func (m *Maintainer) growNodeScratch() {
	st := &m.st
	n := m.ov.NumNodes()
	if len(st.nstamp) < n {
		st.nstamp = append(st.nstamp, make([]int32, n-len(st.nstamp))...)
		st.nlocal = append(st.nlocal, make([]int32, n-len(st.nlocal))...)
	}
}

// groupOf lists the original component ids folded into root (the
// singleton when nothing was merged). The returned slice may alias
// scratch; do not retain.
func (m *Maintainer) groupOf(root int32) []int32 {
	st := &m.st
	if st.active {
		if g := st.groups[root]; g != nil {
			return g
		}
	}
	st.one[0] = root
	return st.one[:1]
}

// ---- committed-members index ----------------------------------------

func (m *Maintainer) ensureMembers() {
	if m.mStart != nil {
		return
	}
	k := len(m.cond.Sizes)
	n := len(m.cond.NodeComp)
	m.mStart = make([]int64, k+1)
	for _, c := range m.cond.NodeComp {
		m.mStart[c+1]++
	}
	for i := 0; i < k; i++ {
		m.mStart[i+1] += m.mStart[i]
	}
	m.mOrder = make([]graph.NodeID, n)
	pos := make([]int64, k)
	copy(pos, m.mStart[:k])
	for v, c := range m.cond.NodeComp {
		m.mOrder[pos[c]] = graph.NodeID(v)
		pos[c]++
	}
}

func (m *Maintainer) committedMembers(c int32) []graph.NodeID {
	return m.mOrder[m.mStart[c]:m.mStart[c+1]]
}

func (m *Maintainer) invalidateMembers() {
	m.mOrder, m.mStart = nil, nil
}

// memberDo calls fn for every current member node of the live root
// component. fn must not mutate staged labels.
func (m *Maintainer) memberDo(root int32, fn func(v graph.NodeID)) {
	m.ensureMembers()
	st := &m.st
	if !st.active {
		for _, v := range m.committedMembers(root) {
			fn(v)
		}
		return
	}
	for _, c := range m.groupOf(root) {
		if st.dead[c] {
			continue
		}
		if c < st.k {
			for _, v := range m.committedMembers(c) {
				if m.compOf(v) == root {
					fn(v)
				}
			}
		} else {
			for _, v := range st.newMembers[c] {
				if m.compOf(v) == root {
					fn(v)
				}
			}
		}
	}
}

// ---- classification helpers -----------------------------------------

// reaches reports whether component `to` is reachable from `from` in
// the current condensation. With no stage active this is the committed
// DAG's rank-pruned search on the pooled ReachScratch; with a stage it
// is a BFS over the staged view.
func (m *Maintainer) reaches(from, to int32) bool {
	st := &m.st
	if !st.active {
		return m.cond.Reaches(from, to, &m.reach)
	}
	if from == to {
		return true
	}
	st.growComp()
	st.cround++
	r := st.cround
	stack := st.cstack[:0]
	st.fstamp[from] = r
	stack = append(stack, from)
	found := false
	for len(stack) > 0 && !found {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		m.rawOutDo(c, func(d int32) {
			fd := st.find(d)
			if st.dead[fd] || st.fstamp[fd] == r {
				return
			}
			st.fstamp[fd] = r
			if fd == to {
				found = true
			}
			stack = append(stack, fd)
		})
	}
	st.cstack = stack
	return found
}

func (m *Maintainer) addDagEdge(cu, cv int32) {
	st := &m.st
	m.materializeOut(cu)
	st.out[cu] = append(st.out[cu], cv)
	m.materializeIn(cv)
	st.in[cv] = append(st.in[cv], cu)
	st.dagAdds = true
}

// filterComp drops every raw entry resolving to target.
func filterComp(st *staged, l []int32, target int32) []int32 {
	w := 0
	for _, e := range l {
		if st.find(e) != target {
			l[w] = e
			w++
		}
	}
	return l[:w]
}

func (m *Maintainer) removeDagEdge(cu, cv int32) {
	st := &m.st
	m.materializeOut(cu)
	st.out[cu] = filterComp(st, st.out[cu], cv)
	m.materializeIn(cv)
	st.in[cv] = filterComp(st, st.in[cv], cu)
}

// residualCompEdge reports whether any node-level edge between
// components cu→cv survives (scanning the smaller side's members).
func (m *Maintainer) residualCompEdge(cu, cv int32) bool {
	found := false
	if m.compSize(cu) <= m.compSize(cv) {
		m.memberDo(cu, func(v graph.NodeID) {
			if found {
				return
			}
			m.ov.OutDo(v, func(w graph.NodeID) bool {
				if m.compOf(w) == cv {
					found = true
					return false
				}
				return true
			})
		})
	} else {
		m.memberDo(cv, func(v graph.NodeID) {
			if found {
				return
			}
			m.ov.InDo(v, func(w graph.NodeID) bool {
				if m.compOf(w) == cu {
					found = true
					return false
				}
				return true
			})
		})
	}
	return found
}

// stillConnectedWithin reports whether u still reaches v using only
// nodes of component c — exact for the post-delete split check, since
// a u ⇝ v path leaving the component would imply a condensation
// cycle. Cost is bounded by the component, not the graph.
func (m *Maintainer) stillConnectedWithin(u, v graph.NodeID, c int32) bool {
	if u == v {
		return true
	}
	st := &m.st
	m.growNodeScratch()
	st.nround++
	nr := st.nround
	st.nstamp[u] = nr
	stack := st.nstack[:0]
	stack = append(stack, u)
	found := false
	for len(stack) > 0 && !found {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		m.ov.OutDo(x, func(w graph.NodeID) bool {
			if w == v {
				found = true
				return false
			}
			if st.nstamp[w] == nr || m.compOf(w) != c {
				return true
			}
			st.nstamp[w] = nr
			stack = append(stack, w)
			return true
		})
	}
	st.nstack = stack
	return found
}

// ---- cycle collapse --------------------------------------------------

// mergeCycle collapses every component on a path cv ⇝ cu (the cycle
// the new edge cu→cv closes) into one staged component.
func (m *Maintainer) mergeCycle(cu, cv int32) {
	st := &m.st
	st.growComp()

	// Forward closure from cv over the staged condensation.
	st.cround++
	fr := st.cround
	flist := st.flist[:0]
	stack := st.cstack[:0]
	st.fstamp[cv] = fr
	flist = append(flist, cv)
	stack = append(stack, cv)
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		m.rawOutDo(c, func(d int32) {
			fd := st.find(d)
			if st.dead[fd] || st.fstamp[fd] == fr {
				return
			}
			st.fstamp[fd] = fr
			flist = append(flist, fd)
			stack = append(stack, fd)
		})
	}

	// Backward closure from cu restricted to the forward set: the
	// intersection is exactly the set of components the cycle folds.
	st.cround++
	br := st.cround
	blist := st.blist[:0]
	st.bstamp[cu] = br
	blist = append(blist, cu)
	stack = stack[:0]
	stack = append(stack, cu)
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		m.rawInDo(c, func(d int32) {
			fd := st.find(d)
			if st.dead[fd] || st.fstamp[fd] != fr || st.bstamp[fd] == br {
				return
			}
			st.bstamp[fd] = br
			blist = append(blist, fd)
			stack = append(stack, fd)
		})
	}
	st.cstack, st.flist, st.blist = stack, flist, blist

	rep := blist[0]
	for _, c := range blist[1:] {
		if st.size[c] > st.size[rep] {
			rep = c
		}
	}
	for _, c := range blist {
		if c != rep {
			m.union(rep, c)
		}
	}
	st.anyMerge = true
}

// union folds component c into rep: sizes add, raw adjacency
// concatenates (duplicates and self-entries are skipped at read and
// deduplicated at commit), and the group bookkeeping records the fold
// so member enumeration can find c's nodes under rep.
func (m *Maintainer) union(rep, c int32) {
	// One chaos hit per union puts injected failures mid-collapse,
	// with the staged labeling half-merged.
	m.chaos.Hit(chaos.SiteIncr)
	st := &m.st
	m.materializeOut(rep)
	m.materializeIn(rep)
	m.rawOutDo(c, func(d int32) { st.out[rep] = append(st.out[rep], d) })
	m.rawInDo(c, func(d int32) { st.in[rep] = append(st.in[rep], d) })
	st.uf[c] = rep
	st.size[rep] += st.size[c]
	g := st.groups[rep]
	if g == nil {
		g = append(make([]int32, 0, 4), rep)
	}
	if gc := st.groups[c]; gc != nil {
		g = append(g, gc...)
		delete(st.groups, c)
	} else {
		g = append(g, c)
	}
	st.groups[rep] = g
}

// ---- partial recompute -----------------------------------------------

// partialRecompute rebuilds the labeling of one component's region:
// full detection on the induced subgraph of root's members, new staged
// components per sub-SCC, and recomputed condensation edges at the
// region boundary. Everything outside the region is untouched.
func (m *Maintainer) partialRecompute(ctx context.Context, root int32) error {
	m.chaos.Hit(chaos.SiteIncr)
	st := &m.st

	members := st.mbuf[:0]
	m.memberDo(root, func(v graph.NodeID) { members = append(members, v) })
	st.mbuf = members
	if len(members) == 0 {
		return fmt.Errorf("incr: component %d has no members", root)
	}

	// Induced subgraph under local ids.
	m.growNodeScratch()
	st.nround++
	nr := st.nround
	for i, v := range members {
		st.nstamp[v] = nr
		st.nlocal[v] = int32(i)
	}
	b := graph.NewBuilder(len(members))
	for i, v := range members {
		m.ov.OutDo(v, func(w graph.NodeID) bool {
			if st.nstamp[w] == nr {
				b.AddEdge(graph.NodeID(i), st.nlocal[w])
			}
			return true
		})
	}
	labels, err := m.detect(ctx, b.Build())
	if err != nil {
		return err
	}
	if len(labels) != len(members) {
		return fmt.Errorf("incr: detection returned %d labels for %d nodes", len(labels), len(members))
	}

	// Kill the old region and detach it from its condensation
	// neighbors; boundary edges are rebuilt from the new components
	// below.
	group := append(st.gbuf[:0], m.groupOf(root)...)
	st.gbuf = group
	for _, c := range group {
		st.dead[c] = true
	}
	delete(st.groups, root)
	st.growComp()
	st.cround++
	pr := st.cround
	m.rawInDo(root, func(d int32) {
		fd := st.find(d)
		if st.dead[fd] || st.fstamp[fd] == pr {
			return
		}
		st.fstamp[fd] = pr
		m.materializeOut(fd)
		st.out[fd] = filterComp(st, st.out[fd], root)
	})
	st.cround++
	sr := st.cround
	m.rawOutDo(root, func(d int32) {
		fd := st.find(d)
		if st.dead[fd] || st.fstamp[fd] == sr {
			return
		}
		st.fstamp[fd] = sr
		m.materializeIn(fd)
		st.in[fd] = filterComp(st, st.in[fd], root)
	})

	// One staged component per sub-SCC.
	firstNew := int32(len(st.uf))
	denseOf := make(map[int32]int32, 4)
	for i, v := range members {
		l := labels[i]
		ns, ok := denseOf[l]
		if !ok {
			ns = m.newComp(0)
			denseOf[l] = ns
		}
		st.size[ns]++
		st.overrides[v] = ns
		st.newMembers[ns] = append(st.newMembers[ns], v)
	}

	// Boundary + internal condensation edges. In-region targets are
	// handled by the OutDo pass; the InDo pass only adds edges from
	// outside predecessors.
	for _, v := range members {
		ns := st.overrides[v]
		m.ov.OutDo(v, func(w graph.NodeID) bool {
			cw := m.compOf(w)
			if cw == ns {
				return true
			}
			m.materializeOut(ns)
			st.out[ns] = append(st.out[ns], cw)
			m.materializeIn(cw)
			st.in[cw] = append(st.in[cw], ns)
			return true
		})
		m.ov.InDo(v, func(p graph.NodeID) bool {
			cp := m.compOf(p)
			if cp == ns || cp >= firstNew {
				return true
			}
			m.materializeOut(cp)
			st.out[cp] = append(st.out[cp], ns)
			m.materializeIn(ns)
			st.in[ns] = append(st.in[ns], cp)
			return true
		})
	}
	return nil
}

// ---- commit ----------------------------------------------------------

var errCyclicCommit = errors.New("incr: staged commit produced a cyclic condensation")

// commit folds the stage into a fresh committed *scc.Condensed. When
// no stage is active the previous condensation is returned unchanged —
// the zero-work path intra-SCC-heavy batches take. When the stage only
// touched condensation edges (class b inserts, edge deletes) the
// labeling slices are shared with the previous condensation and only
// the DAG is rebuilt.
func (m *Maintainer) commit() (*scc.Condensed, error) {
	m.chaos.Hit(chaos.SiteIncr)
	st := &m.st
	if !st.active {
		return m.cond, nil
	}
	labelsChanged := st.anyMerge || len(st.overrides) > 0
	var nc *scc.Condensed
	if !labelsChanged {
		// Component ids are untouched (raw entries are already root
		// ids here — no union and no dead component exists without a
		// label change): share NodeComp/Sizes and delta-patch the DAG
		// CSR. Only the materialized rows changed — add/removeDagEdge
		// mutate both directions in lockstep and record the touched
		// ids — so those rows pay a sort+dedup while everything
		// between them bulk-copies out of the committed arrays. A
		// delete-only batch (no dagAdds) additionally keeps the
		// committed topological order: removing edges from a DAG
		// cannot create a cycle or violate the existing order.
		if len(st.outTouched) == 0 && len(st.inTouched) == 0 {
			nc = m.cond
			m.resetStaged()
			return nc, nil
		}
		for _, c := range st.outTouched {
			st.out[c] = canonRow(st.out[c], c)
		}
		for _, c := range st.inTouched {
			st.in[c] = canonRow(st.in[c], c)
		}
		slices.Sort(st.outTouched)
		slices.Sort(st.inTouched)
		old := m.cond.DAG
		oldOutIdx, oldOutAdj := old.OutCSR()
		oldInIdx, oldInAdj := old.InCSR()
		outIdx, outAdj := patchCSR(oldOutIdx, oldOutAdj, st.outTouched, st.out)
		inIdx, inAdj := patchCSR(oldInIdx, oldInAdj, st.inTouched, st.in)
		dag := graph.FromCSR(outIdx, outAdj, inIdx, inAdj)
		topo, rank := m.cond.Topo, m.cond.Rank
		if st.dagAdds {
			var ok bool
			if topo, rank, ok = scc.TopoOrder(dag); !ok {
				return nil, errCyclicCommit
			}
		}
		nc = &scc.Condensed{DAG: dag, NodeComp: m.cond.NodeComp, Sizes: m.cond.Sizes, Topo: topo, Rank: rank}
	} else {
		numC := len(st.uf)
		remap := make([]int32, numC)
		newK := int32(0)
		for c := 0; c < numC; c++ {
			if st.uf[c] == int32(c) && !st.dead[c] {
				remap[c] = newK
				newK++
			} else {
				remap[c] = -1
			}
		}
		n := m.ov.NumNodes()
		nodeComp := make([]int32, n)
		for v := 0; v < n; v++ {
			r := m.compOf(graph.NodeID(v))
			nr := remap[r]
			if nr < 0 {
				return nil, fmt.Errorf("incr: node %d labeled with dead component %d", v, r)
			}
			nodeComp[v] = nr
		}
		sizes := make([]int64, newK)
		for c := 0; c < numC; c++ {
			if remap[c] >= 0 {
				sizes[remap[c]] = st.size[c]
			}
		}
		b := graph.NewBuilder(int(newK))
		for c := 0; c < numC; c++ {
			s := remap[c]
			if s < 0 {
				continue
			}
			m.rawOutDo(int32(c), func(d int32) {
				fd := st.find(d)
				if st.dead[fd] {
					return
				}
				if t := remap[fd]; t >= 0 && t != s {
					b.AddEdge(graph.NodeID(s), graph.NodeID(t))
				}
			})
		}
		dag := b.Build()
		topo, rank, ok := scc.TopoOrder(dag)
		if !ok {
			return nil, errCyclicCommit
		}
		nc = &scc.Condensed{DAG: dag, NodeComp: nodeComp, Sizes: sizes, Topo: topo, Rank: rank}
		m.invalidateMembers()
	}
	m.cond = nc
	m.resetStaged()
	return nc, nil
}

// canonRow sorts a staged adjacency row and drops duplicates and any
// self-entry, yielding the canonical form the committed CSR stores
// (addDagEdge appends without checking for an existing entry).
func canonRow(l []int32, self int32) []int32 {
	slices.Sort(l)
	w := 0
	for i, e := range l {
		if e == self || (i > 0 && e == l[i-1]) {
			continue
		}
		l[w] = e
		w++
	}
	return l[:w]
}

// patchCSR assembles one CSR direction by splicing the canonicalized
// override rows (touched, ascending, duplicate-free ids) into the
// committed arrays. Rows between touched ids are bulk memcpy'd, so
// the cost is O(k) index adds + O(edges) copy in ~2·touched
// segments — no per-row dispatch and no counting sort.
func patchCSR(oldIdx []int64, oldAdj []graph.NodeID, touched []int32, over [][]int32) ([]int64, []graph.NodeID) {
	k := len(oldIdx) - 1
	idx := make([]int64, k+1)
	pos := 0
	var shift int64
	for _, c := range touched {
		for ; pos <= int(c); pos++ {
			idx[pos] = oldIdx[pos] + shift
		}
		shift += int64(len(over[c])) - (oldIdx[c+1] - oldIdx[c])
	}
	for ; pos <= k; pos++ {
		idx[pos] = oldIdx[pos] + shift
	}

	adj := make([]graph.NodeID, idx[k])
	var src, dst int64
	for _, c := range touched {
		n := copy(adj[dst:], oldAdj[src:oldIdx[c]])
		dst += int64(n)
		dst += int64(copy(adj[dst:], over[c]))
		src = oldIdx[c+1]
	}
	copy(adj[dst:], oldAdj[src:])
	return idx, adj
}

// LabelsEquivalent reports whether two labelings induce the same
// partition (equal up to a bijection of label values).
func LabelsEquivalent(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	ab := make(map[int32]int32, 64)
	ba := make(map[int32]int32, 64)
	for i := range a {
		if x, ok := ab[a[i]]; ok {
			if x != b[i] {
				return false
			}
		} else {
			ab[a[i]] = b[i]
		}
		if x, ok := ba[b[i]]; ok {
			if x != a[i] {
				return false
			}
		} else {
			ba[b[i]] = a[i]
		}
	}
	return true
}
