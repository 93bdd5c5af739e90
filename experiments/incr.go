package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/graph"
	"repro/internal/incr"
	"repro/scc"
)

// IncrBenchConfig configures the incremental-maintenance sweep behind
// the incr suite of BENCH_serve.json: classified update batches
// applied through incr.Maintainer, timed against the from-scratch
// detect → condense rebuild they replace on the serving path.
type IncrBenchConfig struct {
	// Dataset is the suite graph to maintain (default "flickr").
	Dataset string
	// Scale is the dataset scale factor.
	Scale float64
	// Workers is the detection worker count (0 = GOMAXPROCS).
	Workers int
	// Batches is the number of update batches per mix (default 32).
	Batches int
	// BatchSize is the number of updates per batch (default 16).
	BatchSize int
	// Seed drives the update mixes and pivot selection.
	Seed int64
}

func (c IncrBenchConfig) withDefaults() IncrBenchConfig {
	if c.Dataset == "" {
		c.Dataset = "flickr"
	}
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Batches <= 0 {
		c.Batches = 32
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// IncrMix is one update mix's measured outcome: per-batch incremental
// cost against the full-rebuild baseline, the classification counts
// the mix exercised, and whether the maintained labeling diverged
// from a from-scratch run over the final edge set (the zero-tolerance
// gate).
type IncrMix struct {
	Name    string `json:"name"`
	Batches int    `json:"batches"`
	Updates int    `json:"updates"`

	// MeanBatchUS / MaxBatchUS are per-Apply wall costs; Speedup is
	// FullDetectUS (the report-level baseline) over MeanBatchUS.
	MeanBatchUS int64   `json:"mean_batch_us" unit:"us"`
	MaxBatchUS  int64   `json:"max_batch_us" unit:"us"`
	Speedup     float64 `json:"speedup" unit:"x"`

	IntraInserts int64 `json:"intra_inserts"`
	DagInserts   int64 `json:"dag_inserts"`
	CycleMerges  int64 `json:"cycle_merges"`
	NoopDeletes  int64 `json:"noop_deletes"`
	DagDeletes   int64 `json:"dag_deletes"`
	Partials     int64 `json:"partials"`
	Noops        int64 `json:"noops"`

	// Diverged reports whether the maintained labeling disagreed with
	// a from-scratch detection over the final edge set. Must be false.
	Diverged bool `json:"diverged" unit:"bool"`
}

// IncrReport is the incr suite of BENCH_serve.json.
type IncrReport struct {
	Dataset string
	Nodes   int
	Edges   int64
	Scale   float64
	Workers int
	Seed    int64

	// FullDetectUS is the baseline: one detect → condense over the
	// base graph (minimum of three runs), the cost every update batch
	// paid before incremental maintenance.
	FullDetectUS int64

	Mixes []IncrMix
}

// Records returns the report as the incr suite: one case per mix, each
// also carrying its delete fast paths (no-op deletes, DAG deletes and
// no-ops), plus a baseline case with the full rebuild's cost.
func (r IncrReport) Records() RecordSet {
	var recs []Record
	for _, m := range r.Mixes {
		recs = append(recs, rowRecords(m.Name, m)...)
		recs = append(recs, Record{m.Name, "delete_fast_paths", float64(m.NoopDeletes + m.DagDeletes + m.Noops), "count"})
	}
	recs = append(recs, Record{"baseline", "full_detect_us", float64(r.FullDetectUS), "us"})
	return newRecordSet(map[string]any{
		"dataset": r.Dataset, "nodes": r.Nodes, "edges": r.Edges, "scale": r.Scale,
		"workers": r.Workers, "seed": r.Seed,
	}, recs)
}

// IncrSweep measures the three classified update mixes — intra-SCC
// insert-heavy, cycle-merge-heavy, delete-heavy — against the full
// rebuild baseline on one dataset.
func IncrSweep(cfg IncrBenchConfig) (IncrReport, error) {
	cfg = cfg.withDefaults()
	d, err := Find(cfg.Dataset)
	if err != nil {
		return IncrReport{}, err
	}
	g := d.Build(cfg.Scale)
	ctx := context.Background()

	eng, err := scc.New(scc.Options{Algorithm: scc.Method2, Workers: cfg.Workers, Seed: cfg.Seed})
	if err != nil {
		return IncrReport{}, err
	}
	defer eng.Close()
	detect := func(ctx context.Context, g *graph.Graph) ([]int32, error) {
		res, err := eng.Detect(ctx, g)
		if err != nil {
			return nil, err
		}
		return append([]int32(nil), res.Comp...), nil
	}
	build := func(ctx context.Context, g *graph.Graph) (*scc.Condensed, error) {
		comp, err := detect(ctx, g)
		if err != nil {
			return nil, err
		}
		return scc.Condense(g, comp)
	}

	rep := IncrReport{
		Dataset: cfg.Dataset, Nodes: g.NumNodes(), Edges: g.NumEdges(),
		Scale: cfg.Scale, Workers: cfg.Workers, Seed: cfg.Seed,
	}

	// Baseline: the from-scratch epoch cost each batch used to pay
	// (minimum of three runs).
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := build(ctx, g); err != nil {
			return rep, fmt.Errorf("incr baseline: %w", err)
		}
		if us := time.Since(t0).Microseconds(); rep.FullDetectUS == 0 || us < rep.FullDetectUS {
			rep.FullDetectUS = us
		}
	}

	for i, name := range []string{"intra", "cycle", "delete"} {
		row, err := runIncrMix(ctx, cfg, g, detect, build, name, cfg.Seed+int64(i)*7919)
		if err != nil {
			return rep, fmt.Errorf("incr mix %s: %w", name, err)
		}
		if row.MeanBatchUS > 0 {
			row.Speedup = float64(rep.FullDetectUS) / float64(row.MeanBatchUS)
		}
		rep.Mixes = append(rep.Mixes, row)
	}
	return rep, nil
}

// runIncrMix seeds a fresh maintainer on g, applies cfg.Batches
// batches of the named mix, and verifies the final labeling against a
// from-scratch detection over the materialized edge set.
func runIncrMix(ctx context.Context, cfg IncrBenchConfig, g *graph.Graph,
	detect incr.DetectFunc, build incr.BuildFunc, name string, seed int64) (IncrMix, error) {
	row := IncrMix{Name: name, Batches: cfg.Batches}
	m := incr.New(g, detect)
	if _, _, err := m.FullBuild(ctx, nil, build); err != nil {
		return row, err
	}
	rng := rand.New(rand.NewSource(seed))
	var total incr.Stats
	var sumUS int64
	for b := 0; b < cfg.Batches; b++ {
		batch := makeIncrBatch(rng, m, g, name, cfg.BatchSize)
		row.Updates += len(batch)
		t0 := time.Now()
		_, st, err := m.Apply(ctx, batch)
		if err != nil {
			return row, err
		}
		us := time.Since(t0).Microseconds()
		sumUS += us
		if us > row.MaxBatchUS {
			row.MaxBatchUS = us
		}
		total.Add(st)
	}
	if cfg.Batches > 0 {
		row.MeanBatchUS = sumUS / int64(cfg.Batches)
	}
	row.IntraInserts = total.IntraInserts
	row.DagInserts = total.DagInserts
	row.CycleMerges = total.CycleMerges
	row.NoopDeletes = total.NoopDeletes
	row.DagDeletes = total.DagDeletes
	row.Partials = total.Partials
	row.Noops = total.Noops

	// Zero-divergence gate: the maintained labeling must match a
	// from-scratch detection over the exact final edge set.
	final := m.Materialize()
	comp, err := detect(ctx, final)
	if err != nil {
		return row, err
	}
	row.Diverged = !incr.LabelsEquivalent(m.Cond().NodeComp, comp)
	return row, nil
}

// makeIncrBatch builds one batch of the named mix against the
// maintainer's current labeling:
//
//   - intra: inserts between members of the largest SCC — the
//     label-no-op fast path that dominates small-world update streams;
//   - cycle: insert pairs u→v, v→u between random nodes, forcing
//     condensation-path collapses (with DAG-edge inserts as the setup
//     half of each pair);
//   - delete: deletions of existing inter-SCC edges (DAG-edge or
//     residual-no-op fast paths) padded with absent-edge deletes.
func makeIncrBatch(rng *rand.Rand, m *incr.Maintainer, g *graph.Graph, name string, size int) []graph.Update {
	cond := m.Cond()
	n := m.NumNodes()
	batch := make([]graph.Update, 0, size)
	switch name {
	case "intra":
		giant := giantMembers(cond, 4096)
		for len(batch) < size {
			u := giant[rng.Intn(len(giant))]
			v := giant[rng.Intn(len(giant))]
			batch = append(batch, graph.Update{Op: graph.EdgeInsert, From: u, To: v})
		}
	case "cycle":
		for len(batch)+2 <= size {
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			batch = append(batch,
				graph.Update{Op: graph.EdgeInsert, From: u, To: v},
				graph.Update{Op: graph.EdgeInsert, From: v, To: u})
		}
	case "delete":
		// Existing edges whose endpoints live in different SCCs: their
		// deletion can never split a component, so every one rides a
		// fast path (residual no-op or DAG-edge removal).
		for tries := 0; len(batch) < size && tries < size*64; tries++ {
			u := graph.NodeID(rng.Intn(g.NumNodes()))
			out := g.Out(u)
			if len(out) == 0 {
				continue
			}
			v := out[rng.Intn(len(out))]
			if cond.NodeComp[u] == cond.NodeComp[v] {
				continue
			}
			batch = append(batch, graph.Update{Op: graph.EdgeDelete, From: u, To: v})
		}
		for len(batch) < size {
			// Pad with absent-edge deletes (classified no-ops).
			u := graph.NodeID(rng.Intn(n))
			batch = append(batch, graph.Update{Op: graph.EdgeDelete, From: u, To: u})
		}
	default:
		panic("unknown incr mix " + name)
	}
	return batch
}

// giantMembers samples up to limit members of the largest component.
func giantMembers(cond *scc.Condensed, limit int) []graph.NodeID {
	var giant int32
	for c := range cond.Sizes {
		if cond.Sizes[c] > cond.Sizes[giant] {
			giant = int32(c)
		}
	}
	members := make([]graph.NodeID, 0, limit)
	for v, c := range cond.NodeComp {
		if c == giant {
			members = append(members, graph.NodeID(v))
			if len(members) == limit {
				break
			}
		}
	}
	return members
}

// FormatIncr renders the incremental-maintenance report for stdout.
func FormatIncr(r IncrReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Incremental SCC maintenance — %s scale %.2f (%d nodes, %d edges, %d workers)\n",
		r.Dataset, r.Scale, r.Nodes, r.Edges, r.Workers)
	fmt.Fprintf(&sb, "full rebuild baseline: %d µs\n", r.FullDetectUS)
	fmt.Fprintf(&sb, "%-8s %8s %9s %12s %12s %9s %s\n",
		"mix", "batches", "updates", "mean µs/ba", "max µs/ba", "speedup", "classes (intra/dag+/merge/noop-/dag-/part/noop)")
	for _, m := range r.Mixes {
		mark := ""
		if m.Diverged {
			mark = "  DIVERGED"
		}
		fmt.Fprintf(&sb, "%-8s %8d %9d %12d %12d %8.1fx %d/%d/%d/%d/%d/%d/%d%s\n",
			m.Name, m.Batches, m.Updates, m.MeanBatchUS, m.MaxBatchUS, m.Speedup,
			m.IntraInserts, m.DagInserts, m.CycleMerges, m.NoopDeletes, m.DagDeletes, m.Partials, m.Noops, mark)
	}
	return sb.String()
}
