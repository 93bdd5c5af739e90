package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/gen"
	"repro/graph"
	"repro/scc"
)

// EngineBenchConfig configures the engine-amortization experiment: a
// stream of small graphs detected back-to-back, where per-call setup
// (gang spawn, scratch growth, validation) dominates a one-shot
// Detect. The experiment measures how much a persistent scc.Engine
// amortizes away.
type EngineBenchConfig struct {
	// Workers is the fixed Detect worker count shared by every mode
	// (default 1 — on graphs this small, extra workers only add
	// dispatch latency to every mode equally).
	Workers int
	// Stream is the number of graphs per pass (default 64).
	Stream int
	// GraphScale is the RMAT scale of each stream graph: 2^scale nodes
	// (default 4 — requests small enough that per-call engine setup,
	// the cost a persistent engine amortizes, is a large fraction of a
	// one-shot Detect).
	GraphScale int
	// Warmup passes are run and discarded per mode (default 1).
	Warmup int
	// Reps is the number of measured passes per mode (default 3).
	Reps int
	// Seed drives both graph generation and pivot selection.
	Seed int64
}

func (c EngineBenchConfig) withDefaults() EngineBenchConfig {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Stream <= 0 {
		c.Stream = 64
	}
	if c.GraphScale <= 0 {
		c.GraphScale = 4
	}
	if c.Warmup < 0 {
		c.Warmup = 1
	}
	if c.Reps < 1 {
		c.Reps = 3
	}
	return c
}

// EngineRow is one detection mode's measured throughput over the
// stream.
type EngineRow struct {
	// Mode is "oneshot" (scc.Detect per graph), "engine" (a warm
	// scc.Engine's Detect per graph) or "batch" (Engine.DetectBatch
	// over the whole stream).
	Mode string `json:"mode"`

	RunsPerSec   float64 `json:"runs_per_sec" unit:"1/s"`
	NsPerRun     float64 `json:"ns_per_run" unit:"ns"`
	AllocsPerRun uint64  `json:"allocs_per_run"`
	BytesPerRun  uint64  `json:"bytes_per_run" unit:"B"`
}

// EngineReport is the engine suite of BENCH_scc.json.
type EngineReport struct {
	Workers    int
	Stream     int
	GraphNodes int
	Warmup     int
	Reps       int
	Seed       int64
	Rows       []EngineRow
	// Speedup is Engine.Detect's runs/sec over per-call Detect's: the
	// per-call amortization factor (setup, allocations, GC pressure
	// removed; the detection work itself is unchanged).
	Speedup float64
	// BatchSpeedup is Engine.DetectBatch's runs/sec over per-call
	// Detect's — the engine's request-stream throughput gain, which
	// benchgate gates. DetectBatch additionally routes each small
	// graph to sequential Tarjan across the pinned gang, so this
	// combines gang amortization with the right-algorithm choice for
	// tiny graphs.
	BatchSpeedup float64
}

// Row returns the report row for mode, or nil.
func (r *EngineReport) Row(mode string) *EngineRow {
	for i := range r.Rows {
		if r.Rows[i].Mode == mode {
			return &r.Rows[i]
		}
	}
	return nil
}

// EngineSweep measures the small-graph detection stream under the
// three modes and returns the report. All modes run Method2 with the
// same fixed worker count, so the only variable is how much state is
// rebuilt per run.
func EngineSweep(cfg EngineBenchConfig) (EngineReport, error) {
	cfg = cfg.withDefaults()
	rep := EngineReport{
		Workers: cfg.Workers, Stream: cfg.Stream, GraphNodes: 1 << cfg.GraphScale,
		Warmup: cfg.Warmup, Reps: cfg.Reps, Seed: cfg.Seed,
	}
	graphs := make([]*graph.Graph, cfg.Stream)
	for i := range graphs {
		graphs[i] = gen.RMAT(gen.DefaultRMAT(cfg.GraphScale, 8, cfg.Seed+int64(i)))
	}
	opts := scc.Options{Algorithm: scc.Method2, Workers: cfg.Workers, Seed: cfg.Seed}
	ctx := context.Background()

	// oneshot: every Detect builds and tears down an engine.
	oneshot, err := measureStream(cfg, "oneshot", func() (int, error) {
		for _, g := range graphs {
			if _, err := scc.Detect(g, opts); err != nil {
				return 0, err
			}
		}
		return len(graphs), nil
	})
	if err != nil {
		return rep, err
	}

	eng, err := scc.New(opts)
	if err != nil {
		return rep, err
	}
	defer eng.Close()

	// engine: the gang and scratch arena persist across the stream.
	engineRow, err := measureStream(cfg, "engine", func() (int, error) {
		for _, g := range graphs {
			if _, err := eng.Detect(ctx, g); err != nil {
				return 0, err
			}
		}
		return len(graphs), nil
	})
	if err != nil {
		return rep, err
	}

	// batch: one DetectBatch call fans the stream across the gang.
	batch, err := measureStream(cfg, "batch", func() (int, error) {
		results, err := eng.DetectBatch(ctx, graphs)
		if err != nil {
			return 0, err
		}
		for i, br := range results {
			if br.Err != nil {
				return 0, fmt.Errorf("batch graph %d: %w", i, br.Err)
			}
		}
		return len(graphs), nil
	})
	if err != nil {
		return rep, err
	}

	rep.Rows = []EngineRow{oneshot, engineRow, batch}
	if oneshot.RunsPerSec > 0 {
		rep.Speedup = engineRow.RunsPerSec / oneshot.RunsPerSec
		rep.BatchSpeedup = batch.RunsPerSec / oneshot.RunsPerSec
	}
	return rep, nil
}

// measureStream runs pass (one full sweep over the stream, returning
// the number of detections it performed) cfg.Warmup+cfg.Reps times and
// aggregates the measured passes into a row. Throughput is sustained:
// total runs over total measured wall time, so the GC cycles a mode's
// allocations force are charged to that mode — for a request stream
// that recurring cost is as real as the detection itself.
func measureStream(cfg EngineBenchConfig, mode string, pass func() (int, error)) (EngineRow, error) {
	row := EngineRow{Mode: mode}
	for i := 0; i < cfg.Warmup; i++ {
		if _, err := pass(); err != nil {
			return row, fmt.Errorf("%s warmup: %w", mode, err)
		}
	}
	var (
		totalNs             int64
		runs                int
		allocsSum, bytesSum uint64
		before, after       runtime.MemStats
	)
	for i := 0; i < cfg.Reps; i++ {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		n, err := pass()
		elapsed := time.Since(t0).Nanoseconds()
		runtime.ReadMemStats(&after)
		if err != nil {
			return row, fmt.Errorf("%s rep %d: %w", mode, i, err)
		}
		totalNs += elapsed
		runs += n
		allocsSum += after.Mallocs - before.Mallocs
		bytesSum += after.TotalAlloc - before.TotalAlloc
	}
	if runs == 0 || totalNs == 0 {
		return row, fmt.Errorf("%s: no measured runs", mode)
	}
	row.NsPerRun = float64(totalNs) / float64(runs)
	row.RunsPerSec = float64(runs) / (float64(totalNs) / 1e9)
	row.AllocsPerRun = allocsSum / uint64(runs)
	row.BytesPerRun = bytesSum / uint64(runs)
	return row, nil
}

// Records returns the report as the engine suite: one case per mode.
// The engine case also carries its speedup and its allocations per run
// minus one-shot's, the batch case its speedup.
func (r EngineReport) Records() RecordSet {
	var recs []Record
	for _, row := range r.Rows {
		recs = append(recs, rowRecords(row.Mode, row)...)
	}
	recs = append(recs,
		Record{"engine", "speedup_vs_oneshot", r.Speedup, "x"},
		Record{"batch", "speedup_vs_oneshot", r.BatchSpeedup, "x"})
	if o, e := r.Row("oneshot"), r.Row("engine"); o != nil && e != nil {
		recs = append(recs, Record{"engine", "allocs_per_run_minus_oneshot",
			float64(e.AllocsPerRun) - float64(o.AllocsPerRun), "count"})
	}
	return newRecordSet(map[string]any{
		"workers": r.Workers, "stream_graphs": r.Stream, "graph_nodes": r.GraphNodes,
		"warmup": r.Warmup, "reps": r.Reps, "seed": r.Seed,
	}, recs)
}

// FormatEngine renders the engine report as an aligned text table.
func FormatEngine(rep EngineReport) string {
	out := fmt.Sprintf("Engine amortization (%d graphs of %d nodes, workers %d, %d reps):\n",
		rep.Stream, rep.GraphNodes, rep.Workers, rep.Reps)
	out += fmt.Sprintf("%-8s %12s %14s %12s %12s\n",
		"mode", "runs/sec", "ns/run", "allocs/run", "B/run")
	for _, r := range rep.Rows {
		out += fmt.Sprintf("%-8s %12.0f %14.0f %12d %12d\n",
			r.Mode, r.RunsPerSec, r.NsPerRun, r.AllocsPerRun, r.BytesPerRun)
	}
	out += fmt.Sprintf("engine vs oneshot: %.2fx runs/sec; batch vs oneshot: %.2fx runs/sec\n",
		rep.Speedup, rep.BatchSpeedup)
	return out
}
