package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/scc"
)

// MultiPivotBenchConfig configures the kernel-comparison sweep behind
// sccbench -exp multipivot.
type MultiPivotBenchConfig struct {
	// Scale is the dataset scale factor.
	Scale float64
	// Workers is the Detect worker count (0 = GOMAXPROCS).
	Workers int
	// Warmup runs are executed and discarded per (dataset, kernel).
	Warmup int
	// Reps is the number of measured repetitions (>= 1).
	Reps int
	// Seed drives pivot selection.
	Seed int64
	// HighDiameter and Controls override the dataset lists; nil selects
	// the defaults (ca-road + the Extras stress set, and two small-world
	// controls).
	HighDiameter []string
	Controls     []string
}

func (c MultiPivotBenchConfig) withDefaults() MultiPivotBenchConfig {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	}
	if c.Reps < 1 {
		c.Reps = 1
	}
	if c.HighDiameter == nil {
		c.HighDiameter = []string{"ca-road", "deep-chain", "zig-zag"}
	}
	if c.Controls == nil {
		c.Controls = []string{"livej", "flickr"}
	}
	return c
}

// KernelCompareRow is one dataset measured under both kernels with
// otherwise identical options — the like-vs-like comparison benchgate
// -multipivot enforces.
type KernelCompareRow struct {
	Dataset       string  `json:"dataset"`
	HighDiameter  bool    `json:"high_diameter"`
	Nodes         int     `json:"nodes"`
	Edges         int64   `json:"edges"`
	WorklistNs    float64 `json:"worklist_ns"`
	WorklistMin   int64   `json:"worklist_min_ns"`
	MultiPivotNs  float64 `json:"multipivot_ns"`
	MultiPivotMin int64   `json:"multipivot_min_ns"`
	NumSCCs       int64   `json:"num_sccs"`

	// Metrics is the final multi-pivot repetition's counter snapshot
	// (pivot batches, reach waves/claims, local-search collapses).
	Metrics scc.MetricsSnapshot `json:"metrics"`
}

// MultiPivotReport is the "multipivot" section of BENCH_scc.json. Like
// the engine section it is rewritten only by its own experiment; the
// bench and engine experiments preserve it across merges.
type MultiPivotReport struct {
	Scale     float64            `json:"scale"`
	Workers   int                `json:"workers"`
	Warmup    int                `json:"warmup"`
	Reps      int                `json:"reps"`
	Seed      int64              `json:"seed"`
	GoVersion string             `json:"go_version"`
	Rows      []KernelCompareRow `json:"rows"`
}

// MultiPivotSweep measures Method2 under the worklist and multi-pivot
// kernels over the high-diameter stress set plus small-world controls.
// Both kernels see identical graphs, seeds and worker counts, and
// their measured reps alternate, so a row is a direct like-vs-like
// comparison.
func MultiPivotSweep(cfg MultiPivotBenchConfig) (MultiPivotReport, error) {
	cfg = cfg.withDefaults()
	rep := MultiPivotReport{
		Scale: cfg.Scale, Workers: cfg.Workers, Warmup: cfg.Warmup,
		Reps: cfg.Reps, Seed: cfg.Seed, GoVersion: runtime.Version(),
	}
	type entry struct {
		name string
		high bool
	}
	var entries []entry
	for _, n := range cfg.HighDiameter {
		entries = append(entries, entry{n, true})
	}
	for _, n := range cfg.Controls {
		entries = append(entries, entry{n, false})
	}
	for _, e := range entries {
		d, err := Find(e.name)
		if err != nil {
			return rep, err
		}
		g := d.Build(cfg.Scale)
		row := KernelCompareRow{
			Dataset: e.name, HighDiameter: e.high,
			Nodes: g.NumNodes(), Edges: g.NumEdges(),
		}
		// Warmups first, then the measured reps interleaved: each rep
		// times one worklist run and then one multi-pivot run, so host
		// drift over the sweep lands on both kernels alike.
		kernels := [2]scc.Kernels{scc.KernelsWorklist, scc.KernelsMultiPivot}
		var opts [2]scc.Options
		for k, kern := range kernels {
			opts[k] = scc.Options{
				Algorithm: scc.Method2, Workers: cfg.Workers,
				Seed: cfg.Seed, Kernels: kern,
			}
			for i := 0; i < cfg.Warmup; i++ {
				if _, err := scc.Detect(g, opts[k]); err != nil {
					return rep, fmt.Errorf("%s/%s warmup: %w", e.name, kern, err)
				}
			}
		}
		var sum [2]float64
		minNs := [2]int64{math.MaxInt64, math.MaxInt64}
		for i := 0; i < cfg.Reps; i++ {
			for k, kern := range kernels {
				t0 := time.Now()
				res, err := scc.Detect(g, opts[k])
				elapsed := time.Since(t0).Nanoseconds()
				if err != nil {
					return rep, fmt.Errorf("%s/%s rep %d: %w", e.name, kern, i, err)
				}
				sum[k] += float64(elapsed)
				minNs[k] = min(minNs[k], elapsed)
				row.NumSCCs = res.NumSCCs
				if kern == scc.KernelsMultiPivot {
					row.Metrics = res.Metrics
				}
			}
		}
		reps := float64(cfg.Reps)
		row.WorklistNs, row.WorklistMin = sum[0]/reps, minNs[0]
		row.MultiPivotNs, row.MultiPivotMin = sum[1]/reps, minNs[1]
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// FormatMultiPivot renders the comparison as an aligned text table.
func FormatMultiPivot(rep MultiPivotReport) string {
	out := fmt.Sprintf("Kernel comparison (scale %.2g, %d warmup, %d reps, workers %d):\n",
		rep.Scale, rep.Warmup, rep.Reps, rep.Workers)
	out += fmt.Sprintf("%-10s %6s %9s %12s %12s %8s %8s %10s\n",
		"dataset", "class", "nodes", "worklist", "multipivot", "ratio", "waves", "collapses")
	for _, r := range rep.Rows {
		class := "ctrl"
		if r.HighDiameter {
			class = "hidiam"
		}
		ratio := 0.0
		if r.WorklistNs > 0 {
			ratio = r.MultiPivotNs / r.WorklistNs
		}
		out += fmt.Sprintf("%-10s %6s %9d %12s %12s %7.2fx %8d %10d\n",
			r.Dataset, class, r.Nodes,
			time.Duration(r.WorklistNs).Round(time.Microsecond),
			time.Duration(r.MultiPivotNs).Round(time.Microsecond),
			ratio, r.Metrics.ReachWaves, r.Metrics.LocalCollapses)
	}
	return out
}
