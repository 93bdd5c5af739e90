// Command sccbench regenerates the paper's tables and figures on the
// synthetic dataset suite.
//
// Usage:
//
//	sccbench -exp table1                         # Table 1
//	sccbench -exp figure2                        # Fig 2  (livej SCC sizes)
//	sccbench -exp figure6 [-data flickr] [-mode modeled|measured]
//	sccbench -exp figure7 [-data flickr]
//	sccbench -exp figure8                        # per-phase fractions
//	sccbench -exp figure9                        # all SCC size dists
//	sccbench -exp tasklog                        # §3.3 execution log
//	sccbench -exp ablations [-data flickr]       # §3.4/§4.1/§4.3 claims
//	sccbench -exp bench [-warmup 1] [-reps 5] [-kernels worklist|legacy|multipivot] [-diropt]
//	                                             # Method2 perf sweep (BENCH_scc.json figure6 suite)
//	sccbench -exp multipivot [-warmup 1] [-reps 5]
//	                                             # worklist-vs-multipivot kernel comparison (multipivot suite)
//	sccbench -exp engine [-stream 64] [-engine-workers 4]
//	                                             # engine-amortization report (engine suite)
//	sccbench -exp serve [-serve-clients 16] [-serve-duration 800ms]
//	                                             # serving load harness (BENCH_serve.json serve suite)
//	sccbench -exp recover [-recover-batches 6]
//	                                             # crash-recovery matrix (recover suite)
//	sccbench -exp incr [-incr-batches 32] [-incr-batch-size 16]
//	                                             # incremental-maintenance mixes (incr suite)
//	sccbench -exp all                            # everything except bench/multipivot/engine/serve/recover/incr
//
// bench, multipivot and engine replace their own suite in the -json
// file, serve, recover and incr theirs in the -serve-json file; the
// other suites in the file are kept, and a missing file is created.
// cmd/benchgate checks a suite against its bounds.
//
// -scale shrinks the datasets (1.0 ≈ 40-250k nodes per graph; use
// 0.25 for quick runs). -mode modeled (default) projects thread sweeps
// through the machine model of the paper's 2×8-core Xeon; -mode
// measured runs real thread counts on this host.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/experiments"
	"repro/scc"
	"repro/schedsim"
)

// experimentNames lists every value -exp accepts; "all" runs each
// non-artifact experiment in turn.
var experimentNames = []string{
	"table1", "figure2", "figure6", "figure7", "figure8", "figure9", "tasklog",
	"ablations", "related", "smallworld",
	"bench", "multipivot", "engine", "serve", "recover", "incr", "all",
}

// checkExp rejects an -exp value that names no experiment, so a typo
// fails before anything runs instead of silently doing nothing.
func checkExp(name string) error {
	if slices.Contains(experimentNames, name) {
		return nil
	}
	return fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(experimentNames, "|"))
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: "+strings.Join(experimentNames, "|"))
		data     = flag.String("data", "", "restrict figure6/figure7/tasklog/ablations to one dataset (default: all for figure6, flickr otherwise)")
		scale    = flag.Float64("scale", 1.0, "dataset scale factor (halving repeatedly shrinks node counts)")
		mode     = flag.String("mode", "modeled", "thread-sweep mode: modeled|measured")
		threads  = flag.String("threads", "1,2,4,8,16,32", "comma-separated thread counts")
		seed     = flag.Int64("seed", 1, "pivot-selection seed")
		csvDir   = flag.String("csv", "", "also write machine-readable CSV files into this directory")
		machSpec = flag.String("machine", "", "machine model for modeled sweeps, e.g. 8x1.0,8x0.7,16x0.35@1us (default: the paper's 2x8-core SMT Xeon)")

		jsonPath = flag.String("json", "BENCH_scc.json", "bench/multipivot/engine experiments: write the suite into this results file (empty = stdout only)")
		warmup   = flag.Int("warmup", 1, "bench experiment: discarded warmup runs per dataset")
		reps     = flag.Int("reps", 5, "bench experiment: measured repetitions per dataset")
		workers  = flag.Int("workers", 0, "bench experiment: Detect workers (0 = GOMAXPROCS)")
		kernSpec = flag.String("kernels", "worklist", "bench experiment: kernel set: worklist|legacy|multipivot")
		dirOpt   = flag.Bool("diropt", false, "bench experiment: enable the direction-optimizing phase-1 BFS (bitmap frontier)")

		stream     = flag.Int("stream", 64, "engine experiment: graphs per stream pass")
		engWorkers = flag.Int("engine-workers", 0, "engine experiment: fixed Detect worker count (0 = default 1)")

		serveJSON     = flag.String("serve-json", "BENCH_serve.json", "serve/recover/incr experiments: write the suite into this results file (empty = stdout only)")
		serveClients  = flag.Int("serve-clients", 16, "serve experiment: concurrent load clients")
		serveDuration = flag.Duration("serve-duration", 800*time.Millisecond, "serve experiment: per-scenario load window")

		recoverBatches = flag.Int("recover-batches", 6, "recover experiment: durable update batches in the crash workload")

		incrBatches   = flag.Int("incr-batches", 32, "incr experiment: update batches per mix")
		incrBatchSize = flag.Int("incr-batch-size", 16, "incr experiment: updates per batch")
	)
	flag.Parse()
	if err := checkExp(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "sccbench:", err)
		os.Exit(2)
	}

	m := experiments.Modeled
	if *mode == "measured" {
		m = experiments.Measured
	}
	ths, err := parseThreads(*threads)
	if err != nil {
		fatal(err)
	}
	machine := schedsim.PaperMachine()
	if *machSpec != "" {
		var err error
		if machine, err = schedsim.ParseMachine(*machSpec); err != nil {
			fatal(err)
		}
	}

	writeCSV := func(name string, write func(w *os.File) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			fatal(err)
		}
		if err := write(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	run := func(name string, fn func()) {
		if *exp == name || *exp == "all" {
			fmt.Printf("=== %s ===\n", name)
			fn()
			fmt.Println()
		}
	}

	run("table1", func() {
		rows := experiments.Table1(*scale, 6)
		fmt.Print(experiments.FormatTable1(rows))
		writeCSV("table1.csv", func(f *os.File) error { return experiments.Table1CSV(f, rows) })
	})
	run("figure2", func() {
		d := mustFind("livej")
		fmt.Print(experiments.FormatSizeDist(experiments.SizeDistribution(d, *scale)))
	})
	run("figure6", func() {
		var series []experiments.SpeedupSeries
		for _, d := range selectDatasets(*data, experiments.Names()) {
			s := experiments.Figure6(mustFind(d), *scale, ths, m, machine, *seed)
			series = append(series, s)
			fmt.Print(experiments.FormatFigure6(s))
		}
		if len(series) > 1 {
			last := ths[len(ths)-1]
			fmt.Printf("geomean Method2 speedup at %d threads (excl. ca-road): %.2fx (paper: 14.05x)\n",
				last, experiments.GeoMeanSpeedup(series, "Method2", last, "ca-road"))
		}
		writeCSV("figure6.csv", func(f *os.File) error { return experiments.SpeedupCSV(f, series) })
	})
	run("figure7", func() {
		for _, d := range selectDatasets(defaultTo(*data, "flickr"), experiments.Names()) {
			rows := experiments.Figure7(mustFind(d), *scale, ths, m, machine, *seed)
			fmt.Print(experiments.FormatFigure7(d, rows))
			writeCSV("figure7-"+d+".csv", func(f *os.File) error { return experiments.BreakdownCSV(f, d, rows) })
		}
	})
	run("figure8", func() {
		rows := experiments.Figure8(*scale, *seed)
		fmt.Print(experiments.FormatFigure8(rows))
		writeCSV("figure8.csv", func(f *os.File) error { return experiments.FractionsCSV(f, rows) })
	})
	run("figure9", func() {
		var dists []experiments.SizeDist
		for _, name := range experiments.Names() {
			sd := experiments.SizeDistribution(mustFind(name), *scale)
			dists = append(dists, sd)
			fmt.Print(experiments.FormatSizeDist(sd))
		}
		writeCSV("figure9.csv", func(f *os.File) error { return experiments.SizeDistCSV(f, dists) })
	})
	run("tasklog", func() {
		d := mustFind(defaultTo(*data, "flickr"))
		fmt.Print(experiments.FormatTaskLog(experiments.TaskLog(d, *scale, *seed, 5)))
	})
	run("smallworld", func() {
		n := int(30000 * *scale)
		if n < 1000 {
			n = 1000
		}
		points := experiments.SmallWorldSweep(n, 3, []float64{0, 0.0005, 0.002, 0.01, 0.05, 0.2, 1.0}, *seed)
		fmt.Print(experiments.FormatSmallWorld(points))
	})
	run("related", func() {
		d := mustFind(defaultTo(*data, "flickr"))
		rc := experiments.Related(d, *scale, *seed)
		fmt.Print(experiments.FormatRelated(rc))
		writeCSV("related.csv", func(f *os.File) error { return experiments.RelatedCSV(f, rc) })
	})
	// The perf artifacts are deliberately not part of -exp all: each
	// measures, prints its table and replaces its own suite in a
	// results file.
	artifact := func(name, path, suite string, measure func() (string, experiments.RecordSet, error)) {
		if *exp != name {
			return
		}
		table, rs, err := measure()
		if err != nil {
			fatal(err)
		}
		fmt.Print(table)
		if path == "" {
			return
		}
		if err := experiments.WriteRecordSet(path, suite, rs); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s suite to %s\n", suite, path)
	}
	artifact("bench", *jsonPath, "figure6", func() (string, experiments.RecordSet, error) {
		kern, err := scc.ParseKernels(*kernSpec)
		if err != nil {
			return "", experiments.RecordSet{}, err
		}
		cfg := experiments.BenchConfig{
			Scale: *scale, Workers: *workers, Warmup: *warmup, Reps: *reps, Seed: *seed,
			Kernels: kern, DirOptBFS: *dirOpt,
		}
		if *data != "" {
			cfg.Datasets = strings.Split(*data, ",")
		}
		rep, err := experiments.BenchSweep(cfg)
		return experiments.FormatBench(rep), rep.Records(), err
	})
	// Like-vs-like worklist vs multi-pivot rows over the high-diameter
	// stress set (ca-road, deep-chain, zig-zag) plus small-world
	// controls.
	artifact("multipivot", *jsonPath, "multipivot", func() (string, experiments.RecordSet, error) {
		rep, err := experiments.MultiPivotSweep(experiments.MultiPivotBenchConfig{
			Scale: *scale, Workers: *workers, Warmup: *warmup, Reps: *reps, Seed: *seed,
		})
		return experiments.FormatMultiPivot(rep), rep.Records(), err
	})
	// A small-graph detection stream measured one-shot vs warm-engine
	// vs batched.
	artifact("engine", *jsonPath, "engine", func() (string, experiments.RecordSet, error) {
		rep, err := experiments.EngineSweep(experiments.EngineBenchConfig{
			Workers: *engWorkers, Stream: *stream, Warmup: *warmup, Reps: *reps, Seed: *seed,
		})
		return experiments.FormatEngine(rep), rep.Records(), err
	})
	// The SCC-as-a-service load harness: steady, overload,
	// chaos-rebuild and drain scenarios.
	artifact("serve", *serveJSON, "serve", func() (string, experiments.RecordSet, error) {
		rep, err := experiments.ServeSweep(experiments.ServeBenchConfig{
			Dataset:  defaultTo(*data, "flickr"),
			Scale:    *scale,
			Workers:  *workers,
			Clients:  *serveClients,
			Duration: *serveDuration,
			Seed:     *seed,
		})
		return experiments.FormatServe(rep), rep.Records(), err
	})
	// A durable server killed at every mutating-FS-op ordinal and
	// restarted.
	artifact("recover", *serveJSON, "recover", func() (string, experiments.RecordSet, error) {
		rep, err := experiments.RecoverSweep(experiments.RecoverBenchConfig{
			Dataset: defaultTo(*data, "flickr"),
			Scale:   *scale,
			Workers: *workers,
			Batches: *recoverBatches,
			Seed:    *seed,
		})
		return experiments.FormatRecover(rep), rep.Records(), err
	})
	// Classified update mixes applied through incr.Maintainer and
	// timed against the full rebuild they replace.
	artifact("incr", *serveJSON, "incr", func() (string, experiments.RecordSet, error) {
		rep, err := experiments.IncrSweep(experiments.IncrBenchConfig{
			Dataset:   defaultTo(*data, "flickr"),
			Scale:     *scale,
			Workers:   *workers,
			Batches:   *incrBatches,
			BatchSize: *incrBatchSize,
			Seed:      *seed,
		})
		return experiments.FormatIncr(rep), rep.Records(), err
	})

	run("ablations", func() {
		d := mustFind(defaultTo(*data, "flickr"))
		h := experiments.AblationHybrid(d, *scale, *seed)
		t2 := experiments.AblationTrim2(d, *scale, *seed)
		ks := experiments.AblationK(d, *scale, *seed, []int{1, 2, 4, 8, 16, 32})
		fmt.Print(experiments.FormatAblations(h, t2, ks))
	})
}

func parseThreads(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad thread count %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func selectDatasets(requested string, all []string) []string {
	if requested == "" {
		return all
	}
	return strings.Split(requested, ",")
}

func defaultTo(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func mustFind(name string) experiments.Dataset {
	d, err := experiments.Find(name)
	if err != nil {
		fatal(err)
	}
	return d
}

func fatal(err error) {
	// Detection errors bubbling out of the experiments are typed;
	// distinguish configuration mistakes from interrupted runs.
	switch {
	case errors.Is(err, scc.ErrInvalidOption):
		var oe *scc.OptionError
		if errors.As(err, &oe) {
			fmt.Fprintf(os.Stderr, "sccbench: bad option %s: %v\n", oe.Field, err)
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "sccbench:", err)
		os.Exit(2)
	case errors.Is(err, scc.ErrCanceled):
		fmt.Fprintln(os.Stderr, "sccbench: run canceled:", err)
		os.Exit(3)
	}
	fmt.Fprintln(os.Stderr, "sccbench:", err)
	os.Exit(1)
}
