// Command perfbench is the repository benchmark. One workload runs per
// process: it generates a Figure 6 analog, times closed-loop detection
// on a warm scc.Engine, serves the analog's quarter-scale graph from
// in-process internal/server instances, drives closed-loop reads and
// open-loop durable mixed writes against them, checks every answer it
// can against Tarjan and BFS oracles, and prints one JSON line of
// metrics. With -trace 1 it also records spans around the calls into
// each layer and replays the recorded streams into the layers on their
// own, which gives the per-layer metrics.
//
// Build and run it through run.py, which the repository's
// BENCHMARK.json names; see README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/graph"
	"repro/scc"
)

// workload is one Figure 6 analog run through all three sections.
type workload struct {
	name    string
	dataset string
	// readRate and writeRate are the serve-mixed open-loop rates, in
	// reads and update batches per second, set well under what a
	// 2-CPU host sustains on this graph so the generator keeps its
	// schedule.
	readRate  float64
	writeRate float64
}

var workloads = []workload{
	{name: "flickr", dataset: "flickr", readRate: 200, writeRate: 100},
	{name: "patents", dataset: "patents", readRate: 200, writeRate: 100},
	{name: "ca-road", dataset: "ca-road", readRate: 200, writeRate: 100},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

type config struct {
	w        workload
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	workDir  string
	// Graph scales, set-up repetitions (setup_s is their median) and
	// rounds; newConfig shrinks them in short mode, which only the
	// package's own tests use.
	detectScale, serveScale float64
	setupReps, rounds       int
}

func newConfig(w workload, seed int64, seconds float64, short bool) config {
	c := config{w: w, seed: seed, seconds: seconds,
		detectScale: 1.0, serveScale: 0.25, setupReps: 3, rounds: 4}
	if short {
		c.detectScale /= 16
		c.serveScale /= 16
		c.setupReps, c.rounds = 1, 1
	}
	return c
}

const (
	// batchSize is the number of updates per /update batch, two of
	// which are the visibility markers.
	batchSize = 16
	// failedLatency is what a failed or refused request contributes to
	// a latency distribution: more than any limit the benchmark sets.
	failedLatency = 5 * time.Second
	// lateBound is how far behind its schedule (p99) the open-loop
	// generator may fall before the run is marked invalid. Latency is
	// timed from the due time, so lateness is already charged to the
	// server; the bound only rejects runs whose generator could not run
	// at all, which normal runs miss by two orders of magnitude (their
	// lateness p99 is 2 to 6 ms). A single connection per direction
	// means a disk stall behind one acknowledgement delays the next
	// sends too, so a tighter bound would reject runs for the server's
	// behaviour rather than the generator's.
	lateBound = 250 * time.Millisecond
)

// The measured time is split into rounds, each running a detect, a read
// and a mixed slice, so that every section samples the whole run and
// host speed drift within a run spreads across all of them. Within a
// round the mixed slice gets half: its tail metrics rest on update
// batches, which arrive at a fixed rate, while the closed loops gather
// thousands of samples fast.
const (
	detectShare = 0.25
	readShare   = 0.25
	mixedShare  = 0.5
)

// sliceDur is one round's slice of a section.
func (c config) sliceDur(share float64) time.Duration {
	return time.Duration(c.seconds * share / float64(c.rounds) * float64(time.Second))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Info      map[string]any    `json:"info"`
}

// tally counts attempted operations, failed ones (errors, refusals,
// wrong answers) and, among those, wrong answers.
type tally struct {
	attempted, failed, wrong atomic.Int64
}

func (t *tally) ok()   { t.attempted.Add(1) }
func (t *tally) fail() { t.attempted.Add(1); t.failed.Add(1) }

// mismatch marks an already attempted operation whose answer an oracle
// rejected.
func (t *tally) mismatch() { t.failed.Add(1); t.wrong.Add(1) }

// bench is one workload run's state.
type bench struct {
	cfg     config
	tr      *tracer
	env     *env
	tally   tally
	metrics map[string]metric

	det   detectState
	read  readState
	mixed mixedState

	// detectOracle and serveOracle are Tarjan labelings of the two
	// graphs; serveSizes[l] is the size of serveOracle's class l.
	detectOracle []int32
	serveOracle  []int32
	serveSizes   map[int32]int64

	// lastComp is a copy of the last detection labels, for the traced
	// Condense replay.
	lastComp []int32
	// batches is the update stream of the mixed section.
	batches []batch
	// streamFinal is the edge set after the whole batch stream, the
	// traced durable replay's snapshot payload.
	streamFinal *graph.Graph
}

func (b *bench) put(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func tarjan(g *graph.Graph) ([]int32, error) {
	res, err := scc.Detect(g, scc.Options{Algorithm: scc.Tarjan})
	if err != nil {
		return nil, fmt.Errorf("tarjan oracle: %w", err)
	}
	return res.Comp, nil
}

// buildOracles computes the Tarjan labelings the sections check
// against; it runs after set-up, outside every timed region.
func (b *bench) buildOracles() error {
	var err error
	if b.detectOracle, err = tarjan(b.env.detectG); err != nil {
		return err
	}
	if b.serveOracle, err = tarjan(b.env.serveG); err != nil {
		return err
	}
	b.serveSizes = map[int32]int64{}
	for _, l := range b.serveOracle {
		b.serveSizes[l]++
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 24, "measured seconds, split over the sections")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	traceOut := fs.String("trace-out", "", "file the spans are written to at exit (with -trace 1)")
	workDir := fs.String("work-dir", ".bench_build/work", "scratch directory for the WAL")
	short := fs.Bool("short", false, "small graphs and one set-up (tests only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be > 0 and -trace 0 or 1")
		return 2
	}
	cfg := newConfig(w, *seed, *seconds, *short)
	cfg.trace, cfg.traceOut, cfg.workDir = *trace == 1, *traceOut, *workDir
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", k)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runInfo is recorded with every run.
func runInfo(cfg config) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":     cfg.w.name,
		"seed":         cfg.seed,
		"seconds":      cfg.seconds,
		"detect_scale": cfg.detectScale,
		"serve_scale":  cfg.serveScale,
		"num_cpu":      runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"commit":       commit,
		"traced":       cfg.trace,
	}
}

// runWorkload runs set-up, the three sections and, when traced, the
// per-layer replays, and assembles the result.
func runWorkload(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.workDir, cfg.w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	b := &bench{cfg: cfg, metrics: map[string]metric{}}
	if cfg.trace {
		b.tr = newTracer()
	}
	var setups, gens []float64
	for i := 0; i < cfg.setupReps; i++ {
		if b.env != nil {
			b.env.close()
		}
		e, err := newEnv(cfg, b.tr, filepath.Join(runDir, fmt.Sprintf("wal-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		b.env = e
		setups = append(setups, e.setupS)
		gens = append(gens, e.genS)
	}
	defer b.env.close()
	b.put("setup_s", median(setups), "s")
	b.put("gen.build_s", median(gens), "s")

	if err := b.buildOracles(); err != nil {
		return nil, err
	}
	nb := int(math.Ceil(cfg.seconds * mixedShare * cfg.w.writeRate))
	if b.batches, err = b.makeBatches(nb); err != nil {
		return nil, err
	}
	b.mixed.acked = make([]bool, nb)
	b.mixed.ctr0 = b.env.mixed.srv.Counters().Snapshot()
	k := cfg.rounds
	for r := 0; r < k; r++ {
		b.detectSlice(cfg.sliceDur(detectShare))
		b.readSlice(cfg.sliceDur(readShare), r)
		b.mixedSlice(cfg.sliceDur(mixedShare), r*nb/k, (r+1)*nb/k, r)
	}
	if err := b.finishDetect(); err != nil {
		return nil, err
	}
	if err := b.finishRead(); err != nil {
		return nil, err
	}
	if err := b.finishMixed(); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := b.layerReplays(runDir); err != nil {
			return nil, err
		}
		if cfg.traceOut != "" {
			if err := b.tr.writeJSONL(cfg.traceOut); err != nil {
				return nil, err
			}
		}
	}
	b.put("mem_mb", peakRSSMB(), "MB")
	att, failed := b.tally.attempted.Load(), b.tally.failed.Load()
	b.put("ok_frac", 1-float64(failed)/float64(max(att, 1)), "frac")
	b.put("failed_frac", float64(failed)/float64(max(att, 1)), "frac")
	return &result{
		Correct:   b.tally.wrong.Load() == 0 && b.valid(),
		Attempted: att,
		Failed:    failed,
		Metrics:   b.metrics,
		Info:      runInfo(cfg),
	}, nil
}
