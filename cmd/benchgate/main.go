// Command benchgate is the CI verdict on the repository's measured
// claims. It has two modes.
//
// Usage:
//
//	benchgate <suite> <results.json>
//	benchgate allocs <baseline.txt> <current.txt>
//
// The suite mode checks one suite of a results file written by
// sccbench (engine, multipivot: BENCH_scc.json; serve, recover, incr:
// BENCH_serve.json) against every row of the gate table for that
// suite. A row names a case pattern (path.Match syntax), a metric, a
// comparison and a fixed bound; each record it matches must satisfy the
// comparison, and a row that matches no record fails, so a missing
// suite, case or metric fails the gate.
//
// The allocs mode compares two `go test -bench -benchmem` output files
// and fails when a benchmark's allocs/op regresses more than 10%
// against the checked-in baseline (BENCH_baseline.txt): benchstat
// gives the human-readable comparison, benchgate the red/green
// verdict. Benchmarks present in only one file are reported but do not
// fail the gate (datasets and benchmarks may be added or removed); a
// run with zero common benchmarks fails, since that means the gate
// matched nothing at all.
package main

import (
	"bufio"
	"fmt"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"

	"repro/experiments"
)

// gate is one row of the gate table: every record of suite whose case
// matches cases and whose metric is metric must satisfy `value op
// bound`, and at least one record must match.
type gate struct {
	suite, cases, metric, op string
	bound                    float64
	why                      string
}

// gates holds every fixed-bound check CI runs on a results file.
var gates = []gate{
	{"engine", "oneshot", "runs_per_sec", ">=", 0, "the oneshot row is present"},
	{"engine", "engine", "runs_per_sec", ">=", 0, "the engine row is present"},
	{"engine", "batch", "runs_per_sec", ">=", 0, "the batch row is present"},
	{"engine", "batch", "speedup_vs_oneshot", ">=", 2.0, "Engine.DetectBatch streams at least 2x the runs/sec of per-call Detect"},
	{"engine", "engine", "allocs_per_run_minus_oneshot", "<=", 0, "a warm engine allocates no more per run than a one-shot Detect"},

	{"multipivot", "*/*", "worklist_ns", ">", 0, "the worklist mean is positive"},
	{"multipivot", "hidiam/*", "ratio", "<=", 1.05, "multi-pivot wins or ties, within noise, on the high-diameter graphs it exists for"},
	{"multipivot", "ctrl/*", "ratio", "<=", 1.30, "multi-pivot does not regress the small-world controls"},
	{"multipivot", "hidiam/*", "reach_waves_plus_claims", ">", 0, "the multi-pivot kernel actually ran on the high-diameter graphs"},

	{"serve", "*", "err_5xx", "<=", 0, "no scenario answers a query with a non-shedding 5xx"},
	{"serve", "steady", "qps", ">=", 50, "steady-state throughput"},
	{"serve", "steady", "p99_us", "<=", 2e6, "steady-state p99 latency within 2s"},
	{"serve", "overload", "shed_429", ">", 0, "admission control sheds under overload"},
	{"serve", "chaos-rebuild", "rebuild_failures", ">=", 1, "the chaos-injected rebuild failure fired"},
	{"serve", "chaos-rebuild", "epoch_advance", ">", 0, "the epoch advanced after the rollback"},
	{"serve", "drain", "drain_ok", "==", 1, "the drain finished every accepted request"},

	{"recover", "matrix", "points_minus_crash_points", "==", 0, "one recorded point per crash ordinal"},
	{"recover", "crash/*", "durability_ok", "==", 1, "no acknowledged batch is lost at any crash point"},
	{"recover", "crash/*", "labels_match", "==", 1, "recovered labels match the Tarjan oracle at every crash point"},
	{"recover", "crash/*", "epoch_advance", ">=", 0, "the epoch never moves backwards across a crash"},
	{"recover", "matrix", "max_recovery_ms", "<=", 30000, "every crash point recovers within 30s"},
	{"recover", "matrix", "any_truncated", "==", 1, "some crash point exercised torn-record truncation"},

	{"incr", "*", "diverged", "==", 0, "no mix diverges from a from-scratch detection"},
	{"incr", "*", "updates", ">", 0, "every mix applied updates"},
	{"incr", "*", "mean_batch_us", ">", 0, "every mix timed its batches"},
	{"incr", "intra", "intra_inserts", ">", 0, "the intra mix fired intra-SCC insert fast paths"},
	{"incr", "cycle", "cycle_merges", ">", 0, "the cycle mix fired cycle-merge collapses"},
	{"incr", "delete", "delete_fast_paths", ">", 0, "the delete mix fired delete fast paths"},
	{"incr", "intra", "speedup", ">=", 50, "intra-SCC inserts beat the full rebuild at least 50x"},
	{"incr", "delete", "speedup", ">=", 50, "deletes beat the full rebuild at least 50x"},
}

// holds reports whether v op bound.
func holds(v float64, op string, bound float64) bool {
	switch op {
	case ">=":
		return v >= bound
	case "<=":
		return v <= bound
	case ">":
		return v > bound
	case "==":
		return v == bound
	}
	panic("benchgate: unknown op " + op)
}

// check runs every gate row of suite against the suite's records in
// the results file at file, printing one line per checked record, and
// returns the number of failures.
func check(suite, file string) (int, error) {
	sets, err := experiments.ReadRecordSets(file)
	if err != nil {
		return 0, err
	}
	rs, ok := sets[suite]
	if !ok {
		return 0, fmt.Errorf("%s has no %s suite (run sccbench -exp %s first)", file, suite, suite)
	}
	failed := 0
	for _, g := range gates {
		if g.suite != suite {
			continue
		}
		matched := false
		for _, r := range rs.Records {
			if ok, _ := path.Match(g.cases, r.Case); !ok || r.Metric != g.metric {
				continue
			}
			matched = true
			status := "ok  "
			if !holds(r.Value, g.op, g.bound) {
				status = "FAIL"
				failed++
			}
			fmt.Printf("%s %s %s = %g %s, want %s %g: %s\n", status, r.Case, r.Metric, r.Value, r.Unit, g.op, g.bound, g.why)
		}
		if !matched {
			failed++
			fmt.Printf("FAIL no %s %s record: %s\n", g.cases, g.metric, g.why)
		}
	}
	return failed, nil
}

// The allocs mode's gated counter and its allowed relative regression
// (0.10 = +10%).
const (
	allocsMetric    = "allocs/op"
	allocsThreshold = 0.10
)

// parseBench extracts metric values (e.g. allocs/op) per benchmark
// name from `go test -bench` output. The counter name is matched
// against the unit column following each value.
func parseBench(file, metric string) (map[string]float64, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// Layout: Name iterations value unit [value unit]...
		name := trimProcSuffix(fields[0])
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != metric {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad %s value %q for %s", file, metric, fields[i], name)
			}
			out[name] = v
		}
	}
	return out, sc.Err()
}

// trimProcSuffix drops the -N GOMAXPROCS suffix so runs from machines
// with different core counts compare.
func trimProcSuffix(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// compareAllocs prints one line per benchmark in baseline and returns
// the number compared and whether any regressed beyond the threshold.
func compareAllocs(basePath, curPath string) (compared int, failed bool, err error) {
	base, err := parseBench(basePath, allocsMetric)
	if err != nil {
		return 0, false, err
	}
	cur, err := parseBench(curPath, allocsMetric)
	if err != nil {
		return 0, false, err
	}
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			fmt.Printf("SKIP %-50s only in baseline\n", name)
			continue
		}
		compared++
		var rel float64
		switch {
		case b == 0 && c == 0:
			rel = 0
		case b == 0:
			rel = 1.0 // from zero to anything is a full regression
		default:
			rel = (c - b) / b
		}
		status := "ok  "
		if rel > allocsThreshold {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s %-50s %14.1f -> %14.1f  (%+.1f%%)\n", status, name, b, c, rel*100)
	}
	for name := range cur {
		if _, ok := base[name]; !ok {
			fmt.Printf("NEW  %-50s %14.1f\n", name, cur[name])
		}
	}
	return compared, failed, nil
}

func main() {
	args := os.Args[1:]
	switch {
	case len(args) == 3 && args[0] == "allocs":
		compared, failed, err := compareAllocs(args[1], args[2])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		if compared == 0 {
			fmt.Fprintln(os.Stderr, "benchgate: no common benchmarks between the two files")
			os.Exit(1)
		}
		if failed {
			fmt.Fprintf(os.Stderr, "benchgate: %s regressed more than %.0f%% against baseline\n", allocsMetric, allocsThreshold*100)
			os.Exit(1)
		}
		fmt.Printf("benchgate: %d benchmarks within %.0f%% of baseline on %s\n", compared, allocsThreshold*100, allocsMetric)
	case len(args) == 2 && hasGates(args[0]):
		failed, err := check(args[0], args[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(1)
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "benchgate: %d %s check(s) failed\n", failed, args[0])
			os.Exit(1)
		}
		fmt.Printf("benchgate: every %s gate holds\n", args[0])
	default:
		fmt.Fprintln(os.Stderr, "usage: benchgate engine|multipivot|serve|recover|incr results.json\n       benchgate allocs baseline.txt current.txt")
		os.Exit(2)
	}
}

// hasGates reports whether the gate table has rows for suite.
func hasGates(suite string) bool {
	for _, g := range gates {
		if g.suite == suite {
			return true
		}
	}
	return false
}
