package main

import (
	"os"
	"path"
	"path/filepath"
	"testing"

	"repro/experiments"
	"repro/scc"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
BenchmarkFigure6Method2/livej-8    3  38669442 ns/op  96.42 MB/s  2661290 B/op  497 allocs/op
BenchmarkFigure6Method2/flickr-8   3  21274612 ns/op  90.54 MB/s  1757946 B/op  754 allocs/op
PASS
`

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseBenchAllocs(t *testing.T) {
	got, err := parseBench(writeTemp(t, sample), "allocs/op")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkFigure6Method2/livej":  497,
		"BenchmarkFigure6Method2/flickr": 754,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, v := range want {
		if got[name] != v {
			t.Fatalf("%s = %v, want %v", name, got[name], v)
		}
	}
}

func TestParseBenchOtherMetrics(t *testing.T) {
	p := writeTemp(t, sample)
	ns, err := parseBench(p, "ns/op")
	if err != nil {
		t.Fatal(err)
	}
	if ns["BenchmarkFigure6Method2/livej"] != 38669442 {
		t.Fatalf("ns/op = %v", ns["BenchmarkFigure6Method2/livej"])
	}
	bytes, err := parseBench(p, "B/op")
	if err != nil {
		t.Fatal(err)
	}
	if bytes["BenchmarkFigure6Method2/flickr"] != 1757946 {
		t.Fatalf("B/op = %v", bytes["BenchmarkFigure6Method2/flickr"])
	}
}

func TestTrimProcSuffix(t *testing.T) {
	cases := map[string]string{
		"BenchmarkX-8":        "BenchmarkX",
		"BenchmarkX/sub-16":   "BenchmarkX/sub",
		"BenchmarkX/ca-road":  "BenchmarkX/ca-road",
		"BenchmarkPlain":      "BenchmarkPlain",
		"BenchmarkX/scale-25": "BenchmarkX/scale",
	}
	for in, want := range cases {
		if got := trimProcSuffix(in); got != want {
			t.Fatalf("trimProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

// passingResults writes a results file holding one suite per gated
// experiment, every record inside its gate bounds.
func passingResults(t *testing.T) string {
	t.Helper()
	drained := true
	suites := map[string]experiments.RecordSet{
		"engine": experiments.EngineReport{
			Rows: []experiments.EngineRow{
				{Mode: "oneshot", RunsPerSec: 1000, AllocsPerRun: 35},
				{Mode: "engine", RunsPerSec: 2500},
				{Mode: "batch", RunsPerSec: 5000, AllocsPerRun: 4},
			},
			Speedup: 2.5, BatchSpeedup: 5,
		}.Records(),
		"multipivot": experiments.MultiPivotReport{Rows: []experiments.KernelCompareRow{
			{Dataset: "ca-road", HighDiameter: true, WorklistNs: 100, MultiPivotNs: 100,
				Metrics: scc.MetricsSnapshot{ReachWaves: 3, ReachClaims: 40}},
			{Dataset: "flickr", WorklistNs: 100, MultiPivotNs: 120},
		}}.Records(),
		"serve": experiments.ServeReport{Scenarios: []experiments.ServeScenario{
			{Name: "steady", QPS: 1000, P99US: 1500, EpochStart: 1, EpochEnd: 1},
			{Name: "overload", Shed429: 7, EpochStart: 1, EpochEnd: 1},
			{Name: "chaos-rebuild", RebuildFailures: 1, EpochStart: 1, EpochEnd: 2},
			{Name: "drain", DrainOK: &drained, EpochStart: 1, EpochEnd: 1},
		}}.Records(),
		"recover": experiments.RecoverReport{
			CrashPoints: 2, MaxRecoveryMS: 12, AnyTruncated: true,
			Points: []experiments.RecoverPoint{
				{CrashOp: 1, LabelsMatch: true, DurabilityOK: true},
				{CrashOp: 2, AckedBatches: 1, RecoveredSeq: 1, Truncated: true,
					LabelsMatch: true, DurabilityOK: true, EpochPreCrash: 2, EpochRecovered: 2},
			},
		}.Records(),
		"incr": experiments.IncrReport{FullDetectUS: 1000, Mixes: []experiments.IncrMix{
			{Name: "intra", Updates: 16, MeanBatchUS: 5, Speedup: 200, IntraInserts: 16},
			{Name: "cycle", Updates: 16, MeanBatchUS: 100, Speedup: 10, CycleMerges: 2},
			{Name: "delete", Updates: 16, MeanBatchUS: 10, Speedup: 100, NoopDeletes: 9},
		}}.Records(),
	}
	p := filepath.Join(t.TempDir(), "results.json")
	for name, rs := range suites {
		if err := experiments.WriteRecordSet(p, name, rs); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// violate returns a value that fails `value op bound`.
func violate(op string, bound float64) float64 {
	switch op {
	case ">=":
		return bound - 1
	case ">":
		return bound
	}
	return bound + 1 // "<=", "=="
}

// TestGateTable checks that a passing results file passes every suite,
// and that for every row of the gate table a copy that breaks exactly
// that row — a matched record pushed past the bound, or every matched
// record removed — fails, while the other rows still hold.
func TestGateTable(t *testing.T) {
	good := passingResults(t)
	for _, suite := range []string{"engine", "multipivot", "serve", "recover", "incr"} {
		if failed, err := check(suite, good); err != nil || failed != 0 {
			t.Fatalf("passing %s suite: %d failures, err %v", suite, failed, err)
		}
	}
	for _, g := range gates {
		for _, remove := range []bool{false, true} {
			sets, err := experiments.ReadRecordSets(good)
			if err != nil {
				t.Fatal(err)
			}
			rs := sets[g.suite]
			kept, broken := rs.Records[:0], 0
			for _, r := range rs.Records {
				if ok, _ := path.Match(g.cases, r.Case); ok && r.Metric == g.metric {
					broken++
					if remove {
						continue
					}
					r.Value = violate(g.op, g.bound)
				}
				kept = append(kept, r)
			}
			if broken == 0 {
				t.Fatalf("row %+v matches nothing in the passing results", g)
			}
			if remove {
				broken = 1 // the one "no record" failure
			}
			rs.Records = kept
			p := filepath.Join(t.TempDir(), "broken.json")
			if err := experiments.WriteRecordSet(p, g.suite, rs); err != nil {
				t.Fatal(err)
			}
			failed, err := check(g.suite, p)
			if err != nil || failed != broken {
				t.Fatalf("row %+v broken (remove=%v): %d failures, err %v; want %d", g, remove, failed, err, broken)
			}
		}
	}
}

func TestGateMissingSuite(t *testing.T) {
	p := filepath.Join(t.TempDir(), "results.json")
	if err := experiments.WriteRecordSet(p, "serve", experiments.RecordSet{}); err != nil {
		t.Fatal(err)
	}
	if _, err := check("recover", p); err == nil {
		t.Fatal("file without a recover suite passed the recover gate")
	}
	if _, err := check("recover", filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file passed the gate")
	}
}
