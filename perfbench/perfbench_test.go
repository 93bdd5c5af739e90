package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/graph"
)

// overheadMetric is computed by run.py from two runs, not by one
// workload process.
const overheadMetric = "trace.overhead_frac"

func benchmarkSpec(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestShortWorkloadsEmitEveryMetric runs each workload in short mode,
// traced, and checks that it passes its correctness checks and reports
// every metric BENCHMARK.json names.
func TestShortWorkloadsEmitEveryMetric(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			code := run([]string{"-workload", w.name, "-seed", "3", "-seconds", "1.2",
				"-trace", "1", "-short", "-work-dir", t.TempDir()}, &out, &errb)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, name := range append(endToEnd, perLayer...) {
				if _, ok := res.Metrics[name]; !ok && name != overheadMetric {
					t.Errorf("metric %s missing", name)
				}
			}
		})
	}
}

func shortBench(t *testing.T, name string) *bench {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := newConfig(w, 5, 0.6, true)
	e, err := newEnv(cfg, nil, filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	b := &bench{cfg: cfg, env: e, metrics: map[string]metric{}}
	if err := b.buildOracles(); err != nil {
		t.Fatal(err)
	}
	return b
}

// corrupt returns labels with node 0 moved into another class.
func corrupt(labels []int32) []int32 {
	out := append([]int32(nil), labels...)
	for v := range out {
		if out[v] != out[0] {
			out[0] = out[v]
			return out
		}
	}
	panic("single-class labeling")
}

// TestCorruptLabelIsCaught shows that the detection and read checks
// reject labels and answers that disagree with the oracle.
func TestCorruptLabelIsCaught(t *testing.T) {
	b := shortBench(t, "flickr")
	b.detectOracle = corrupt(b.detectOracle)
	b.detectSlice(0)
	if b.tally.wrong.Load() == 0 {
		t.Fatal("detection labels checked against a corrupted oracle passed")
	}

	b = shortBench(t, "flickr")
	b.serveOracle = corrupt(b.serveOracle)
	b.serveSizes[b.serveOracle[0]]++
	// Every answer about node 0 now disagrees with the oracle.
	answers := []sampled{
		{q: query{kind: qComponentOf, u: 0}},
		{q: query{kind: qSame, u: 0, v: 0}},
	}
	sn := b.env.read.srv.Snapshot()
	c := sn.Cond.NodeComp[0]
	answers[0].a = answer{Component: c, Size: sn.Cond.Sizes[c]}
	answers[1].a = answer{Same: true}
	if bad := checkAnswers(b.env.serveG, b.serveOracle, b.serveSizes, answers); len(bad) != 1 {
		t.Fatalf("componentof against a corrupted oracle: %d rejected, want 1", len(bad))
	}
}

// TestCorruptAnswerIsCaught flips each kind of read answer on a small
// graph and checks that the oracle rejects exactly the flipped ones.
func TestCorruptAnswerIsCaught(t *testing.T) {
	// 0→1→2 is a path; 3⇄4 is a 2-cycle.
	g := graph.FromEdges(5, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 3, To: 4}, {From: 4, To: 3}})
	oracle, err := tarjan(g)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int32]int64{}
	for _, l := range oracle {
		sizes[l]++
	}
	good := []sampled{
		{q: query{kind: qReachable, u: 0, v: 2}, a: answer{Reachable: true}},
		{q: query{kind: qReachable, u: 2, v: 0}, a: answer{Reachable: false}},
		{q: query{kind: qSame, u: 3, v: 4}, a: answer{Same: true}},
		{q: query{kind: qComponentOf, u: 3}, a: answer{Component: 7, Size: 2}},
		{q: query{kind: qComponentOf, u: 4}, a: answer{Component: 7, Size: 2}},
	}
	if bad := checkAnswers(g, oracle, sizes, good); len(bad) != 0 {
		t.Fatalf("correct answers rejected: %+v", bad)
	}
	flipped := []sampled{
		{q: query{kind: qReachable, u: 0, v: 2}, a: answer{Reachable: false}},
		{q: query{kind: qReachable, u: 2, v: 0}, a: answer{Reachable: true}},
		{q: query{kind: qSame, u: 3, v: 4}, a: answer{Same: false}},
		{q: query{kind: qComponentOf, u: 3}, a: answer{Component: 7, Size: 1}},
	}
	if bad := checkAnswers(g, oracle, sizes, flipped); len(bad) != len(flipped) {
		t.Fatalf("%d of %d wrong answers rejected", len(bad), len(flipped))
	}
	split := append(good[3:4:4], sampled{q: query{kind: qComponentOf, u: 4}, a: answer{Component: 8, Size: 2}})
	if bad := checkAnswers(g, oracle, sizes, split); len(bad) != 1 {
		t.Fatal("one SCC answered with two component ids was not rejected")
	}
}
