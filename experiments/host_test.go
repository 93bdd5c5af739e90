package experiments

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestReportsRecordHost checks that the figure6 and serve suites,
// written into one results file, each carry the measuring host's CPU
// count, GOMAXPROCS and Go version.
func TestReportsRecordHost(t *testing.T) {
	bench, err := BenchSweep(BenchConfig{Datasets: []string{"flickr"}, Scale: 0.02, Reps: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	serve, err := ServeSweep(ServeBenchConfig{Scale: 0.02, Clients: 2, Duration: 20 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "results.json")
	if err := WriteRecordSet(p, "figure6", bench.Records()); err != nil {
		t.Fatal(err)
	}
	if err := WriteRecordSet(p, "serve", serve.Records()); err != nil {
		t.Fatal(err)
	}
	sets, err := ReadRecordSets(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"figure6", "serve"} {
		rs := sets[name]
		if rs.Host.NumCPU <= 0 || rs.Host.GOMAXPROCS <= 0 || rs.GoVersion == "" {
			t.Fatalf("%s suite host = %+v, go %q; want non-zero num_cpu and gomaxprocs and a Go version", name, rs.Host, rs.GoVersion)
		}
		if len(rs.Records) == 0 {
			t.Fatalf("%s suite has no records", name)
		}
	}
}

// TestWriteRecordSet checks the one write path: it creates a missing
// file, keeps the other suites when it replaces one, and refuses to
// overwrite a file that is not a results file.
func TestWriteRecordSet(t *testing.T) {
	p := filepath.Join(t.TempDir(), "results.json")
	a := RecordSet{Records: []Record{{"x", "m", 1, "count"}}}
	b := RecordSet{Records: []Record{{"y", "m", 2, "count"}}}
	if err := WriteRecordSet(p, "a", a); err != nil {
		t.Fatalf("write into a missing file: %v", err)
	}
	if err := WriteRecordSet(p, "b", b); err != nil {
		t.Fatal(err)
	}
	a.Records[0].Value = 3
	if err := WriteRecordSet(p, "a", a); err != nil {
		t.Fatal(err)
	}
	sets, err := ReadRecordSets(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 2 || sets["a"].Records[0].Value != 3 || sets["b"].Records[0].Value != 2 {
		t.Fatalf("after writing a, b, a: %+v", sets)
	}

	other := filepath.Join(t.TempDir(), "other.json")
	if err := os.WriteFile(other, []byte(`{"benchmark": "Figure6Method2"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteRecordSet(other, "a", a); err == nil {
		t.Fatal("overwrote a file that is not a results file")
	}
}

// TestCommittedResults checks that the committed results files decode
// and hold the suites their experiments wrote.
func TestCommittedResults(t *testing.T) {
	for file, want := range map[string][]string{
		"../BENCH_scc.json":   {"figure6", "engine", "multipivot"},
		"../BENCH_serve.json": {"serve", "incr"},
	} {
		sets, err := ReadRecordSets(file)
		if err != nil {
			t.Fatal(err)
		}
		if len(sets) != len(want) {
			t.Fatalf("%s holds %d suites, want %v", file, len(sets), want)
		}
		for _, name := range want {
			if len(sets[name].Records) == 0 {
				t.Fatalf("%s: suite %s has no records", file, name)
			}
		}
	}
}
