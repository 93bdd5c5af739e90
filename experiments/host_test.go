package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestReportsRecordHost checks that both sccbench report documents
// carry the measuring host's CPU count and GOMAXPROCS through a JSON
// round trip.
func TestReportsRecordHost(t *testing.T) {
	bench, err := BenchSweep(BenchConfig{Datasets: []string{"flickr"}, Scale: 0.02, Reps: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBenchJSON(&buf, bench); err != nil {
		t.Fatal(err)
	}
	var gotBench BenchReport
	if err := json.Unmarshal(buf.Bytes(), &gotBench); err != nil {
		t.Fatal(err)
	}

	serve, err := ServeSweep(ServeBenchConfig{Scale: 0.02, Clients: 2, Duration: 20 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteServeJSON(&buf, serve); err != nil {
		t.Fatal(err)
	}
	var gotServe ServeReport
	if err := json.Unmarshal(buf.Bytes(), &gotServe); err != nil {
		t.Fatal(err)
	}

	for name, h := range map[string]Host{"bench": gotBench.Host, "serve": gotServe.Host} {
		if h.NumCPU <= 0 || h.GOMAXPROCS <= 0 {
			t.Fatalf("%s report host = %+v, want non-zero num_cpu and gomaxprocs", name, h)
		}
	}
}
