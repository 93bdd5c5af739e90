package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/graph"
	"repro/internal/durable"
	"repro/internal/verify"
	"repro/scc"
)

// durableBatches is the update workload shared by the durable tests,
// as both wire bodies and parsed edges. Batch 1 merges the two
// fixture SCCs; later batches grow the node space to 7.
var durableBatches = []struct {
	body  string
	edges []graph.Edge
}{
	{"4 0\n", []graph.Edge{{From: 4, To: 0}}},
	{"5 3\n", []graph.Edge{{From: 5, To: 3}}},
	{"6 5\n5 6\n", []graph.Edge{{From: 6, To: 5}, {From: 5, To: 6}}},
	{"0 6\n", []graph.Edge{{From: 0, To: 6}}},
	{"6 1\n", []graph.Edge{{From: 6, To: 1}}},
}

func openTestStore(t *testing.T, dir string, fsys durable.FS, snapshotEvery int64) *durable.Store {
	t.Helper()
	st, err := durable.Open(durable.Options{
		Dir:           dir,
		SnapshotEvery: snapshotEvery,
		Limits:        graph.Limits{MaxNodes: 1 << 20, MaxEdges: 1 << 24},
		FS:            fsys,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatalf("durable.Open(%s): %v", dir, err)
	}
	return st
}

func waitReady(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
}

// oracleComp runs Tarjan over the fixture plus the first n batches and
// returns the expected SCC labeling.
func oracleComp(t *testing.T, n int) []int32 {
	t.Helper()
	edges := testGraph().AppendEdges(nil)
	nodes := testGraph().NumNodes()
	for _, b := range durableBatches[:n] {
		for _, e := range b.edges {
			edges = append(edges, e)
			if v := int(e.From) + 1; v > nodes {
				nodes = v
			}
			if v := int(e.To) + 1; v > nodes {
				nodes = v
			}
		}
	}
	res, err := scc.Detect(graph.FromEdges(nodes, edges), scc.Options{Algorithm: scc.Tarjan})
	if err != nil {
		t.Fatalf("oracle detect: %v", err)
	}
	return res.Comp
}

// TestDurableRestartRoundTrip is the happy path: accept updates, shut
// down cleanly, restart over the same directory, and get the same
// answers at a strictly advanced epoch with every record replayed.
func TestDurableRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()

	st := openTestStore(t, dir, nil, -1) // no snapshots: everything replays
	cfg := quietCfg()
	cfg.Durable = st
	s, err := New(cfg, testGraph())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	waitReady(t, s)
	ts := httptest.NewServer(s.Handler())

	for i := 0; i < 2; i++ {
		resp, m := postBody(t, ts.URL+"/update?wait=1", durableBatches[i].body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("update %d: status %d body %v", i, resp.StatusCode, m)
		}
	}
	_, q := getJSON(t, ts.URL+"/same?u=0&v=4")
	if q["same"] != true {
		t.Fatalf("pre-restart same 0 4 = %v, want true", q["same"])
	}
	_, preStats := getJSON(t, ts.URL+"/stats")
	preEpoch := preStats["epoch"].(float64)

	ts.Close()
	s.Close()
	st.Close()

	st2 := openTestStore(t, dir, nil, -1)
	cfg2 := quietCfg()
	cfg2.Durable = st2
	s2, err := New(cfg2, testGraph())
	if err != nil {
		t.Fatalf("New (restart): %v", err)
	}
	defer st2.Close()
	defer s2.Close()
	waitReady(t, s2)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	code, m := getJSON(t, ts2.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if got := m["wal_records_replayed"].(float64); got != 2 {
		t.Errorf("wal_records_replayed = %v, want 2", got)
	}
	if m["wal_truncated"] != false {
		t.Errorf("wal_truncated = %v, want false", m["wal_truncated"])
	}
	if m["recovering"] != false {
		t.Errorf("recovering = %v, want false", m["recovering"])
	}
	if got := m["epoch"].(float64); got < preEpoch {
		t.Errorf("post-restart epoch %v < pre-crash epoch %v", got, preEpoch)
	}
	if got := m["wal_last_seq"].(float64); got != 2 {
		t.Errorf("wal_last_seq = %v, want 2", got)
	}
	_, q = getJSON(t, ts2.URL+"/same?u=0&v=4")
	if q["same"] != true {
		t.Errorf("post-restart same 0 4 = %v, want true", q["same"])
	}
	if !verify.SamePartition(s2.Snapshot().Cond.NodeComp, oracleComp(t, 2)) {
		t.Errorf("post-restart labels disagree with Tarjan oracle")
	}

	// The restarted server keeps accepting durable updates.
	resp, m := postBody(t, ts2.URL+"/update?wait=1", durableBatches[2].body)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-restart update: status %d body %v", resp.StatusCode, m)
	}
	if got := st2.LastSeq(); got != 3 {
		t.Errorf("post-restart LastSeq = %d, want 3", got)
	}
}

// TestReadyzRecovering holds recovery open with the test gate and
// checks the recovering surface: /readyz 503 + Retry-After, /stats
// recovering:true, updates refused — then everything clears when
// recovery finishes.
func TestReadyzRecovering(t *testing.T) {
	st := openTestStore(t, t.TempDir(), nil, 64)
	defer st.Close()
	gate := make(chan struct{})
	cfg := quietCfg()
	cfg.Durable = st
	cfg.testRecoverGate = gate
	s, err := New(cfg, testGraph())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("recovering /readyz: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("recovering /readyz: missing Retry-After header")
	}
	code, m := getJSON(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || m["reason"] != "recovering" {
		t.Errorf("recovering /readyz: status %d reason %v, want 503 recovering", code, m["reason"])
	}
	_, m = getJSON(t, ts.URL+"/stats")
	if m["recovering"] != true {
		t.Errorf("recovering /stats: recovering = %v, want true", m["recovering"])
	}
	// A batch accepted before the WAL exists would be lost; it must be
	// refused, not acknowledged.
	upd, m := postBody(t, ts.URL+"/update", durableBatches[0].body)
	if upd.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("recovering /update: status %d body %v, want 503", upd.StatusCode, m)
	}

	close(gate)
	waitReady(t, s)
	code, m = getJSON(t, ts.URL+"/readyz")
	if code != http.StatusOK || m["ready"] != true {
		t.Errorf("recovered /readyz: status %d ready=%v, want 200 true", code, m["ready"])
	}
	_, m = getJSON(t, ts.URL+"/stats")
	if m["recovering"] != false {
		t.Errorf("recovered /stats: recovering = %v, want false", m["recovering"])
	}
	upd, m = postBody(t, ts.URL+"/update?wait=1", durableBatches[0].body)
	if upd.StatusCode != http.StatusOK {
		t.Errorf("recovered /update: status %d body %v, want 200", upd.StatusCode, m)
	}
}

// TestUpdateFailStopOnWALError injects an fsync failure into the first
// post-recovery append and checks fail-stop semantics: the update is
// refused with 503, the edge never joins the served graph, and every
// later update is refused too.
func TestUpdateFailStopOnWALError(t *testing.T) {
	// Probe pass: count how many FS ops startup recovery costs on an
	// empty directory so the fault can target the first append's fsync.
	probe := durable.NewFaultFS(durable.OSFS{}, durable.FaultConfig{})
	{
		st := openTestStore(t, t.TempDir(), probe, 64)
		cfg := quietCfg()
		cfg.Durable = st
		s, err := New(cfg, testGraph())
		if err != nil {
			t.Fatalf("New (probe): %v", err)
		}
		waitReady(t, s)
		s.Close()
		st.Close()
	}
	// The first append is Write, Sync — ops+1 and ops+2 — but Close
	// also syncs, so probe counts one trailing Sync we must not count.
	syncOp := probe.Ops() - 1 + 2

	ffs := durable.NewFaultFS(durable.OSFS{}, durable.FaultConfig{SyncErrAt: syncOp})
	st := openTestStore(t, t.TempDir(), ffs, 64)
	defer st.Close()
	cfg := quietCfg()
	cfg.Durable = st
	s, err := New(cfg, testGraph())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	waitReady(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, m := postBody(t, ts.URL+"/update", durableBatches[0].body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("update on failed fsync: status %d body %v, want 503", resp.StatusCode, m)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("update on failed fsync: missing Retry-After header")
	}
	if got := s.Counters().Snapshot().WALAppendErrs; got < 1 {
		t.Errorf("WALAppendErrs = %d, want >= 1", got)
	}
	// The refused batch must not have been applied: 0 and 4 stay in
	// different components.
	_, q := getJSON(t, ts.URL+"/same?u=0&v=4")
	if q["same"] != false {
		t.Errorf("same 0 4 after refused update = %v, want false", q["same"])
	}
	// Fail-stop: the store is dead, later updates are refused too.
	resp, _ = postBody(t, ts.URL+"/update", durableBatches[1].body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("update after dead WAL: status %d, want 503", resp.StatusCode)
	}
	if st.Dead() == nil {
		t.Errorf("store.Dead() = nil, want latched error")
	}
}

// TestServerCrashPointMatrix kills the full server stack at every
// mutating-FS-op ordinal and checks, for each crash point, that a
// clean restart recovers: no acknowledged batch is lost, the recovered
// labeling matches a Tarjan oracle over exactly the durable prefix,
// the epoch never moves backwards, and the restarted server still
// accepts updates.
func TestServerCrashPointMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is slow under -short")
	}

	// runLife drives the workload until the store dies (or crashes),
	// returning how many batches were acknowledged and the last epoch a
	// client observed.
	runLife := func(t *testing.T, dir string, fsys durable.FS) (acked int, lastEpoch float64) {
		t.Helper()
		st, err := durable.Open(durable.Options{
			Dir:           dir,
			SnapshotEvery: 2,
			Limits:        graph.Limits{MaxNodes: 1 << 20, MaxEdges: 1 << 24},
			FS:            fsys,
			Logf:          func(string, ...any) {},
		})
		if err != nil {
			return 0, 0
		}
		defer st.Close()
		cfg := quietCfg()
		cfg.Durable = st
		s, err := New(cfg, testGraph())
		if err != nil {
			return 0, 0
		}
		defer s.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.WaitReady(ctx); err != nil {
			return 0, 0
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		_, m := getJSON(t, ts.URL+"/stats")
		lastEpoch = m["epoch"].(float64)
		for _, b := range durableBatches {
			resp, m := postBody(t, ts.URL+"/update?wait=1", b.body)
			if resp.StatusCode != http.StatusOK {
				break
			}
			acked++
			if e, ok := m["epoch"].(float64); ok && e > lastEpoch {
				lastEpoch = e
			}
		}
		return acked, lastEpoch
	}

	// Probe pass: a clean life over a counting FS fixes the op budget.
	probe := durable.NewFaultFS(durable.OSFS{}, durable.FaultConfig{})
	acked, _ := runLife(t, t.TempDir(), probe)
	if acked != len(durableBatches) {
		t.Fatalf("probe life acked %d/%d batches", acked, len(durableBatches))
	}
	total := probe.Ops()
	if total < 10 {
		t.Fatalf("probe counted only %d FS ops, workload too small", total)
	}

	root := t.TempDir()
	for ord := int64(1); ord <= total; ord++ {
		ord := ord
		t.Run(fmt.Sprintf("crash-at-%d", ord), func(t *testing.T) {
			dir := filepath.Join(root, fmt.Sprintf("ord%d", ord))
			ffs := durable.NewFaultFS(durable.OSFS{}, durable.FaultConfig{CrashAt: ord})
			acked, preEpoch := runLife(t, dir, ffs)
			if !ffs.Crashed() {
				t.Fatalf("crash point %d never fired (%d ops)", ord, ffs.Ops())
			}

			// Clean restart over the crashed directory.
			st := openTestStore(t, dir, nil, 2)
			defer st.Close()
			cfg := quietCfg()
			cfg.Durable = st
			s, err := New(cfg, testGraph())
			if err != nil {
				t.Fatalf("New after crash: %v", err)
			}
			defer s.Close()
			waitReady(t, s)

			seq := st.LastSeq()
			if int(seq) < acked {
				t.Fatalf("durability violation: %d batches acked, only %d recovered", acked, seq)
			}
			if int(seq) > len(durableBatches) {
				t.Fatalf("recovered seq %d beyond workload %d", seq, len(durableBatches))
			}
			sn := s.Snapshot()
			if !verify.SamePartition(sn.Cond.NodeComp, oracleComp(t, int(seq))) {
				t.Errorf("recovered labels disagree with Tarjan oracle over %d batches", seq)
			}
			if float64(sn.Epoch) < preEpoch {
				t.Errorf("epoch moved backwards: %d after restart, %v before crash", sn.Epoch, preEpoch)
			}

			// The recovered server still takes writes.
			if _, err := s.applyUpdate([]graph.Update{{From: 1, To: 5}}, 5); err != nil {
				t.Errorf("post-recovery update: %v", err)
			}
			if got := st.LastSeq(); got != seq+1 {
				t.Errorf("post-recovery LastSeq = %d, want %d", got, seq+1)
			}
		})
	}
}
